"""LANTERN-LEDGER: the repository's end-to-end serving benchmark.

Run from the repository root::

    python3 ledger/run.py --workload warm_mixed --seed 1 --seconds 15 --trace 0

It trains the canonical DBLP narrator, saves an mmap checkpoint, boots the
real serving stack (``python -m repro.service`` or ``python -m
repro.service.fleet``) as child processes, drives it over HTTP, checks every
response against an in-process reference, and stops everything it started.
``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
replays the same inputs untraced and traced and reports the per-layer
breakdown.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any response fails the output check.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: output-check failures printed in full; the rest are counted
SHOWN_PROBLEMS = 20


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def blas() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def provenance(args: argparse.Namespace, setup_repeats: int) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
        "seed": args.seed,
        "runs_per_workload": 1,
        "setup_repeats": setup_repeats,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="ledger/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="warm_mixed or batch_cold")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no LANTERN sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from ledger import workloads

    # a terminated run still unwinds, so every server it started is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # the generator and every process it starts (which inherit this) share
    # one CPU: on a shared VM, host steal on one vCPU otherwise stalls each
    # cross-CPU wake-up between client and server and makes runs disagree
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    scratch = ROOT / ".ledger_work"
    directory = scratch / f"{args.workload}-{os.getpid()}"
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    correct = not result.problems
    print(f"LEDGER {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(provenance(args, 1 if args.trace else workloads.SETUP_REPEATS)))
    for line in result.lines:
        print(line)
    error_share = result.failed / result.attempted if result.attempted else 0.0
    print(f"  error_share: {error_share:.6f} share ({result.failed} of {result.attempted} plans failed)")
    for problem in result.problems[:SHOWN_PROBLEMS]:
        print(f"  OUTPUT CHECK FAILED: {problem}")
    if len(result.problems) > SHOWN_PROBLEMS:
        print(f"  ... and {len(result.problems) - SHOWN_PROBLEMS} more output-check failures")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Building, booting and stopping the serving stack the benchmark drives.

Everything the served process needs is made here from source: the canonical
DBLP narrator is trained, saved as an mmap checkpoint, and served by
``python -m repro.service`` or ``python -m repro.service.fleet`` started as
child processes.  The benchmark times its own calls into each layer's public
functions (EXPLAIN, training epochs, save, load, boot) while doing so.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.core import Lantern, LanternConfig
from repro.nlg.train import train_workload_lantern
from repro.nlg.training import TrainerHooks
from repro.service.client import LanternClient
from repro.errors import ServiceError
from repro.workloads.dblp import DBLP_JOIN_GRAPH
from repro.workloads.generator import RandomQueryGenerator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: queries in the payload pool; times three dialects this stays under the
#: rule memo's 512 entries, so warm_mixed runs with a hot memo
POOL_QUERIES = 150
#: pool generator seeds start here; the canonical narrator trains on seed 9
POOL_SEED_BASE = 1000
#: (metric label, mini-engine EXPLAIN format) per client dialect
DIALECTS = (("pg-json", "json"), ("sqlserver-xml", "xml"), ("mysql-json", "mysql"))

_LISTENING = re.compile(r"listening on (http://[0-9.]+:[0-9]+)")


@dataclass(frozen=True)
class PoolItem:
    query: int
    dialect: str
    payload: str


@dataclass
class Timings:
    """Seconds spent in each timed public call, by layer metric."""

    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))

    def add(self, name: str, seconds: float) -> None:
        self.samples[name].append(seconds)


class _EpochTimer(TrainerHooks):
    def __init__(self, timings: Timings) -> None:
        self.timings = timings
        self._started = 0.0

    def on_epoch_begin(self, epoch: int) -> None:
        self._started = time.perf_counter()

    def on_epoch_end(self, record, early_stopping: dict) -> None:
        self.timings.add("epoch", time.perf_counter() - self._started)


def train_checkpoint(directory: Path, cold: bool, timings: Timings):
    """Train the canonical narrator and save it as an mmap checkpoint.

    ``cold`` saves the same model under ``decode_cache_enabled=False``; the
    config is persisted, so the booted service beam-decodes every act.
    Returns ``(database, checkpoint_path)``.
    """
    lantern, database, _, _, _ = train_workload_lantern(hooks=_EpochTimer(timings))
    if cold:
        lantern = Lantern(
            neural=lantern.neural,
            config=LanternConfig(seed=None, decode_cache_enabled=False),
        )
    started = time.perf_counter()
    path = lantern.save(directory / "checkpoint", weights_layout="mmap")
    timings.add("save", time.perf_counter() - started)
    return database, Path(path)


def build_pool(database, seed: int, timings: Timings) -> list[PoolItem]:
    """DBLP queries the narrator never saw, EXPLAINed in the three dialects."""
    generator = RandomQueryGenerator(database, DBLP_JOIN_GRAPH, seed=POOL_SEED_BASE + seed)
    pool: list[PoolItem] = []
    for query, generated in enumerate(generator.generate(POOL_QUERIES)):
        for label, explain_format in DIALECTS:
            started = time.perf_counter()
            payload = database.explain(generated.sql, output_format=explain_format)
            timings.add("explain", time.perf_counter() - started)
            pool.append(PoolItem(query, label, payload))
    return pool


def load_reference(checkpoint: Path, timings: Timings) -> Lantern:
    started = time.perf_counter()
    lantern = Lantern.load(checkpoint)
    timings.add("load", time.perf_counter() - started)
    return lantern


class Server:
    """One serving process we started: ``kind`` is "service" or "fleet"
    (the router, which spawns the workers itself).

    It runs in its own session so that stopping it can also reach the fleet
    workers the router spawned, whatever state the router is in.
    """

    def __init__(self, kind: str, args: list[str], log_path: Path) -> None:
        self.kind = kind
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-u", *args],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=str(ROOT),
            start_new_session=True,
        )
        self.url: Optional[str] = None
        self.client: Optional[LanternClient] = None

    def wait_ready(self, timeout_s: float = 120.0) -> float:
        """Block until ``/healthz`` answers ok; returns seconds since spawn."""
        deadline = time.monotonic() + timeout_s
        while self.url is None:
            match = _LISTENING.search(self.log_path.read_text(encoding="utf-8", errors="replace"))
            if match:
                self.url = match.group(1)
                self.client = LanternClient(self.url, timeout_s=60.0)
                break
            self._check_alive(deadline)
            time.sleep(0.005)
        while True:
            try:
                status, body = self.client.request_json("GET", "/healthz")
                if status == 200 and body.get("status") == "ok":
                    return time.perf_counter() - self.started
            except ServiceError:
                pass
            self._check_alive(deadline)
            time.sleep(0.005)

    def _check_alive(self, deadline: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(f"server exited early:\n{self.log_path.read_text()[-2000:]}")
        if time.monotonic() > deadline:
            raise RuntimeError(f"server not ready in time:\n{self.log_path.read_text()[-2000:]}")

    def stop(self) -> None:
        """Interrupt the server, then make sure its whole session is gone."""
        if self.client is not None:
            self.client.close()
        group = self.process.pid
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                _kill_group(group)
                self.process.wait(timeout=10.0)
        if not _group_gone(group, 10.0):
            _kill_group(group)
            _group_gone(group, 10.0)
        self._log.close()


def _kill_group(group: int) -> None:
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _group_gone(group: int, timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.02)
    return False


def service_args(checkpoint: Path, trace_log: Optional[Path]) -> list[str]:
    args = ["-m", "repro.service", "--checkpoint", str(checkpoint), "--port", "0"]
    if trace_log is None:
        return args + ["--no-tracing"]
    return args + ["--trace-log", str(trace_log), "--trace-sample", "1"]


def fleet_args(checkpoint: Path, traced: bool) -> list[str]:
    args = ["-m", "repro.service.fleet", "--workers", "2", "--checkpoint", str(checkpoint), "--port", "0"]
    return args if traced else args + ["--no-tracing"]

"""Quickstart for LANTERN-ZERO: mmap boot, float32 decode, compiled narrations.

Walks the zero-work serving stack in one process:

1. train a small NEURAL-LANTERN on the DBLP workload and save it with
   ``weights_layout="mmap"`` (raw aligned bytes instead of npz);
2. boot from the mapped checkpoint: parameters come back as read-only
   shared views — no decompression, no copies — and ``/metrics``-style
   memory info shows the mapping;
3. cast the model to float32 with ``model.astype("float32")`` (an ordinary
   float32 model at half the weight bytes, decoding on sgemm) and show the
   decode stays token-identical on real signatures;
4. pre-decode the workload with :func:`repro.nlg.compile.compile_plans`,
   freeze the ranked candidates into a compiled cache file, mount it in a
   fresh facade, and narrate the whole workload **without a single beam
   search**.

Run with:  python examples/compile_quickstart.py

The command-line equivalent (what you would run operationally):

    python -m repro.nlg.train --workload dblp --weights-layout mmap --out ckpt/dblp
    python -m repro.nlg.compile --checkpoint ckpt/dblp --workload dblp --out dblp.cache.json
    python -m repro.service --checkpoint ckpt/dblp --compiled-cache dblp.cache.json
"""

import tempfile
import time
from pathlib import Path

from repro.core import Lantern
from repro.core.acts import align_acts_with_narration, decompose_lot_into_acts
from repro.nlg.cache import CompiledCache
from repro.nlg.compile import compile_plans
from repro.nlg.train import train_workload_lantern


def main() -> None:
    print("=" * 72)
    print("1. Train a small NEURAL-LANTERN and save it in the mmap layout")
    print("=" * 72)
    lantern, database, queries, _, _ = train_workload_lantern(
        queries=12, hidden_dim=32, attention_dim=16, train_cap=160, validation_cap=32
    )
    trees = [lantern.plan_for_sql(database, sql) for sql in queries[:6]]
    with tempfile.TemporaryDirectory() as scratch:
        checkpoint = Path(scratch) / "dblp-zero"
        lantern.save(checkpoint, weights_layout="mmap")
        names = sorted(f.name for f in checkpoint.iterdir())
        print(f"saved {names} (weights are raw 64-byte-aligned bytes)\n")

        print("=" * 72)
        print("2. Boot from the mapping: read-only shared views, zero copies")
        print("=" * 72)
        started = time.perf_counter()
        loaded = Lantern.load(checkpoint)
        load_ms = (time.perf_counter() - started) * 1000
        info = loaded.neural.model.weights_memory_info()
        print(
            f"loaded in {load_ms:.1f} ms — {info['parameter_count']} parameters, "
            f"{info['bytes'] / 1024:.0f} KiB, mmap_backed={info['mmap_backed']}\n"
        )

        print("=" * 72)
        print("3. float32 inference: same tokens, half the weight bytes")
        print("=" * 72)
        model = loaded.neural.model
        cast = model.astype("float32")
        signatures = []
        for tree in trees[:3]:
            narration = loaded.describe_plan(tree)  # rule pass exposes the acts
            acts = align_acts_with_narration(
                decompose_lot_into_acts(narration.lot), narration
            )
            signatures.extend(act.input_tokens() for act in acts)
        float64_decodes = model.beam_decode_batch(signatures, beam_size=2)
        float32_decodes = cast.beam_decode_batch(signatures, beam_size=2)
        agreement = sum(a == b for a, b in zip(float64_decodes, float32_decodes))
        print(
            f"token agreement on {len(signatures)} act signatures: "
            f"{agreement}/{len(signatures)}; weights "
            f"{model.weights_memory_info()['bytes'] / 1024:.0f} KiB -> "
            f"{cast.weights_memory_info()['bytes'] / 1024:.0f} KiB\n"
        )

        print("=" * 72)
        print("4. Compile the workload, mount it, narrate with zero matmuls")
        print("=" * 72)
        compiled = compile_plans(loaded, trees)
        cache_file = Path(scratch) / "dblp.cache.json"
        compiled.save(cache_file)
        print(
            f"compiled {len(compiled)} act signatures "
            f"(beam={compiled.beam_size}, precision={compiled.precision}) "
            f"into {cache_file.name}"
        )

        served = Lantern.load(checkpoint)
        served.neural.decode_cache.mount_compiled(CompiledCache.load(cache_file))
        for tree in trees:
            narration = served.describe_plan(tree, mode="neural")
        stats = served.neural.decode_cache.stats()
        print(f"served {len(trees)} plans — cache stats: {stats}")
        print("last narration:", narration.text[:140], "...")
        assert stats["compiled_hits"] > 0, "expected compiled-tier hits"


if __name__ == "__main__":
    main()

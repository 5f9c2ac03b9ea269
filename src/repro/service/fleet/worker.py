"""The LANTERN-FLEET worker: one LANTERN-SERVE process plus an admin surface.

A :class:`WorkerService` is a plain :class:`~repro.service.server.LanternService`
extended through the ``extra_post`` / ``extra_get`` hooks with the three
endpoints the fleet router drives its lifecycle with:

* ``POST /admin/drain`` — flip to draining (``/healthz`` 503, narrations
  refused) while queued work finishes; the rolling-restart first step.
* ``GET /admin/cache`` — export the decode cache as a JSON snapshot
  (:meth:`repro.nlg.cache.DecodeCache.export_entries`), oldest→newest so a
  re-import reproduces the LRU order.
* ``POST /admin/cache`` — import such a snapshot; how a cold successor
  inherits its predecessor's warm entries during the cache-handoff.

``python -m repro.service.fleet.worker`` runs one worker standalone.  The
router spawns exactly this CLI: the worker binds an ephemeral port, then
prints a single machine-readable **ready line** on stdout::

    LANTERN-WORKER-READY {"worker_id": "w0", "host": "127.0.0.1", "port": 43117, "pid": 1234}

which is the spawn handshake — the router learns the port without any port
pre-allocation races.  SIGTERM stops the worker gracefully (drain, close).

Every worker of a fleet boots from the *same* ``--checkpoint`` directory:
LANTERN-ZERO checkpoints are mmap-backed, so N workers share one copy of
the model pages through the page cache instead of paying N private copies.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import threading
import time
from typing import Any, Optional

from repro.core.lantern import Lantern
from repro.errors import FleetError
from repro.nlg.cache import make_key, normalize_precision
from repro.service.server import DEFAULT_HOST, LanternService, ServiceConfig

__all__ = [
    "WorkerService",
    "READY_PREFIX",
    "export_cache_payload",
    "import_cache_payload",
    "main",
]

#: the stdout handshake line prefix the router waits for after spawning
READY_PREFIX = "LANTERN-WORKER-READY "


# ----------------------------------------------------------------------
# cache snapshot wire format (shared by the HTTP surface and the tests)
# ----------------------------------------------------------------------


def export_cache_payload(service: LanternService) -> dict[str, Any]:
    """The ``GET /admin/cache`` document: a JSON-safe decode-cache snapshot.

    Entries are emitted oldest→newest (the exporter's order), so importing
    them with sequential ``put`` calls reproduces the LRU eviction order on
    the receiving side.
    """
    neural = service.lantern.neural
    entries: list[list[Any]] = []
    if neural is not None and hasattr(neural, "decode_cache"):
        for (tokens, beam, precision), candidates in neural.decode_cache.export_entries():
            entries.append(
                [[list(tokens), beam, precision], [list(c) for c in candidates]]
            )
    payload: dict[str, Any] = {
        "entries": entries,
        "count": len(entries),
        "neural_attached": neural is not None,
    }
    if service.config.instance_id is not None:
        payload["worker_id"] = service.config.instance_id
    return payload


def import_cache_payload(
    service: LanternService, body: Optional[dict[str, Any]]
) -> dict[str, Any]:
    """Apply a ``POST /admin/cache`` snapshot; returns the import summary."""
    neural = service.lantern.neural
    entries = (body or {}).get("entries", [])
    imported = 0
    if neural is not None and hasattr(neural, "decode_cache") and isinstance(entries, list):
        cache = neural.decode_cache
        for entry in entries:
            try:
                (tokens, beam, precision), candidates = entry
                key = make_key(tokens, int(beam), normalize_precision(precision))
                cache.put(key, [tuple(c) for c in candidates])
                imported += 1
            except (TypeError, ValueError):
                continue  # skip malformed entries, keep the rest
    summary: dict[str, Any] = {
        "imported": imported,
        "neural_attached": neural is not None,
    }
    if service.config.instance_id is not None:
        summary["worker_id"] = service.config.instance_id
    return summary


class WorkerService(LanternService):
    """A LANTERN-SERVE process that takes lifecycle orders from the router."""

    def extra_post(
        self, path: str, body: Optional[dict[str, Any]]
    ) -> Optional[tuple[int, dict[str, Any]]]:
        if path == "/admin/drain":
            self.begin_drain()
            response: dict[str, Any] = {"status": "draining"}
            if self.config.instance_id is not None:
                response["worker_id"] = self.config.instance_id
            return 200, response
        if path == "/admin/cache":
            return 200, import_cache_payload(self, body)
        return None

    def extra_get(
        self, path: str, query: dict[str, list[str]]
    ) -> Optional[tuple[int, dict[str, Any]]]:
        if path == "/admin/cache":
            return 200, export_cache_payload(self)
        return None


def build_worker(
    worker_id: str,
    checkpoint: Optional[str] = None,
    compiled_cache: Optional[str] = None,
    host: str = DEFAULT_HOST,
    port: int = 0,
    **knobs: Any,
) -> WorkerService:
    """Construct a :class:`WorkerService` (warm-booted when ``checkpoint``).

    Mirrors :func:`repro.service.server.build_service` but always stamps the
    worker's fleet identity into the config and defaults to an ephemeral
    port (the ready-line handshake reports the bound one).
    """
    lantern = None
    if checkpoint:
        lantern = Lantern.load(checkpoint)
        if compiled_cache:
            from repro.nlg.cache import CompiledCache

            if lantern.neural is None:
                raise FleetError("--compiled-cache needs a checkpoint with a neural generator")
            lantern.neural.decode_cache.mount_compiled(CompiledCache.load(compiled_cache))
    from repro.service.batcher import BatcherConfig

    service_knobs = {
        key: knobs.pop(key)
        for key in ("tracing_enabled", "trace_window", "trace_keep", "trace_log", "trace_log_every")
        if key in knobs
    }
    config = ServiceConfig(
        host=host,
        port=port,
        instance_id=worker_id,
        batcher=BatcherConfig(**knobs),
        **service_knobs,
    )
    return WorkerService(lantern=lantern, config=config)


def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.fleet.worker",
        description="Run one LANTERN-FLEET worker (spawned by the router).",
    )
    parser.add_argument("--worker-id", required=True, help="stable fleet identity (shard name)")
    parser.add_argument("--host", default=DEFAULT_HOST)
    parser.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port (reported on stdout)"
    )
    parser.add_argument("--checkpoint", metavar="PATH", help="warm-boot from this mmap checkpoint")
    parser.add_argument(
        "--compiled-cache", metavar="FILE", help="mount this compiled narration cache"
    )
    parser.add_argument("--max-batch-size", type=int, default=32)
    parser.add_argument("--batch-window-ms", type=float, default=0.0)
    parser.add_argument("--max-queue-depth", type=int, default=256)
    parser.add_argument("--no-tracing", action="store_true")
    args = parser.parse_args(argv)
    if args.compiled_cache and not args.checkpoint:
        parser.error("--compiled-cache requires --checkpoint")

    service = build_worker(
        args.worker_id,
        checkpoint=args.checkpoint,
        compiled_cache=args.compiled_cache,
        host=args.host,
        port=args.port,
        max_batch_size=args.max_batch_size,
        batch_window_s=args.batch_window_ms / 1000.0,
        max_queue_depth=args.max_queue_depth,
        tracing_enabled=not args.no_tracing,
    )
    host, port = service.start()

    stop = threading.Event()

    def _terminate(signum: int, frame: Any) -> None:  # noqa: ARG001
        stop.set()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)

    ready = {
        "worker_id": args.worker_id,
        "host": host,
        "port": port,
        "pid": os.getpid(),
        "neural_attached": service.lantern.neural is not None,
    }
    print(READY_PREFIX + json.dumps(ready), flush=True)

    try:
        while not stop.is_set():
            stop.wait(timeout=1.0)
    finally:
        service.begin_drain()
        # give queued narrations a moment to finish before tearing down
        deadline = time.monotonic() + 5.0
        while service.batcher.queue_depth > 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        service.stop()


if __name__ == "__main__":
    main()

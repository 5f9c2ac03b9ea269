"""The LANTERN-SERVE HTTP API: ``POST /narrate``, ``GET /metrics``, ``GET /healthz``.

Pure stdlib: the shared front door in :mod:`repro.service.http` serves this
app (``LanternService.narrate`` and friends), so the serving layer deploys
anywhere the library does.  Handler threads parse and validate
payloads, then hand the operator tree to the shared
:class:`~repro.service.batcher.MicroBatcher`; narration itself always runs
on the batcher's single worker thread, which is what lets concurrent
requests share one fused neural decode per batch window.

``POST /narrate`` request body (JSON)::

    {
      "plan": <EXPLAIN JSON | showplan XML string | MySQL EXPLAIN JSON |
               OperatorTree.to_dict() object>,
      "format": "postgres-json" | "sqlserver-xml" | "mysql-json" | ...,   # optional
      "mode": "rule" | "neural" | "auto",                                  # optional
      "presentation": "document" | "annotated-tree"                        # optional
    }

Responses: 200 with the narration document, 400 for malformed payloads
(including the registry's attempted-format list), 429 when the admission
queue is full, 503 when a narration times out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.lantern import MODE_AUTO, MODE_NEURAL, MODE_RULE, Lantern
from repro.core.narration import Narration
from repro.core.presentation import PRESENTATION_MODES
from repro.errors import (
    NarrationError,
    PlanDetectionError,
    PlanFormatError,
    ServiceOverloadError,
    ServiceTimeoutError,
)
from repro.obs.events import JsonEventLog
from repro.obs.tracing import NOOP_SPAN, Span, TraceStore, Tracer
from repro.service.batcher import BatcherConfig, MicroBatcher
from repro.service.http import BadRequest, FrontDoor, HTTPError, PlanRejected, is_batch_wire
from repro.service.telemetry import ServiceTelemetry

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8517


def _process_rss_bytes() -> Optional[int]:
    """Resident set size of this process, or ``None`` when unmeasurable.

    ``/proc/self/statm`` (Linux) gives current residency in pages; the
    ``resource`` fallback reports the lifetime *peak* (``ru_maxrss``, in
    KiB on Linux) — close enough for the dashboard on other platforms.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            resident_pages = int(handle.read().split()[1])
        import os

        return resident_pages * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except (ImportError, AttributeError, OSError, ValueError):
        # no resource module (or no usable rusage) on this platform
        return None

_MODES = (MODE_RULE, MODE_NEURAL, MODE_AUTO)


@dataclass
class ServiceConfig:
    """Everything the serving layer can be tuned with."""

    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    #: default narration mode when a request does not name one
    default_mode: str = MODE_RULE
    batcher: BatcherConfig = field(default_factory=BatcherConfig)
    #: LANTERN-SCOPE tracing knobs
    tracing_enabled: bool = True
    #: how many recent traces the ``GET /trace`` store remembers
    trace_window: int = 256
    #: how many slowest-of-window traces ``GET /trace`` returns by default
    trace_keep: int = 16
    #: JSONL file receiving sampled trace events (``--trace-log``); None = off
    trace_log: Optional[str] = None
    #: emit every Nth finished trace to the trace log (1 = all)
    trace_log_every: int = 1
    #: stable identity of this serving process inside a fleet (surfaced in
    #: ``/healthz`` and ``/metrics`` so the router can attribute responses);
    #: None outside LANTERN-FLEET
    instance_id: Optional[str] = None


class LanternService:
    """The servable unit: one Lantern + batcher + telemetry, HTTP-fronted.

    Separate from the HTTP plumbing (:mod:`repro.service.http`) so tests
    (and embedders) can call :meth:`narrate_payload` / :meth:`metrics`
    directly, and so a future transport (async, gRPC, ...) can reuse the
    whole serving core.
    """

    #: name of the ``POST /narrate`` root span
    root_span_name = "POST /narrate"

    def __init__(
        self,
        lantern: Optional[Lantern] = None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        # the serving default narrator is deterministic (seed=None): response
        # wording then never depends on request arrival order, and the
        # rule-phase memo kicks in for repeated plan shapes
        from repro.core.lantern import LanternConfig

        self.lantern = (
            lantern if lantern is not None else Lantern(config=LanternConfig(seed=None))
        )
        self.config = config or ServiceConfig()
        self.telemetry = ServiceTelemetry()
        self.trace_log: Optional[JsonEventLog] = (
            JsonEventLog(self.config.trace_log) if self.config.trace_log else None
        )
        self.tracer = Tracer(
            enabled=self.config.tracing_enabled,
            store=TraceStore(window=self.config.trace_window, keep=self.config.trace_keep),
            log=self.trace_log,
            log_every=self.config.trace_log_every,
        )
        self.batcher = MicroBatcher(
            self.lantern, config=self.config.batcher, telemetry=self.telemetry
        )
        #: set by :meth:`begin_drain` — ``/healthz`` answers ``"draining"``
        #: (503) and new narrations are refused, while in-flight ones finish
        self.draining = False
        self._httpd: Optional[FrontDoor] = None

    # ------------------------------------------------------------------
    # request handling (transport-independent)
    # ------------------------------------------------------------------

    def narrate(self, body: Any, span: Span = NOOP_SPAN) -> tuple[int, dict[str, Any]]:
        """The HTTP kernel's ``POST /narrate`` entry: single or batch wire."""
        if is_batch_wire(body):
            return 200, self.narrate_batch_payload(body, span=span)
        return 200, self.narrate_payload(body, span=span)

    def _checked_options(
        self, body: Any, shape_error: Optional[str]
    ) -> tuple[str, Optional[str]]:
        """The checks both wire shapes share, in order: refuse while
        draining, reject a malformed body (``shape_error``), then an unknown
        ``mode`` or ``presentation``.  Returns ``(mode, presentation)``."""
        if self.draining:
            raise HTTPError(
                503,
                {
                    "error": "draining",
                    "message": "this worker is draining for restart; retry elsewhere",
                },
            )
        if shape_error is not None:
            raise BadRequest(shape_error)
        mode = body.get("mode", self.config.default_mode)
        if mode not in _MODES:
            raise BadRequest(f"unknown mode {mode!r}; expected one of {list(_MODES)}")
        presentation = body.get("presentation")
        if presentation is not None and presentation not in PRESENTATION_MODES:
            raise BadRequest(
                f"unknown presentation {presentation!r}; "
                f"expected one of {list(PRESENTATION_MODES)}"
            )
        return mode, presentation

    def narrate_payload(
        self, body: dict[str, Any], span: Span = NOOP_SPAN
    ) -> dict[str, Any]:
        """Validate one ``/narrate`` body, narrate it, shape the response.

        ``span`` (when tracing) is the request's root span: validation and
        plan ingest run under an ``admission`` child, and the span rides the
        queued request so the batch worker can attach the queue/decode
        stages.
        """
        admission_started = time.perf_counter()
        with span.child("admission"):
            shape_error = None
            if not isinstance(body, dict):
                shape_error = "request body must be a JSON object"
            elif "plan" not in body:
                shape_error = "request body needs a 'plan' key"
            mode, presentation = self._checked_options(body, shape_error)
            try:
                tree, resolved_format = self.lantern.registry.ingest(
                    body["plan"], body.get("format")
                )
            except (PlanDetectionError, PlanFormatError) as error:
                raise PlanRejected(error) from error
            span.tag(format=resolved_format, mode=mode)
            self.telemetry.record_stage(
                "admission", time.perf_counter() - admission_started
            )

        started = time.perf_counter()
        try:
            narration = self.batcher.submit(tree, mode=mode, span=span)
        except ServiceOverloadError as error:
            raise HTTPError(
                429, {"error": "overloaded", "message": str(error), "retry_after_s": 1}
            ) from error
        except ServiceTimeoutError as error:
            raise HTTPError(503, {"error": "timeout", "message": str(error)}) from error
        except NarrationError as error:
            raise HTTPError(
                400, {"error": "narration", "message": str(error)}
            ) from error
        latency_s = time.perf_counter() - started

        with span.child("finalize"):
            response: dict[str, Any] = {
                "narration": _narration_to_dict(narration),
                "format": resolved_format,
                "mode": mode,
                "latency_ms": round(latency_s * 1000.0, 3),
            }
            if presentation is not None:
                response["rendered"] = self.lantern.render(
                    narration, tree=tree, mode=presentation
                )
            response["_telemetry"] = {"plan_format": resolved_format, "mode": mode}
        return response

    def narrate_batch_payload(
        self, body: dict[str, Any], span: Span = NOOP_SPAN
    ) -> dict[str, Any]:
        """Validate one batch-wire ``/narrate`` body (``{"plans": [...]}``)
        and narrate every plan through **one** queue pass.

        All plans enter the micro-batch queue back to back
        (:meth:`MicroBatcher.submit_many`), so an idle worker fuses the whole
        wire batch into a single decode.  Failures are per item: a malformed
        plan, an admission refusal, or a narration error contributes an
        ``{"error": ..., "status": ...}`` object at its position while the
        rest of the batch proceeds — the envelope itself only fails (400/503)
        when it is structurally invalid or the worker is draining.  The
        LANTERN-FLEET router splits these envelopes per shard and rejoins the
        item lists in order.
        """
        plans = body.get("plans")
        mode, presentation = self._checked_options(
            body,
            None if isinstance(plans, list) and plans else "'plans' must be a non-empty list",
        )
        plan_format = body.get("format")
        results: list[Optional[dict[str, Any]]] = [None] * len(plans)
        ingested: list[tuple[int, Any, str]] = []
        with span.child("admission", batch=len(plans)):
            for index, plan in enumerate(plans):
                try:
                    tree, resolved_format = self.lantern.registry.ingest(plan, plan_format)
                except (PlanDetectionError, PlanFormatError) as error:
                    results[index] = {**PlanRejected(error).body, "status": 400}
                else:
                    ingested.append((index, tree, resolved_format))
        outcomes = self.batcher.submit_many(
            [tree for _, tree, _ in ingested],
            [mode] * len(ingested),
            span=span,
        )
        for (index, tree, resolved_format), outcome in zip(ingested, outcomes):
            if isinstance(outcome, ServiceOverloadError):
                results[index] = {"error": "overloaded", "message": str(outcome), "status": 429}
            elif isinstance(outcome, ServiceTimeoutError):
                results[index] = {"error": "timeout", "message": str(outcome), "status": 503}
            elif isinstance(outcome, Exception):
                results[index] = {"error": "narration", "message": str(outcome), "status": 400}
            else:
                item: dict[str, Any] = {
                    "narration": _narration_to_dict(outcome),
                    "format": resolved_format,
                    "mode": mode,
                }
                if presentation is not None:
                    item["rendered"] = self.lantern.render(
                        outcome, tree=tree, mode=presentation
                    )
                results[index] = item
        return {
            "results": results,
            "count": len(plans),
            "_telemetry": {"plan_format": None, "mode": mode},
        }

    # ------------------------------------------------------------------
    # fleet hooks (LANTERN-FLEET worker wrapper overrides these)
    # ------------------------------------------------------------------

    def begin_drain(self) -> None:
        """Take this process out of rotation without dropping in-flight work.

        ``/healthz`` flips to ``"draining"`` (503) so a router health check
        removes the worker from its hash ring; new ``/narrate`` submissions
        are refused with 503 while already-queued narrations finish.
        """
        self.draining = True

    def extra_post(
        self, path: str, body: Optional[dict[str, Any]]
    ) -> Optional[tuple[int, dict[str, Any]]]:
        """Hook for additional POST endpoints (``(status, body)`` or None).

        The base service serves none; the fleet worker wrapper adds its
        ``/admin/*`` surface here without forking the HTTP handler.
        """
        return None

    def extra_get(
        self, path: str, query: dict[str, list[str]]
    ) -> Optional[tuple[int, dict[str, Any]]]:
        """Hook for additional GET endpoints (``(status, body)`` or None)."""
        return None

    def metrics(self) -> dict[str, Any]:
        cache_stats = None
        neural = self.lantern.neural
        if neural is not None and hasattr(neural, "decode_cache"):
            cache_stats = neural.decode_cache.stats()
        document = self.telemetry.snapshot(
            decode_cache_stats=cache_stats, queue_depth=self.batcher.queue_depth
        )
        memo_stats = self.lantern.rule_memo_stats()
        if memo_stats is not None:
            document["rule_memo"] = memo_stats
        document["memory"] = self.memory_info()
        document["tracing"] = {
            "enabled": self.tracer.enabled,
            "traces_completed": self.tracer.store.completed,
        }
        if self.config.instance_id is not None:
            document["worker_id"] = self.config.instance_id
        return document

    def prometheus_metrics(self) -> str:
        """The ``GET /metrics?format=prometheus`` text document."""
        cache_stats = None
        neural = self.lantern.neural
        if neural is not None and hasattr(neural, "decode_cache"):
            cache_stats = neural.decode_cache.stats()
        return self.telemetry.prometheus(
            decode_cache_stats=cache_stats,
            rule_memo_stats=self.lantern.rule_memo_stats(),
            queue_depth=self.batcher.queue_depth,
            rss_bytes=_process_rss_bytes(),
        )

    def traces(self, limit: Optional[int] = None) -> dict[str, Any]:
        """The ``GET /trace`` document: the N slowest recent span trees."""
        store = self.tracer.store
        return {
            "enabled": self.tracer.enabled,
            "completed": store.completed,
            "window": store.window,
            "slowest": store.slowest(limit),
        }

    def memory_info(self) -> dict[str, Any]:
        """Process residency plus model weight footprint (LANTERN-ZERO).

        ``weights_mmap_shared`` is ``True`` when every model parameter is a
        read-only view of a memory-mapped checkpoint — those pages are
        shared with the page cache (and any sibling process mapping the
        same file) rather than being private copies counted once per
        replica.
        """
        info: dict[str, Any] = {"rss_bytes": _process_rss_bytes()}
        neural = self.lantern.neural
        model = getattr(neural, "model", None)
        if model is not None and hasattr(model, "weights_memory_info"):
            weights = model.weights_memory_info()
            info["weights_bytes"] = weights["bytes"]
            info["weights_parameter_count"] = weights["parameter_count"]
            info["weights_mmap_shared"] = weights["mmap_backed"]
        return info

    def healthz(self) -> dict[str, Any]:
        """The ``GET /healthz`` document.  Status semantics:

        * ``"ok"`` (HTTP 200) — accepting and answering narrations;
        * ``"draining"`` (HTTP 503) — :meth:`begin_drain` was called or the
          batcher is finishing its queue after a stop request; a fleet router
          takes the worker out of rotation *before* it goes silent;
        * ``"degraded"`` (HTTP 503) — the narration worker thread is gone.
        """
        worker = self.batcher._worker
        if self.draining or self.batcher.draining:
            status = "draining"
        elif worker is not None and worker.is_alive():
            status = "ok"
        else:
            status = "degraded"
        document = {
            "status": status,
            "formats": self.lantern.registry.formats(),
            "neural_attached": self.lantern.neural is not None,
        }
        if self.config.instance_id is not None:
            document["worker_id"] = self.config.instance_id
        return document

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Start the batcher and the HTTP listener; returns (host, port).

        Pass ``port=0`` in the config to bind an ephemeral port (tests do).
        """
        self.batcher.start()
        self._httpd = FrontDoor(self, self.config.host, self.config.port, "lantern-serve-http")
        return self._httpd.server_address[0], self._httpd.server_address[1]

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.stop()
            self._httpd = None
        self.batcher.stop()
        if self.trace_log is not None:
            self.trace_log.close()

    def serve_forever(self) -> None:
        """Blocking convenience used by ``python -m repro.service``."""
        host, port = self.start()
        print(f"LANTERN-SERVE listening on http://{host}:{port}")
        print(f"  POST http://{host}:{port}/narrate")
        print(f"  GET  http://{host}:{port}/metrics   (?format=prometheus)")
        print(f"  GET  http://{host}:{port}/trace")
        print(f"  GET  http://{host}:{port}/healthz")
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            self.stop()


def _narration_to_dict(narration: Narration) -> dict[str, Any]:
    return {
        "text": narration.text,
        "generator": narration.generator,
        "source": narration.source,
        "query_text": narration.query_text,
        "steps": [
            {
                "index": step.index,
                "text": step.text,
                "generator": step.generator,
                "operator_names": list(step.operator_names),
                "relations": list(step.relations),
                "intermediate": step.intermediate,
                "is_final": step.is_final,
            }
            for step in narration.steps
        ],
    }


def build_service(
    lantern: Optional[Lantern] = None,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    **knobs: Any,
) -> LanternService:
    """Convenience constructor used by ``__main__`` and the tests.

    Keyword knobs matching a :class:`ServiceConfig` field (the tracing
    controls) configure the service; everything else goes to
    :class:`BatcherConfig` as before.
    """
    service_knobs = {
        key: knobs.pop(key)
        for key in ("tracing_enabled", "trace_window", "trace_keep", "trace_log", "trace_log_every")
        if key in knobs
    }
    config = ServiceConfig(
        host=host, port=port, batcher=BatcherConfig(**knobs), **service_knobs
    )
    return LanternService(lantern=lantern, config=config)

"""The one HTTP front door shared by LANTERN-SERVE and the LANTERN-FLEET router.

Both ``python -m repro.service`` and ``python -m repro.service.fleet`` speak
the wire protocol of ``docs/api.md`` through this kernel; only the *app*
behind it differs (:class:`~repro.service.server.LanternService` or
:class:`~repro.service.fleet.router.LanternFleet`).  An app exposes:

* ``narrate(body, span) -> (status, payload)`` — the ``POST /narrate`` work;
  a ``payload["_telemetry"]`` dict, when present, is popped and recorded;
* ``healthz()``, ``metrics()``, ``prometheus_metrics()``, ``traces(limit)``;
* ``extra_post(path, body)`` / ``extra_get(path, query)`` — ``(status,
  payload)`` for extension endpoints, ``None`` for a 404;
* ``telemetry`` (a :class:`~repro.service.telemetry.ServiceTelemetry`),
  ``tracer``, and ``root_span_name`` for the ``POST /narrate`` root span.

The kernel owns everything the protocol fixes: body reading and its limits,
response writing, the exception → status mapping, per-endpoint request
telemetry, the ``POST /narrate`` span tree, and the listener lifecycle.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Union
from urllib.parse import parse_qs

from repro.errors import PlanDetectionError, PlanFormatError, ReproError, ServiceError
from repro.obs.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE

#: request body size bound — a QEP serialization has no business being larger
MAX_BODY_BYTES = 8 * 1024 * 1024
#: per-connection socket timeout: a client that stalls mid-request (or
#: leaves a kept-alive connection idle) releases its handler thread after
#: this long; clients reconnect transparently on their next request
SOCKET_TIMEOUT_S = 10.0

#: a peer that hung up (or stopped reading for ``SOCKET_TIMEOUT_S``) before
#: its response was written; there is nobody left to tell
_HUNG_UP = (BrokenPipeError, ConnectionResetError, TimeoutError)


class _ClientGone(Exception):
    """The client reset its connection mid-body: there is no one to answer."""


class HTTPError(ServiceError):
    """Carries an HTTP status + JSON body from app code to the kernel."""

    def __init__(self, status: int, body: dict[str, Any]) -> None:
        super().__init__(body.get("message", ""))
        self.status = status
        self.body = body


class BadRequest(HTTPError):
    """400 ``bad_request``: a structurally invalid request."""

    def __init__(self, message: str) -> None:
        super().__init__(400, {"error": "bad_request", "message": message})


class PlanRejected(HTTPError):
    """400 ``plan_format``: the ingestion registry could not parse a plan."""

    def __init__(self, error: Union[PlanDetectionError, PlanFormatError]) -> None:
        body: dict[str, Any] = {"error": "plan_format", "message": str(error)}
        if isinstance(error, PlanDetectionError):
            body["attempted_formats"] = error.attempted_formats
        super().__init__(400, body)


def is_batch_wire(body: Any) -> bool:
    """Whether a ``POST /narrate`` body uses the batch wire (``{"plans": [...]}``)."""
    return isinstance(body, dict) and "plans" in body and "plan" not in body


def _error_response(error: Exception) -> tuple[int, dict[str, Any]]:
    if isinstance(error, HTTPError):
        return error.status, error.body
    if isinstance(error, ReproError):
        return 400, {"error": "narration", "message": str(error)}
    return 500, {"error": "internal", "message": f"{type(error).__name__}: {error}"}


class _Handler(BaseHTTPRequestHandler):
    server_version = "LanternServe/1.0"
    protocol_version = "HTTP/1.1"
    # a small response still goes out as TCP segments; with Nagle on, a
    # segment can stall behind the client's delayed ACK (~40 ms) on every
    # kept-alive request
    disable_nagle_algorithm = True

    @property
    def timeout(self) -> float:  # read by StreamRequestHandler.setup
        return SOCKET_TIMEOUT_S

    @property
    def app(self) -> Any:
        return self.server.app

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # telemetry replaces access logs; stderr stays quiet

    def handle_one_request(self) -> None:
        # a client that resets the connection — while the server waits for
        # its next request line, or mid-body — gets no answer, no telemetry
        # record and no traceback: the connection just closes
        try:
            super().handle_one_request()
        except (ConnectionError, _ClientGone):
            self.close_connection = True

    # -- wire ------------------------------------------------------------

    def _send(self, status: int, payload: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if status == 429:
            self.send_header("Retry-After", "1")
        if self.close_connection:
            # set when the request body was not (fully) read: the unread
            # bytes would desync a kept-alive HTTP/1.1 stream, so tell the
            # client this connection is done
            self.send_header("Connection", "close")
        # headers and body leave in one write: no body segment waits on the
        # client's delayed ACK, and a peer that has gone is found exactly once
        self._headers_buffer.append(b"\r\n" + payload)
        try:
            self.flush_headers()
        except _HUNG_UP:
            self.close_connection = True

    def _send_json(self, status: int, body: dict[str, Any]) -> None:
        self._send(status, json.dumps(body).encode("utf-8"), "application/json")

    def _read_body(self, required: bool = True) -> Any:
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError as error:
            self.close_connection = True
            raise BadRequest("Content-Length must be a decimal byte count") from error
        if length <= 0:
            if not required:
                return None
            self.close_connection = True
            raise BadRequest("missing request body")
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise HTTPError(
                413,
                {"error": "too_large", "message": f"request body exceeds {MAX_BODY_BYTES} bytes"},
            )
        try:
            raw = self.rfile.read(length)
        except ConnectionError as error:
            raise _ClientGone from error
        except TimeoutError as error:
            self.close_connection = True
            raise HTTPError(
                408,
                {
                    "error": "request_timeout",
                    "message": f"request body not received within {SOCKET_TIMEOUT_S:g} s",
                },
            ) from error
        if len(raw) < length:
            self.close_connection = True
            raise BadRequest("request body shorter than its Content-Length")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequest(f"invalid JSON body: {error}") from error
        except RecursionError as error:
            raise BadRequest("invalid JSON body: nested too deeply") from error

    # -- endpoints -------------------------------------------------------

    def do_POST(self) -> None:
        started = time.perf_counter()
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/narrate":
            self._post_narrate(started)
            return
        # the raw path becomes a telemetry label only once the body was read
        # and the app did not disown the path, so unserved paths (bad body
        # or not) cannot grow the label set
        endpoint = "other"
        try:
            body = self._read_body(required=False)
            endpoint = path
            result = self.app.extra_post(path, body)
            if result is None:
                endpoint = "other"
                result = 404, {"error": "not_found", "message": self.path}
            status, payload = result
        except _ClientGone:
            raise
        except Exception as error:  # noqa: BLE001 - mapped to a status
            status, payload = _error_response(error)
        self._send_json(status, payload)
        self.app.telemetry.record_request(
            status, time.perf_counter() - started, endpoint=endpoint
        )

    def _post_narrate(self, started: float) -> None:
        app = self.app
        plan_format = mode = None
        # a fleet router propagates its request's trace id; adopting it
        # keeps one id across the process boundary so the router can graft
        # this worker's span tree onto its own
        root = app.tracer.trace(
            app.root_span_name, trace_id=self.headers.get("X-Lantern-Trace-Id")
        )
        with root:
            try:
                with root.child("read_body"):
                    body = self._read_body()
                status, payload = app.narrate(body, root)
                telemetry_tags = payload.pop("_telemetry", {})
                plan_format = telemetry_tags.get("plan_format")
                mode = telemetry_tags.get("mode")
                if root:
                    payload["trace_id"] = root.trace_id
            except _ClientGone:
                root.tag(error="client_reset")
                raise
            except Exception as error:  # noqa: BLE001 - mapped to a status
                status, payload = _error_response(error)
                if isinstance(error, HTTPError):
                    root.tag(error=payload.get("error", "http_error"))
            respond_started = time.perf_counter()
            with root.child("respond", status=status):
                self._send_json(status, payload)
                app.telemetry.record_stage("respond", time.perf_counter() - respond_started)
            root.tag(status=status)
        app.telemetry.record_request(
            status,
            time.perf_counter() - started,
            plan_format=plan_format,
            mode=mode,
            endpoint="/narrate",
        )

    def do_GET(self) -> None:
        started = time.perf_counter()
        path, _, query_text = self.path.partition("?")
        path = path.rstrip("/") or "/"
        query = parse_qs(query_text)
        app = self.app
        endpoint = path
        payload: Union[dict[str, Any], str]
        try:
            if path == "/metrics" and query.get("format", [""])[0] == "prometheus":
                status, payload = 200, app.prometheus_metrics()
            elif path == "/metrics":
                status, payload = 200, app.metrics()
            elif path == "/trace":
                try:
                    limit: Optional[int] = int(query["limit"][0]) if "limit" in query else None
                except ValueError:
                    limit = None
                status, payload = 200, app.traces(limit)
            elif path == "/healthz":
                payload = app.healthz()
                # non-ok states answer 503 so load balancers and the fleet
                # router can act on the status code alone
                status = 200 if payload["status"] == "ok" else 503
            else:
                result = app.extra_get(path, query)
                if result is None:
                    endpoint = "other"
                    result = 404, {"error": "not_found", "message": self.path}
                status, payload = result
        except Exception as error:  # noqa: BLE001 - mapped to a status
            status, payload = _error_response(error)
        if isinstance(payload, str):
            self._send(status, payload.encode("utf-8"), PROMETHEUS_CONTENT_TYPE)
        else:
            self._send_json(status, payload)
        app.telemetry.record_request(
            status, time.perf_counter() - started, endpoint=endpoint
        )


class FrontDoor(ThreadingHTTPServer):
    """A listening server that answers for ``app`` from a daemon thread.

    Pass ``port=0`` to bind an ephemeral port; ``server_address`` reports
    the bound one.
    """

    daemon_threads = True

    def __init__(self, app: Any, host: str, port: int, thread_name: str) -> None:
        super().__init__((host, port), _Handler)
        self.app = app
        self._thread = threading.Thread(
            target=self.serve_forever, name=thread_name, daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5.0)

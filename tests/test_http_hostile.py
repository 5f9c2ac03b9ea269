"""Hostile HTTP input against both front doors.

The single-process service and the fleet router answer through one shared
kernel (:mod:`repro.service.http`), so every case runs against both: an
in-process ``LanternService`` on an ephemeral port and a one-worker
``LanternFleet``.  Each case pins one defect: malformed framing must get a
structured 4xx (never a 500, never silence), a stalled client must not pin
a handler thread, and a client that hangs up or resets early must not
spray tracebacks on stderr.
"""

from __future__ import annotations

import http.client
import json
import socket
import struct
import time
from typing import Optional

import pytest

from repro.service import LanternClient, build_service
from repro.service.fleet import FleetConfig, LanternFleet


@pytest.fixture(scope="module", params=["service", "fleet"])
def door(request):
    """(app, host, port) of a running front door."""
    if request.param == "service":
        app = build_service(port=0)
    else:
        app = LanternFleet(
            FleetConfig(num_workers=1, port=0, heartbeat_interval_s=0.2, snapshot_every=0)
        )
    host, port = app.start()
    yield app, host, port
    app.stop()


def _post(
    host: str, port: int, path: str, body: bytes, content_length: Optional[str] = None
) -> tuple[int, dict]:
    """POST ``body`` with a verbatim ``Content-Length`` header value."""
    connection = http.client.HTTPConnection(host, port, timeout=5)
    try:
        connection.putrequest("POST", path)
        connection.putheader("Content-Type", "application/json")
        connection.putheader(
            "Content-Length", str(len(body)) if content_length is None else content_length
        )
        connection.endheaders(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _requests_to(app, endpoint: str) -> int:
    return app.telemetry.snapshot()["requests"]["by_endpoint"].get(endpoint, 0)


def _responses_with(app, status: int) -> int:
    return app.telemetry.snapshot()["requests"]["by_status"].get(str(status), 0)


def _reset(sock: socket.socket) -> None:
    """Make the coming ``close()`` send a RST instead of a FIN."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))


def test_non_numeric_content_length_is_a_400(door):
    _, host, port = door
    status, payload = _post(host, port, "/narrate", b"{}", content_length="twelve")
    assert status == 400
    assert payload["error"] == "bad_request"


def test_deeply_nested_json_is_a_400(door):
    _, host, port = door
    status, payload = _post(host, port, "/narrate", b"[" * 5000 + b"]" * 5000)
    assert status == 400
    assert payload["error"] == "bad_request"


def test_unknown_post_path_with_a_bad_body_gets_a_4xx(door):
    """An unserved POST path with a bad body gets a 400, recorded under the
    one label ``other`` so arbitrary paths cannot grow the label set."""
    app, host, port = door
    before = _requests_to(app, "other")
    for content_length, body in (("twelve", b"{}"), (None, b"{not json")):
        status, payload = _post(host, port, "/elsewhere", body, content_length)
        assert 400 <= status < 500, payload
        assert payload["error"] == "bad_request"
    # the server records a request just after answering it
    deadline = time.monotonic() + 3.0
    while _requests_to(app, "other") < before + 2 and time.monotonic() < deadline:
        time.sleep(0.02)
    assert _requests_to(app, "other") == before + 2
    assert "/elsewhere" not in app.telemetry.snapshot()["requests"]["by_endpoint"]


def test_client_hanging_up_early_leaves_no_traceback(door, capfd):
    """The client leaves mid-body, once with a FIN (the server answers 400
    into a closed socket) and once with a RST (nobody is left to answer:
    no response, no request recorded, and never a 500)."""
    app, host, port = door
    before = _requests_to(app, "/narrate")
    errors_before = _responses_with(app, 500)
    head = (
        f"POST /narrate HTTP/1.1\r\nHost: {host}\r\n"
        "Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"
    )
    for reset in (False, True):
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(head.encode("ascii") + b'{"plan": ')
            time.sleep(0.5)  # the server is now blocked reading the body
            if reset:
                _reset(sock)
    deadline = time.monotonic() + 3.0
    while _requests_to(app, "/narrate") < before + 1 and time.monotonic() < deadline:
        time.sleep(0.02)
    time.sleep(0.3)  # the reset reaches its handler at once; give it time to misbehave
    assert _requests_to(app, "/narrate") == before + 1
    assert _responses_with(app, 500) == errors_before
    err = capfd.readouterr().err
    assert "Traceback" not in err, err


def test_client_reset_between_requests_closes_quietly(door, capfd):
    """A client that resets a kept-alive connection while the server waits
    for its next request line leaves no traceback behind."""
    _, host, port = door
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(f"GET /healthz HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("ascii"))
        response = http.client.HTTPResponse(sock)
        response.begin()
        response.read()
        response.close()
        _reset(sock)
    time.sleep(0.5)  # the server's wait for the next request line ends in the reset
    err = capfd.readouterr().err
    assert "Traceback" not in err, err


def test_slow_body_gets_a_408_instead_of_pinning_a_thread(door, monkeypatch):
    monkeypatch.setattr("repro.service.http.SOCKET_TIMEOUT_S", 0.5)
    _, host, port = door
    head = (
        f"POST /narrate HTTP/1.1\r\nHost: {host}\r\n"
        "Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"
    )
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(head.encode("ascii") + b'{"plan": ')
        started = time.monotonic()
        response = http.client.HTTPResponse(sock)
        response.begin()
        assert response.status == 408
        assert json.loads(response.read())["error"] == "request_timeout"
        assert response.getheader("Connection") == "close"
        assert time.monotonic() - started < 3.0


def test_idle_keep_alive_connection_reconnects_transparently(door, monkeypatch):
    """The server drops a kept-alive connection idle past the socket
    timeout; the client's reconnect-on-reused-connection path absorbs it."""
    monkeypatch.setattr("repro.service.http.SOCKET_TIMEOUT_S", 0.3)
    _, host, port = door
    with LanternClient(f"http://{host}:{port}") as client:
        client.healthz()
        first_socket = client._connection.sock
        time.sleep(1.0)
        assert client.healthz()["status"] == "ok"
        assert client._connection.sock is not first_socket

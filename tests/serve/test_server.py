"""HTTP front end: the v1 surface, error envelope, framing, shutdown."""

import http.client
import json
import socket
import socketserver
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import InferenceEngine, ServeConfig, ServingServer
from repro.serve import server as server_module


@pytest.fixture(scope="module")
def server(served_model):
    engine = InferenceEngine(
        served_model, ServeConfig(max_batch=16, max_wait_ms=2.0, port=0))
    srv = ServingServer(engine, model_name="test-model")
    srv.start_background()
    yield srv
    srv.shutdown()


def _request(server, path, payload=None, method=None):
    url = f"http://127.0.0.1:{server.port}{path}"
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.headers, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers, exc.read()


def _json(server, path, payload=None, method=None):
    status, _, body = _request(server, path, payload, method)
    return status, json.loads(body)


def test_score_single_session(server):
    status, body = _json(server, "/v1/score",
                         {"activities": [1, 2, 3], "session_id": "abc"})
    assert status == 200
    assert body["session_id"] == "abc"
    assert body["label"] in (0, 1)
    assert 0.0 <= body["score"] <= 1.0
    assert len(body["probs"]) == 2
    assert body["oov_count"] == 0
    assert body["generation"] == 0


def test_score_batch(server):
    payload = {"sessions": [{"activities": [1, 2]},
                            {"activities": [3, 1, 2]},
                            {"activities": [2]}]}
    status, body = _json(server, "/v1/score", payload)
    assert status == 200
    assert len(body["results"]) == 3
    assert all("score" in r for r in body["results"])


def test_malformed_body_is_enveloped_400(server):
    status, body = _json(server, "/v1/score", {"activities": []})
    assert status == 400
    assert body["error"]["code"] == "empty_session"
    assert body["error"]["status"] == 400
    assert "message" in body["error"]


def test_invalid_json_is_400(server):
    url = f"http://127.0.0.1:{server.port}/v1/score"
    req = urllib.request.Request(url, data=b"{nope", method="POST")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(req, timeout=30).read()
    assert excinfo.value.code == 400
    body = json.loads(excinfo.value.read())
    assert body["error"]["code"] == "invalid_json"


def test_empty_body_is_400(server):
    status, body = _json(server, "/v1/score", method="POST")
    assert status == 400
    assert body["error"]["code"] == "empty_body"


def test_healthz(server):
    status, body = _json(server, "/v1/healthz")
    assert status == 200
    assert body["status"] == "ok"
    assert body["model"] == "test-model"
    assert body["queue_depth"] >= 0
    assert body["generation"] == 0


@pytest.mark.parametrize("status, code", [
    ("ok", 200), ("degraded", 200), ("shutting_down", 503)])
def test_healthz_code_follows_engine_status(status, code):
    class StubEngine:
        config = ServeConfig(port=0)

        def health(self):
            return {"status": status}

        def close(self):
            pass

    srv = ServingServer(StubEngine(), model_name="stub")
    srv.start_background()
    try:
        assert _json(srv, "/v1/healthz") == (
            code, {"status": status, "model": "stub"})
    finally:
        srv.shutdown()


def test_metrics_prometheus_text(server):
    # Generate at least one scored request first.
    _json(server, "/v1/score", {"activities": [1]})
    status, headers, body = _request(server, "/v1/metrics")
    text = body.decode()
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    assert "repro_serve_requests_total" in text
    assert "repro_serve_batch_size_count" in text
    assert 'repro_serve_latency_seconds{quantile="0.99"}' in text
    assert 'repro_serve_profile_region_seconds{region="batch_forward"}' in text
    assert "repro_serve_generation 0" in text


def test_metrics_json_snapshot(server):
    _json(server, "/v1/score", {"activities": [1]})
    status, body = _json(server, "/v1/metrics?format=json")
    assert status == 200
    assert body["requests_total"] >= 1
    assert body["sessions_total"] >= 1
    assert "p50" in body["latency_seconds"]
    assert "batch_forward" in body["profile_regions_seconds"]
    assert body["generation"] == 0


def test_unknown_route_is_enveloped_404(server):
    status, body = _json(server, "/v1/nope")
    assert status == 404
    assert body["error"]["code"] == "not_found"
    status, body = _json(server, "/v1/nope", {"activities": [1]})
    assert status == 404
    assert body["error"]["code"] == "not_found"


@pytest.mark.parametrize("path, payload", [
    ("/healthz", None), ("/score", {"activities": [1]})],
    ids=["get", "post"])
def test_unversioned_path_is_enveloped_404(server, path, payload):
    """Only /v1 routes exist: unversioned spellings are unknown routes."""
    status, body = _json(server, path, payload)
    assert status == 404
    assert body["error"]["code"] == "not_found"


def test_errors_show_up_in_metrics(server):
    _json(server, "/v1/score", {"activities": []})
    status, body = _json(server, "/v1/metrics?format=json")
    assert status == 200
    assert body["errors_total"].get("empty_session", 0) >= 1


def test_concurrent_requests_all_succeed(server):
    statuses = []
    lock = threading.Lock()

    def hit(i):
        status, body = _json(server, "/v1/score",
                             {"activities": [1 + (i % 3), 2],
                              "session_id": f"c{i}"})
        with lock:
            statuses.append((status, body.get("session_id")))

    threads = [threading.Thread(target=hit, args=(i,)) for i in range(24)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert len(statuses) == 24
    assert all(status == 200 for status, _ in statuses)
    assert {sid for _, sid in statuses} == {f"c{i}" for i in range(24)}


# ----------------------------------------------------------------------
# Response framing and connection handling
# ----------------------------------------------------------------------
def _read_to_eof(sock) -> bytes:
    """Everything the server sends until it closes the connection."""
    data = b""
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:  # a close with unread input resets
            return data
        if not chunk:
            return data
        data += chunk


def _raw_exchange(server, request: bytes) -> tuple[list[bytes], dict]:
    """Send raw bytes; return the response header lines and JSON body.

    Reads to EOF, so it also asserts the server closed the connection:
    a connection left open blocks here until the socket timeout fails
    the test.
    """
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=30) as sock:
        sock.sendall(request)
        data = _read_to_eof(sock)
    assert data.count(b"HTTP/1.1 ") == 1, data  # exactly one response
    head, body = data.split(b"\r\n\r\n", 1)
    return head.split(b"\r\n"), json.loads(body)


def test_keep_alive_responses_leave_in_one_send(server, monkeypatch):
    """Every response is one write on a TCP_NODELAY socket, so a
    keep-alive client never waits on Nagle plus a delayed ACK."""
    writes = []
    real_write = socketserver._SocketWriter.write

    def spy_write(self, data):
        writes.append(bytes(data))
        return real_write(self, data)

    nodelay = []
    real_setup = server_module._Handler.setup

    def spy_setup(self):
        real_setup(self)
        nodelay.append(self.connection.getsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY))

    monkeypatch.setattr(socketserver._SocketWriter, "write", spy_write)
    monkeypatch.setattr(server_module._Handler, "setup", spy_setup)

    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    exchanges = [
        ("POST", "/v1/score", {"activities": [1, 2], "session_id": "ka"},
         200),
        ("GET", "/v1/healthz", None, 200),
        ("GET", "/v1/metrics", None, 200),
        ("GET", "/v1/nope", None, 404),
        ("GET", "/healthz", None, 404),
        ("POST", "/v1/score", {"activities": []}, 400),
    ]
    sock = None
    try:
        for method, path, payload, status in exchanges:
            body = json.dumps(payload).encode() if payload else None
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            content = resp.read()
            assert resp.status == status, (path, content)
            assert resp.getheader("Connection") is None  # stays open
            sock = sock or conn.sock
            assert conn.sock is sock  # one connection for all six
            # The write just observed is this whole response.
            assert writes[-1].startswith(f"HTTP/1.1 {status} ".encode())
            assert writes[-1].endswith(content)
    finally:
        conn.close()
    assert len(writes) == len(exchanges)
    assert nodelay == [1]


_SMUGGLED = b"BOGUS /body HTTP/1.1\r\nHost: t\r\n\r\n"


@pytest.mark.parametrize("path, length, status, code", [
    ("/v1/score", server_module._MAX_BODY_BYTES + 1, b"413",
     "body_too_large"),
    ("/v1/nope", len(_SMUGGLED), b"404", "not_found"),
], ids=["413-oversized", "404-unread"])
def test_unread_body_closes_connection(server, path, length, status, code):
    """Regression: the unread body of a rejected request used to be
    parsed as the next request on the same connection."""
    head, body = _raw_exchange(
        server, f"POST {path} HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {length}\r\n\r\n".encode() + _SMUGGLED)
    assert head[0].split()[1] == status
    assert b"Connection: close" in head
    assert body["error"]["code"] == code


@pytest.mark.parametrize("path", ["/v1/score", "/v1/reload"])
def test_malformed_content_length_is_400(server, path):
    """Regression: ``Content-Length: abc`` used to answer 500 internal."""
    head, body = _raw_exchange(
        server, f"POST {path} HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: abc\r\n\r\n".encode())
    assert head[0].startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head
    assert body["error"]["code"] == "invalid_request"
    assert "Content-Length" in body["error"]["message"]


def test_http_server_errors_are_enveloped(server):
    """Errors raised inside http.server itself use the JSON envelope
    and keep closing the connection."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("PUT", "/v1/score", body=b"{}")
        resp = conn.getresponse()
        body = json.loads(resp.read())
        assert resp.status == 501
        assert resp.getheader("Connection") == "close"
        assert resp.getheader("Content-Type") == "application/json"
        assert body["error"]["code"] == "not_implemented"
        assert body["error"]["status"] == 501
        assert "PUT" in body["error"]["message"]
    finally:
        conn.close()
    head, body = _raw_exchange(server, b"garbage\r\n\r\n")
    assert head[0].startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head
    assert body["error"]["code"] == "bad_request"


def test_reload_endpoint(served_model, served_archive, served_archive_v2):
    engine = InferenceEngine(served_model,
                             ServeConfig(max_wait_ms=1.0, port=0))
    srv = ServingServer(engine, model_name="reload-test")
    srv.start_background()
    try:
        status, body = _json(srv, "/v1/score", {"activities": [1, 2]})
        assert status == 200 and body["generation"] == 0
        status, body = _json(srv, "/v1/reload",
                             {"model": str(served_archive_v2)})
        assert status == 200
        assert body["generation"] == 1
        status, body = _json(srv, "/v1/score", {"activities": [1, 2]})
        assert status == 200 and body["generation"] == 1
        # Bad paths and bodies come back as envelopes, not 500 soup.
        status, body = _json(srv, "/v1/reload", {"model": "/no/such.npz"})
        assert status == 404
        assert body["error"]["code"] == "model_not_found"
        status, body = _json(srv, "/v1/reload", {"nope": 1})
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
    finally:
        srv.shutdown()


def test_tenant_rate_limit_isolation(served_model):
    """One throttled tenant 429s while another keeps scoring."""
    engine = InferenceEngine(
        served_model,
        ServeConfig(max_wait_ms=1.0, port=0,
                    rate_limit_rps=0.001, rate_limit_burst=3.0))
    srv = ServingServer(engine, model_name="rl-test")
    srv.start_background()
    try:
        def score_as(tenant):
            url = f"http://127.0.0.1:{srv.port}/v1/score"
            req = urllib.request.Request(
                url, data=json.dumps({"activities": [1]}).encode(),
                headers={"X-Tenant": tenant})
            try:
                with urllib.request.urlopen(req, timeout=30) as resp:
                    return resp.status, json.loads(resp.read())
            except urllib.error.HTTPError as exc:
                return exc.code, json.loads(exc.read())

        outcomes = [score_as("noisy")[0] for _ in range(6)]
        assert outcomes.count(200) == 3  # burst, then throttled
        assert outcomes.count(429) == 3
        status, body = score_as("noisy")
        assert status == 429
        assert body["error"]["code"] == "rate_limited"
        assert body["error"]["details"]["tenant"] == "noisy"
        # The quiet tenant's bucket is untouched.
        for _ in range(3):
            status, _ = score_as("quiet")
            assert status == 200
        snap = engine.metrics_snapshot()
        assert snap["rate_limiter"]["noisy"]["limited_total"] >= 4
        assert snap["rate_limiter"]["quiet"]["limited_total"] == 0
    finally:
        srv.shutdown()


def test_shutdown_drains_in_flight_futures(served_model, monkeypatch):
    """Regression: shutdown() must resolve queued scoring futures.

    The old order stopped the HTTP loop and left the batcher running;
    handler threads blocked on futures were abandoned at process exit.
    Now the engine drains first, so every submitted future is done by
    the time shutdown() returns.
    """
    engine = InferenceEngine(
        served_model, ServeConfig(max_batch=2, max_wait_ms=50.0, port=0))
    srv = ServingServer(engine, model_name="drain-test")
    srv.start_background()

    real_predict = engine.model.predict

    def slow_predict(dataset, **kwargs):
        time.sleep(0.05)
        return real_predict(dataset, **kwargs)

    monkeypatch.setattr(engine.model, "predict", slow_predict)
    futures = [engine.submit({"activities": [1, 2], "session_id": f"d{i}"})
               for i in range(8)]
    srv.shutdown()
    assert all(f.done() for f in futures)
    results = [f.result(timeout=0) for f in futures]
    assert [r.session_id for r in results] == [f"d{i}" for i in range(8)]

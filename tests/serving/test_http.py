"""HTTP front end: routes, JSON shapes, admission responses, errors."""

from __future__ import annotations

import gc
import http.client
import json
import socket
import time
import urllib.error
import urllib.request
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.dataplane import IterableSource, Pipeline, RegistrySink
from repro.serving import http as serving_http
from repro.serving import (
    AdmissionController,
    SketchRegistry,
    TenantPolicy,
    serve_in_thread,
)


def get(url, tenant=None):
    request = urllib.request.Request(url)
    if tenant:
        request.add_header("X-Tenant", tenant)
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def post(url, payload, tenant=None):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    if tenant:
        request.add_header("X-Tenant", tenant)
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def error_of(callable_):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        callable_()
    err = excinfo.value
    return err.code, json.loads(err.read()), dict(err.headers)


@pytest.fixture(scope="module")
def service():
    registry = SketchRegistry(buckets=512, rows=5, seed=42)
    registry.register_stream("a", 10_000)
    registry.register_stream("b", 8_000)
    rng = np.random.default_rng(1)
    registry.ingest("a", rng.integers(0, 1000, size=5000))
    registry.ingest("b", rng.integers(500, 1500, size=4000))
    with serve_in_thread(registry) as handle:
        yield registry, handle


class TestRoutes:
    def test_healthz(self, service):
        _, handle = service
        status, payload = get(f"{handle.url}/healthz")
        assert status == 200
        assert payload == {"status": "ok", "streams": ["a", "b"]}

    def test_streams_listing(self, service):
        registry, handle = service
        _, payload = get(f"{handle.url}/v1/streams")
        assert payload["streams"]["a"]["scanned"] == 5000
        assert payload["streams"]["a"]["total"] == 10_000
        assert payload["streams"]["a"]["generation"] == (
            registry.snapshot("a").generation
        )

    def test_self_join_matches_in_process_query(self, service):
        registry, handle = service
        status, payload = get(f"{handle.url}/v1/query/self_join?stream=a")
        assert status == 200
        result = registry.self_join_query("a")
        assert payload["op"] == "self_join"
        assert payload["estimate"] == result.estimate
        assert payload["variance_bound"] == result.variance_bound
        assert payload["interval"]["low"] == result.interval.low
        assert payload["interval"]["method"] == "chebyshev"

    def test_point_with_clt_interval(self, service):
        registry, handle = service
        _, payload = get(
            f"{handle.url}/v1/query/point?stream=a&key=7&method=clt"
        )
        assert payload["estimate"] == registry.point_query("a", 7).estimate
        assert payload["interval"]["method"] == "clt"

    def test_join_carries_both_streams_provenance(self, service):
        _, handle = service
        _, payload = get(f"{handle.url}/v1/query/join?left=a&right=b")
        assert set(payload["streams"]) == {"a", "b"}
        meta = payload["streams"]["b"]
        assert meta["scanned"] == 4000
        assert meta["fraction"] == 0.5
        assert meta["staleness_seconds"] >= 0.0

    def test_expression_post(self, service):
        registry, handle = service
        status, payload = post(
            f"{handle.url}/v1/query/expression",
            {"op": "union", "streams": ["a", "b"]},
        )
        assert status == 200
        assert payload["op"] == "union"
        assert payload["estimate"] == (
            registry.expression_query("union", ["a", "b"]).estimate
        )

    def test_tenant_header_is_echoed(self, service):
        _, handle = service
        _, payload = get(
            f"{handle.url}/v1/query/self_join?stream=a", tenant="acme"
        )
        assert payload["tenant"] == "acme"


class TestErrors:
    def test_unknown_route_is_404(self, service):
        _, handle = service
        code, payload, _ = error_of(lambda: get(f"{handle.url}/nope"))
        assert code == 404
        assert "error" in payload

    def test_unknown_stream_is_400(self, service):
        _, handle = service
        code, payload, _ = error_of(
            lambda: get(f"{handle.url}/v1/query/self_join?stream=zzz")
        )
        assert code == 400
        assert "zzz" in payload["error"]

    def test_missing_parameter_is_400(self, service):
        _, handle = service
        code, _, _ = error_of(lambda: get(f"{handle.url}/v1/query/point?stream=a"))
        assert code == 400

    def test_non_integer_key_is_400(self, service):
        _, handle = service
        code, payload, _ = error_of(
            lambda: get(f"{handle.url}/v1/query/point?stream=a&key=x")
        )
        assert code == 400
        assert "integer" in payload["error"]

    def test_expression_get_is_405(self, service):
        _, handle = service
        code, _, _ = error_of(
            lambda: get(f"{handle.url}/v1/query/expression")
        )
        assert code == 405

    def test_bad_expression_body_is_400(self, service):
        _, handle = service
        code, _, _ = error_of(
            lambda: post(f"{handle.url}/v1/query/expression", {"op": "union"})
        )
        assert code == 400

    def test_unknown_interval_method_is_400(self, service):
        _, handle = service
        code, _, _ = error_of(
            lambda: get(
                f"{handle.url}/v1/query/self_join?stream=a&method=bootstrap"
            )
        )
        assert code == 400


class TestBoundaryInputs:
    """Malformed inputs get a JSON 400 and leave keep-alive usable."""

    @pytest.mark.parametrize(
        ("method", "target", "body"),
        [
            ("GET", "/v1/query/point?stream=a&key=-1", None),
            ("GET", "/v1/query/point?stream=a&key=3000000000", None),
            ("GET", "/v1/query/point?stream=a&key=99999999999999999999999", None),
            ("POST", "/v1/query/expression", b"[1, 2]"),
            ("POST", "/v1/query/expression", b'"str"'),
            (
                "POST",
                "/v1/query/expression",
                b'{"op": "union", "streams": [["a"], "b"]}',
            ),
        ],
        ids=[
            "negative-key",
            "key-beyond-hash-domain",
            "key-beyond-int64",
            "expression-body-list",
            "expression-body-string",
            "expression-non-string-stream",
        ],
    )
    def test_bad_input_is_json_400_on_a_live_connection(
        self, service, method, target, body
    ):
        _, handle = service
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
        try:
            conn.request(method, target, body=body)
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert response.getheader("Connection") == "keep-alive"
            assert payload["error"]
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            conn.close()

    @pytest.mark.parametrize(
        ("length", "status"),
        [(b"-5", 400), (b"abc", 400), (b"70000", 413)],
        ids=["negative", "non-numeric", "over-limit"],
    )
    def test_bad_content_length_is_answered_then_closed(
        self, service, length, status
    ):
        _, handle = service
        request = (
            b"POST /v1/query/expression HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: " + length + b"\r\n\r\n"
        )
        with socket.create_connection((handle.host, handle.port), 10) as sock:
            sock.sendall(request)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        assert status_line.split(" ", 2)[1] == str(status)
        assert "Connection: close" in header_lines
        assert json.loads(body)["error"]
        # The server is still up for the next client.
        assert get(f"{handle.url}/healthz")[0] == 200

    def test_stalled_request_is_408_then_closed(self, service, monkeypatch):
        _, handle = service
        # raising=False: without a deadline the read below times out.
        monkeypatch.setattr(
            serving_http, "_READ_DEADLINE_S", 0.2, raising=False
        )
        with socket.create_connection((handle.host, handle.port), 10) as sock:
            sock.settimeout(5.0)
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x")  # and stop
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        assert status_line.split(" ", 2)[1] == "408"
        assert "Connection: close" in header_lines
        assert json.loads(body)["error"]
        # A new connection is served as usual.
        assert get(f"{handle.url}/healthz")[0] == 200


class TestAdmission:
    def test_quota_shed_returns_429_with_retry_after(self):
        registry = SketchRegistry(buckets=128, seed=3)
        registry.register_stream("s", 100)
        registry.ingest("s", np.arange(50))
        admission = AdmissionController(
            {"acme": TenantPolicy(qps=1.0, burst=1.0)}
        )
        with serve_in_thread(registry, admission=admission) as handle:
            status, _ = get(
                f"{handle.url}/v1/query/self_join?stream=s", tenant="acme"
            )
            assert status == 200
            code, payload, headers = error_of(
                lambda: get(
                    f"{handle.url}/v1/query/self_join?stream=s", tenant="acme"
                )
            )
            assert code == 429
            assert "quota" in payload["error"]
            assert float(headers["Retry-After"]) > 0
            # Other tenants are not affected by acme's quota.
            status, _ = get(
                f"{handle.url}/v1/query/self_join?stream=s", tenant="other"
            )
            assert status == 200

    def test_health_checks_bypass_admission(self):
        registry = SketchRegistry(buckets=128, seed=3)
        registry.register_stream("s", 100)
        admission = AdmissionController(
            default_policy=TenantPolicy(qps=0.001)
        )
        with serve_in_thread(registry, admission=admission) as handle:
            for _ in range(3):
                status, _ = get(f"{handle.url}/healthz")
                assert status == 200


class TestLifecycle:
    def test_stop_frees_the_port(self):
        registry = SketchRegistry(buckets=64, seed=1)
        registry.register_stream("s", 10)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            handle = serve_in_thread(registry)
            url = handle.url
            get(f"{url}/healthz")
            handle.stop()
            del handle
            gc.collect()
        # stop() closed the listener; the garbage collector found none.
        leaks = [w for w in caught if w.category is ResourceWarning]
        assert [str(w.message) for w in leaks] == []
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            get(f"{url}/healthz")

    def test_queries_while_ingesting(self):
        registry = SketchRegistry(buckets=256, rows=3, seed=5)
        registry.register_stream("live", 20_000)
        chunks = np.array_split(
            np.random.default_rng(8).integers(0, 500, size=20_000), 100
        )
        pipeline = Pipeline(
            IterableSource(chunks),
            sinks=[RegistrySink(registry, "live")],
            queue_depth=0,
        )
        seen = []
        with serve_in_thread(registry) as handle, ThreadPoolExecutor(1) as pool:
            ingest = pool.submit(pipeline.run)
            # Poll until the last generation is served, the ingest ends or
            # the deadline passes; after the ingest ends, one more query
            # reads its final snapshot.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                finished = ingest.done()
                try:
                    _, payload = get(
                        f"{handle.url}/v1/query/self_join?stream=live"
                    )
                    seen.append(payload["streams"]["live"]["generation"])
                except urllib.error.HTTPError:
                    pass  # early snapshots may be too short to estimate
                if finished or (seen and seen[-1] >= 100):
                    break
            ingest.result()  # re-raises an ingest failure here
        assert seen and seen[-1] == 100
        assert seen == sorted(seen)  # served generations are monotone

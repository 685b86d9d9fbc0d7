"""Stdlib-asyncio HTTP/JSON front end for a :class:`SketchRegistry`.

A deliberately small HTTP/1.1 server on ``asyncio`` streams — no
framework, no new dependencies.  Connections are persistent by default
(HTTP/1.1 keep-alive): a dashboard polling every few milliseconds costs
one accepted socket and one long-lived reader task, not a TCP handshake
and task spawn per query — which is what keeps the serving tax on the
ingest thread inside the benchmark gate.  A request carrying
``Connection: close`` (or a client hanging up) ends the connection, and
so does a request that is not read in full within
``_READ_DEADLINE_S`` seconds: it gets ``408`` and ``Connection: close``.

Routes
------

========  =============================  =======================================
method    path                           query / body
========  =============================  =======================================
GET       ``/healthz``                   —
GET       ``/v1/streams``                —
GET       ``/v1/query/point``            ``stream=``, ``key=`` [``confidence=``,
                                         ``method=``]
GET       ``/v1/query/self_join``        ``stream=`` [``confidence=``, ``method=``]
GET       ``/v1/query/join``             ``left=``, ``right=`` [...]
POST      ``/v1/query/expression``       JSON ``{"op": ..., "streams": [...]}``
========  =============================  =======================================

Every query answer carries the estimate, its confidence interval, the
variance bound behind it, and per-stream snapshot provenance
(generation, scanned/total, staleness).  The tenant is the ``X-Tenant``
header (``"anonymous"`` when absent); shed queries get ``429`` with a
``Retry-After`` header.  Estimate evaluation runs inline in the event
loop — it is pure in-memory numpy over frozen snapshot counters, never
a blocking wait (enforced for this package by analysis rule REP012).

:func:`serve_in_thread` runs the server on a daemon thread with its own
event loop and returns a handle exposing the bound URL and a ``stop()``
— the pattern the tests, the demo, and the benchmark all use.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from ..errors import ConfigurationError, DomainError, EstimationError, ReproError
from ..observability.observer import Observer, as_observer
from ..variance.bounds import ConfidenceInterval
from .admission import AdmissionController
from .registry import QueryResult, SketchRegistry

__all__ = ["ServerHandle", "serve_in_thread"]

_MAX_HEADER_BYTES = 16384
_MAX_BODY_BYTES = 65536
#: Seconds a connection may take to deliver one whole request (head and
#: body, idle keep-alive time included) before it is answered 408.
_READ_DEADLINE_S = 30.0


# ----------------------------------------------------------------------
# JSON shaping
# ----------------------------------------------------------------------


def _interval_json(interval: ConfidenceInterval) -> dict:
    return {
        "low": interval.low,
        "high": interval.high,
        "confidence": interval.confidence,
        "method": interval.method,
    }


def _result_json(result: QueryResult, tenant: str) -> dict:
    return {
        "op": result.op,
        "estimate": result.estimate,
        "interval": _interval_json(result.interval),
        "variance_bound": result.variance_bound,
        "streams": {
            meta.name: {
                "generation": meta.generation,
                "scanned": meta.scanned,
                "total": meta.total,
                "fraction": meta.fraction,
                "staleness_seconds": meta.staleness_seconds,
            }
            for meta in result.streams
        },
        "tenant": tenant,
    }


class _HttpError(Exception):
    """A handled request failure carrying its HTTP status."""

    def __init__(self, status: int, message: str, retry_after: float = 0.0):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class _QueryServer:
    """Request router bound to one registry + admission controller."""

    def __init__(
        self,
        registry: SketchRegistry,
        admission: Optional[AdmissionController],
        observer: Observer,
    ) -> None:
        self.registry = registry
        self.admission = admission
        self.observer = observer

    # -- parameter helpers ------------------------------------------------

    @staticmethod
    def _one(params: dict, name: str) -> str:
        values = params.get(name)
        if not values:
            raise _HttpError(400, f"missing query parameter {name!r}")
        return values[0]

    @staticmethod
    def _interval_args(params: dict) -> tuple[float, str]:
        try:
            confidence = float(params.get("confidence", ["0.95"])[0])
        except ValueError:
            raise _HttpError(400, "confidence must be a number") from None
        method = params.get("method", ["chebyshev"])[0]
        return confidence, method

    # -- route handlers (synchronous: pure in-memory evaluation) ----------

    def handle(self, method: str, path: str, params: dict, body: bytes, tenant: str) -> dict:
        if path == "/healthz":
            return {"status": "ok", "streams": list(self.registry.streams)}
        if path == "/v1/streams":
            return self._streams()
        if path.startswith("/v1/query/"):
            return self._query(method, path, params, body, tenant)
        raise _HttpError(404, f"no route for {path}")

    def _streams(self) -> dict:
        out = {}
        for name in self.registry.streams:
            snapshot = self.registry.snapshot(name)
            relation = snapshot.relation(name)
            out[name] = {
                "generation": snapshot.generation,
                "scanned": relation.scanned,
                "total": relation.total_tuples,
                "fraction": relation.fraction,
            }
        return {"streams": out}

    def _query(self, method: str, path: str, params: dict, body: bytes, tenant: str) -> dict:
        if self.admission is not None:
            decision = self.admission.admit(tenant)
            if not decision.admitted:
                raise _HttpError(
                    429,
                    f"query shed ({decision.reason})",
                    retry_after=decision.retry_after,
                )
        kind = path[len("/v1/query/") :]
        confidence, interval_method = self._interval_args(params)
        started = self.observer.clock()
        try:
            if kind == "point":
                try:
                    key = int(self._one(params, "key"))
                except ValueError:
                    raise _HttpError(400, "key must be an integer") from None
                result = self.registry.point_query(
                    self._one(params, "stream"),
                    key,
                    confidence,
                    method=interval_method,
                )
            elif kind == "self_join":
                result = self.registry.self_join_query(
                    self._one(params, "stream"),
                    confidence,
                    method=interval_method,
                )
            elif kind == "join":
                result = self.registry.join_query(
                    self._one(params, "left"),
                    self._one(params, "right"),
                    confidence,
                    method=interval_method,
                )
            elif kind == "expression":
                if method != "POST":
                    raise _HttpError(405, "expression queries are POST")
                result = self._expression(body, confidence, interval_method)
            else:
                raise _HttpError(404, f"unknown query kind {kind!r}")
        except _HttpError:
            raise
        except (ConfigurationError, DomainError, EstimationError) as exc:
            raise _HttpError(400, str(exc)) from None
        except ReproError as exc:
            raise _HttpError(500, str(exc)) from None
        finally:
            if self.admission is not None:
                self.admission.observe(self.observer.clock() - started)
        return _result_json(result, tenant)

    def _expression(
        self, body: bytes, confidence: float, interval_method: str
    ) -> QueryResult:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise _HttpError(400, "expression body must be JSON") from None
        shape = 'expression body needs {"op": str, "streams": [names]}'
        if not isinstance(payload, dict):
            raise _HttpError(400, shape)
        op = payload.get("op")
        streams = payload.get("streams")
        if (
            not isinstance(op, str)
            or not isinstance(streams, list)
            or not all(isinstance(name, str) for name in streams)
        ):
            raise _HttpError(400, shape)
        return self.registry.expression_query(
            op, streams, confidence, method=interval_method
        )

    # -- connection handling ----------------------------------------------

    async def serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests on one connection until it closes.

        HTTP/1.1 keep-alive: the loop reads request after request off
        the same socket, ending on EOF, garbage framing, an explicit
        ``Connection: close``, or a read that overruns its deadline.
        Per-request metrics land inside the loop so a long-lived
        dashboard connection still counts every query it makes.
        """
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        expired = False

        def expire() -> None:
            nonlocal expired
            expired = True
            task.cancel()

        try:
            keep_alive = True
            while keep_alive:
                # One timer per request, not asyncio.wait_for: before
                # Python 3.12 that spawns a task per call.
                deadline = loop.call_later(_READ_DEADLINE_S, expire)
                try:
                    method, target, headers, body = await self._read_request(
                        reader
                    )
                except asyncio.CancelledError:
                    if not expired:
                        raise  # the server is shutting down
                    self._respond(
                        writer, 408, {"error": "request not received in time"}
                    )
                    break
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    asyncio.LimitOverrunError,
                ):
                    # Client went away or sent garbage framing.
                    break
                except _HttpError as exc:
                    # A bad or oversized Content-Length: the body's extent
                    # is unknown, so answer without reading it and close
                    # (closing flushes the answer).
                    self._respond(writer, exc.status, {"error": exc.message})
                    break
                finally:
                    deadline.cancel()
                keep_alive = headers.get("connection", "").lower() != "close"
                status = 500
                parts = urlsplit(target)
                params = parse_qs(parts.query)
                tenant = headers.get("x-tenant", "anonymous")
                op = parts.path
                started = self.observer.clock()
                try:
                    with self.observer.span(
                        "serving.request", path=parts.path, tenant=tenant
                    ):
                        try:
                            payload = self.handle(
                                method, parts.path, params, body, tenant
                            )
                            status = 200
                            self._respond(
                                writer, 200, payload, keep_alive=keep_alive
                            )
                        except _HttpError as exc:
                            status = exc.status
                            extra = (
                                {"Retry-After": f"{exc.retry_after:.3f}"}
                                if exc.status == 429
                                else None
                            )
                            self._respond(
                                writer,
                                exc.status,
                                {"error": exc.message},
                                extra_headers=extra,
                                keep_alive=keep_alive,
                            )
                    await writer.drain()
                except (ConnectionError, asyncio.CancelledError):
                    break
                finally:
                    self.observer.counter(
                        "serving.requests", tenant=tenant, status=str(status)
                    ).inc()
                    self.observer.histogram(
                        "serving.request.seconds", path=op
                    ).observe(self.observer.clock() - started)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict, bytes]:
        head = await reader.readuntil(b"\r\n\r\n")
        if len(head) > _MAX_HEADER_BYTES:
            raise asyncio.LimitOverrunError("header too large", len(head))
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            raise asyncio.IncompleteReadError(head, None) from None
        headers = {}
        for line in header_lines:
            if ":" in line:
                key, value = line.split(":", 1)
                headers[key.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _HttpError(400, f"bad Content-Length {raw_length!r}")
        length = int(raw_length)
        if length > _MAX_BODY_BYTES:
            raise _HttpError(
                413, f"body of {length} bytes exceeds {_MAX_BODY_BYTES}"
            )
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    @staticmethod
    def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        extra_headers: Optional[dict] = None,
        keep_alive: bool = False,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for key, value in (extra_headers or {}).items():
            lines.append(f"{key}: {value}")
        writer.write("\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body)


# ----------------------------------------------------------------------
# Threaded front end
# ----------------------------------------------------------------------


class ServerHandle:
    """A running query server: its bound address and a ``stop()``."""

    def __init__(self, host: str, port: int, loop, thread) -> None:
        self.host = host
        self.port = port
        self._loop = loop
        self._thread = thread

    @property
    def url(self) -> str:
        """Base URL of the server (no trailing slash)."""
        return f"http://{self.host}:{self.port}"

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the event loop and join the server thread.

        The thread closes the listening socket and every open connection
        before it ends.
        """
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_thread(
    registry: SketchRegistry,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    admission: Optional[AdmissionController] = None,
    observer: Optional[Observer] = None,
) -> ServerHandle:
    """Start the query server on a daemon thread; returns its handle.

    ``port=0`` binds an ephemeral port (read it off the handle).  The
    registry keeps ingesting on its own threads; the server only ever
    reads published snapshots, so starting or stopping it never perturbs
    ingestion.  *observer* defaults to the registry's.
    """
    obs = registry.observer if observer is None else as_observer(observer)
    server = _QueryServer(registry, admission, obs)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    bound: dict = {}

    def _run() -> None:
        asyncio.set_event_loop(loop)
        listener = loop.run_until_complete(
            asyncio.start_server(server.serve_connection, host, port)
        )
        bound["port"] = listener.sockets[0].getsockname()[1]
        started.set()
        try:
            loop.run_forever()
        finally:
            listener.close()
            # Let cancelled handlers unwind before dropping the loop.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(listener.wait_closed())
            loop.close()

    thread = threading.Thread(target=_run, name="serving-http", daemon=True)
    thread.start()
    if not started.wait(10.0):
        raise ConfigurationError(f"query server failed to bind {host}:{port}")
    return ServerHandle(host, bound["port"], loop, thread)

"""Stdlib HTTP/JSON front end for the experiment scheduler.

A :class:`ThreadingHTTPServer` (one thread per connection, no runtime
dependencies) whose handler delegates every route to
:class:`ExperimentApi` — a transport-free request router that unit tests
drive directly, without a socket. Endpoints, all under ``/api/v1``:

=======  ==============================  =======================================
POST     ``/jobs``                       submit a request document -> job id
GET      ``/jobs``                       audit: job history + cache (``?state=``)
GET      ``/jobs/<id>``                  status/progress (points, cache hits)
GET      ``/jobs/<id>/progress``         live counts, throughput, ETA
GET      ``/jobs/<id>/profile``          aggregated per-phase sweep profile
GET      ``/jobs/<id>/ledger``           run-ledger export (``?deterministic=1``)
GET      ``/jobs/<id>/result``           JSON metrics + release provenance
GET      ``/jobs/<id>/result.npz``       byte-deterministic npz release export
GET      ``/jobs/<id>/trace?point=N``    NDJSON per-window telemetry/control
GET      ``/jobs/<id>/spans``            span trace captured while the job ran
GET      ``/metrics``                    process metrics registry snapshot
GET      ``/health``                     liveness + uptime/queue/cache gauges
=======  ==============================  =======================================

One route lives *outside* the prefix: ``GET /metrics`` at the server
root serves the registry in Prometheus text exposition format (0.0.4)
for standard scrapers — the JSON form stays at ``/api/v1/metrics``.
Metric history, rates and alert rules belong to the scraper.

A submit request may carry a ``traceparent`` header (W3C-style,
``00-<span id>-01``); the job's ``service.job`` span adopts that id as
its parent, so a tracing client can later merge the job's span records
(``/jobs/<id>/spans?format=records``) into its own trace as one tree.

Error bodies are structured (``{"error": {"code", "message", "path"}}``)
at every layer: schema violations are 400s, unknown jobs 404s, fetching
an unfinished job 409s. The trace endpoint streams newline-delimited
JSON rows as they serialize instead of buffering the document.

Every request is counted into the :mod:`repro.obs.metrics` registry
(total, by normalized route, by status class) and logged as a structured
access line (method, route, status, duration ms) through the
``repro.service.http`` logger — configure with ``repro serve
--log-level/--log-json``.
"""

from __future__ import annotations

import json
import pathlib
import signal
import threading
import time
from collections.abc import Iterator
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.obs.logs import fields, get_logger, setup_logging
from repro.obs.metrics import counter, histogram
from repro.obs.metrics import snapshot as metrics_snapshot
from repro.obs.promexp import CONTENT_TYPE as PROM_CONTENT_TYPE
from repro.obs.promexp import render_prometheus
from repro.obs.trace import TRACEPARENT_HEADER, export_trace, parse_traceparent
from repro.service.scheduler import (
    ExperimentScheduler,
    JobNotDone,
    JobNotFound,
)
from repro.service.schema import REQUEST_VERSION, SchemaError

__all__ = ["ExperimentApi", "ApiResponse", "make_server", "serve"]

API_PREFIX = "/api/v1"
_MAX_BODY = 64 * 1024 * 1024

_http_log = get_logger("service.http")
_REQUESTS = counter("http.requests")
_REQUEST_MS = histogram("http.request_ms")


def _route_label(method: str, path: str) -> str:
    """Normalize a request path to a low-cardinality route label.

    Job ids collapse to ``<id>`` so per-route counters stay bounded no
    matter how many jobs a long-lived service accumulates.
    """
    if not path.startswith(API_PREFIX):
        return f"{method} (outside-api)"
    route = path[len(API_PREFIX):] or "/"
    parts = [p for p in route.split("/") if p]
    if parts and parts[0] == "jobs" and len(parts) > 1:
        parts[1] = "<id>"
    return f"{method} /" + "/".join(parts)


class ApiResponse:
    """One routed response: status, content type, body or row stream."""

    def __init__(
        self,
        status: int,
        *,
        body: bytes = b"",
        content_type: str = "application/json",
        stream: Iterator[bytes] | None = None,
    ) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.stream = stream

    @classmethod
    def json(cls, status: int, payload: Any) -> "ApiResponse":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        return cls(status, body=text.encode("utf-8"))

    @classmethod
    def error(
        cls, status: int, code: str, message: str, path: list[Any] | None = None
    ) -> "ApiResponse":
        return cls.json(
            status,
            {"error": {"code": code, "message": message, "path": path or []}},
        )


class ExperimentApi:
    """Transport-free router mapping (method, path) onto the scheduler."""

    def __init__(self, scheduler: ExperimentScheduler) -> None:
        self.scheduler = scheduler

    # -- dispatch ------------------------------------------------------------

    def handle(
        self,
        method: str,
        target: str,
        body: bytes = b"",
        headers: Any | None = None,
    ) -> ApiResponse:
        """Route one request, timing and counting it into the registry.

        ``headers`` is any case-insensitive mapping with ``.get`` (the
        stdlib handler passes its message object; transport-free tests
        pass a plain dict with lowercase keys or nothing).
        """
        start = time.perf_counter()
        response = self._handle(method, target, body, headers)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        label = _route_label(method, urlsplit(target).path.rstrip("/") or "/")
        _REQUESTS.inc()
        counter(f"http.requests.route.{label}").inc()
        counter(f"http.requests.status.{response.status}").inc()
        _REQUEST_MS.observe(elapsed_ms)
        return response

    def _handle(
        self, method: str, target: str, body: bytes, headers: Any | None = None
    ) -> ApiResponse:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        if path == "/metrics" and method == "GET":
            # Prometheus text exposition lives at the server root, where
            # scrapers expect it; the JSON snapshot stays under the API.
            return ApiResponse(
                200,
                body=render_prometheus(metrics_snapshot()).encode("utf-8"),
                content_type=PROM_CONTENT_TYPE,
            )
        if not path.startswith(API_PREFIX):
            return ApiResponse.error(
                404, "not_found", f"unknown path {path!r} (try {API_PREFIX}/health)"
            )
        route = path[len(API_PREFIX):] or "/"
        try:
            return self._route(method, route, query, body, headers)
        except SchemaError as exc:
            return ApiResponse.json(400, exc.to_json())
        except JobNotFound as exc:
            return ApiResponse.error(
                404, "not_found", f"no such job {exc.job_id!r}"
            )
        except JobNotDone as exc:
            return ApiResponse.error(
                409,
                "job_failed" if exc.record.state == "failed" else "job_not_done",
                str(exc),
            )
        except ValueError as exc:
            return ApiResponse.error(400, "invalid", str(exc))

    def _route(
        self,
        method: str,
        route: str,
        query: dict[str, list[str]],
        body: bytes,
        headers: Any | None = None,
    ) -> ApiResponse:
        if route == "/health":
            sched = self.scheduler
            return ApiResponse.json(
                200,
                {
                    "ok": True,
                    "api_version": REQUEST_VERSION,
                    "uptime_s": round(sched.uptime_s(), 3),
                    "queue_depth": sched.queue_depth(),
                    "jobs_by_state": sched.jobs_by_state(),
                    "cache_entries": len(sched.cache),
                },
            )
        if route == "/metrics":
            return ApiResponse.json(
                200,
                {
                    "metrics": metrics_snapshot(),
                    "cache": self.scheduler.cache_stats(),
                },
            )
        if route == "/jobs":
            if method == "POST":
                return self._submit(body, headers)
            if method == "GET":
                return self._audit(query)
            return ApiResponse.error(405, "method_not_allowed", f"{method} /jobs")
        if route.startswith("/jobs/"):
            parts = route[len("/jobs/"):].split("/")
            if method != "GET":
                return ApiResponse.error(
                    405, "method_not_allowed", f"{method} {route}"
                )
            job_id = parts[0]
            rest = parts[1:]
            if not rest:
                return ApiResponse.json(
                    200, self.scheduler.job(job_id).status_json()
                )
            if rest == ["progress"]:
                return ApiResponse.json(
                    200, self.scheduler.progress_json(job_id)
                )
            if rest == ["profile"]:
                deterministic = query.get("deterministic", ["0"])[-1] not in (
                    "0",
                    "",
                )
                return ApiResponse.json(
                    200,
                    self.scheduler.profile_json(
                        job_id, deterministic=deterministic
                    ),
                )
            if rest == ["ledger"]:
                return self._ledger(job_id, query)
            if rest == ["result"]:
                return self._result(job_id)
            if rest == ["result.npz"]:
                release = self.scheduler.release(job_id)
                return ApiResponse(
                    200,
                    body=release.read_bytes(),
                    content_type="application/octet-stream",
                )
            if rest == ["trace"]:
                return self._trace(job_id, query)
            if rest == ["spans"]:
                return self._spans(job_id, query)
        return ApiResponse.error(404, "not_found", f"unknown route {route!r}")

    # -- endpoint bodies -----------------------------------------------------

    def _submit(self, body: bytes, headers: Any | None = None) -> ApiResponse:
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return ApiResponse.error(
                400, "invalid_json", f"request body is not valid JSON: {exc}"
            )
        trace_parent = None
        if headers is not None:
            trace_parent = parse_traceparent(headers.get(TRACEPARENT_HEADER))
        record = self.scheduler.submit(doc, trace_parent=trace_parent)
        return ApiResponse.json(202, {"job": record.status_json()})

    def _audit(self, query: dict[str, list[str]]) -> ApiResponse:
        state = query.get("state", [None])[-1]
        return ApiResponse.json(
            200,
            {
                "jobs": self.scheduler.audit_json(state),
                "cache": self.scheduler.cache_stats(),
            },
        )

    def _ledger(self, job_id: str, query: dict[str, list[str]]) -> ApiResponse:
        """The job's run-ledger export (``?deterministic=1`` canonical)."""
        from repro.obs.ledger import export_ledger

        deterministic = query.get("deterministic", ["0"])[-1] not in ("0", "")
        events = self.scheduler.ledger_events(job_id)
        doc = export_ledger(events, deterministic=deterministic)
        doc["job_id"] = job_id
        return ApiResponse.json(200, doc)

    def _result(self, job_id: str) -> ApiResponse:
        record = self.scheduler.job(job_id)
        metrics = self.scheduler.result_metrics(job_id)
        release = self.scheduler.release(job_id)
        return ApiResponse.json(
            200,
            {
                "job_id": record.job_id,
                "n_points": record.n_points,
                "cache_hits": record.cache_hits,
                "duration_s": record.duration_s,
                "release": release.to_json(),
                "spec_hashes": record.spec_hashes,
                "metrics": metrics,
            },
        )

    def _spans(self, job_id: str, query: dict[str, list[str]]) -> ApiResponse:
        """The span trace captured while ``job_id`` executed.

        ``?deterministic=1`` strips timing/pid fields, leaving only
        names, nesting and attributes (byte-stable for identical runs).
        ``?format=records`` returns the raw span records instead — ids
        and parent links intact, so a tracing client can merge them into
        its own trace (the export form renumbers ids, which would sever
        the join to the client's submit span).
        """
        spans = self.scheduler.job_spans(job_id)
        if query.get("format", [""])[-1] == "records":
            return ApiResponse.json(
                200,
                {
                    "job_id": job_id,
                    "n_spans": len(spans),
                    "spans": [s.to_json() for s in spans],
                },
            )
        deterministic = query.get("deterministic", ["0"])[-1] not in ("0", "")
        doc = export_trace(spans, deterministic=deterministic)
        doc["job_id"] = job_id
        return ApiResponse.json(200, doc)

    def _trace(self, job_id: str, query: dict[str, list[str]]) -> ApiResponse:
        raw = query.get("point", ["0"])[-1]
        try:
            point = int(raw)
        except ValueError:
            return ApiResponse.error(
                400, "invalid", f"point must be an integer, got {raw!r}"
            )
        rows = self.scheduler.trace_rows(job_id, point)

        def ndjson() -> Iterator[bytes]:
            for row in rows:
                yield (json.dumps(row, sort_keys=True) + "\n").encode("utf-8")

        return ApiResponse(
            200, content_type="application/x-ndjson", stream=ndjson()
        )


class _Handler(BaseHTTPRequestHandler):
    """Thin transport shim: read body, route, write the response."""

    server: "ExperimentServer"
    server_version = "repro-service/1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        # BaseHTTPRequestHandler's default per-line stderr chatter is
        # replaced by the structured access line in _dispatch; anything
        # arriving here (protocol errors) routes through the logger too.
        _http_log.debug(format % args if args else format)

    def _respond(self, response: ApiResponse) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        if response.stream is None:
            self.send_header("Content-Length", str(len(response.body)))
            self.end_headers()
            self.wfile.write(response.body)
        else:
            # Row-at-a-time write; HTTP/1.0 close-delimited framing.
            self.send_header("Connection", "close")
            self.end_headers()
            for chunk in response.stream:
                self.wfile.write(chunk)
                self.wfile.flush()

    def _dispatch(self, method: str) -> None:
        start = time.perf_counter()
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY:
            self._respond(
                ApiResponse.error(
                    413, "too_large", f"request body exceeds {_MAX_BODY} bytes"
                )
            )
            return
        body = self.rfile.read(length) if length else b""
        try:
            response = self.server.api.handle(
                method, self.path, body, headers=self.headers
            )
        except Exception as exc:  # never let a handler thread die silently
            response = ApiResponse.error(
                500, "internal", f"{type(exc).__name__}: {exc}"
            )
        self._respond(response)
        _http_log.info(
            "request",
            extra=fields(
                method=method,
                route=_route_label(method, urlsplit(self.path).path),
                path=self.path,
                status=response.status,
                duration_ms=round((time.perf_counter() - start) * 1e3, 3),
            ),
        )

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")


class ExperimentServer(ThreadingHTTPServer):
    """ThreadingHTTPServer owning an API router + scheduler."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        scheduler: ExperimentScheduler,
    ) -> None:
        super().__init__(address, _Handler)
        self.scheduler = scheduler
        self.api = ExperimentApi(scheduler)

    def shutdown(self) -> None:
        super().shutdown()
        self.scheduler.stop()


def make_server(
    host: str,
    port: int,
    state_dir: str | pathlib.Path,
    *,
    jobs: int = 1,
) -> ExperimentServer:
    """Build a ready-to-serve server (port 0 picks a free port)."""
    return ExperimentServer((host, port), ExperimentScheduler(state_dir, jobs=jobs))


def serve(
    host: str,
    port: int,
    state_dir: str | pathlib.Path,
    *,
    jobs: int = 1,
    log_level: str = "info",
    log_json: bool = False,
    ready: threading.Event | None = None,
) -> int:
    """Run the service until interrupted; returns a process exit code."""
    setup_logging(log_level, json_mode=log_json)
    server = make_server(host, port, state_dir, jobs=jobs)

    def _raise_interrupt(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt

    try:
        # Supervisors stop services with SIGTERM: fold it into the
        # KeyboardInterrupt path so the scheduler still stops cleanly,
        # parking a running job in its ledger for the next boot. Only
        # the main thread may install handlers; embedded callers (tests
        # running serve() in a thread) keep their own signal setup.
        signal.signal(signal.SIGTERM, _raise_interrupt)
    except ValueError:
        pass
    bound_host, bound_port = server.server_address[:2]
    print(
        f"repro service listening on http://{bound_host}:{bound_port}{API_PREFIX} "
        f"(state: {pathlib.Path(state_dir)}, jobs: {jobs})",
        flush=True,
    )
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        print("shutting down (checkpointed jobs resume on restart)")
    finally:
        server.shutdown()
        server.server_close()
    return 0

"""Stdlib HTTP client for the experiment service.

A thin, dependency-free wrapper over :mod:`urllib.request` speaking the
service's JSON API. Structured error bodies (including schema 400s)
surface as :class:`ServiceError` with the server's machine code and
message attached, so CLI commands and tests branch on ``exc.code``
rather than scraping prose.

When tracing is enabled in the calling process, every request carries a
``traceparent`` header with the innermost open span id, and
:meth:`ServiceClient.submit` opens a ``client.submit`` span around the
POST — so the server-side ``service.job`` span (and everything under
it) joins the client's trace once :meth:`ServiceClient.merge_job_spans`
pulls the raw records back.
"""

from __future__ import annotations

import json
import pathlib
import random
import time
import urllib.error
import urllib.parse
import urllib.request
from collections.abc import Iterator
from typing import Any

from repro.obs.trace import (
    TRACEPARENT_HEADER,
    current_span_id,
    format_traceparent,
    merge_exported,
    span,
    tracing_enabled,
)
from repro.service.server import API_PREFIX

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx response from the service (or an unreachable server)."""

    def __init__(
        self,
        message: str,
        *,
        status: int = 0,
        code: str = "unreachable",
        path: list[Any] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.path = path or []


def _raise_for(status: int, body: bytes) -> None:
    try:
        doc = json.loads(body.decode("utf-8"))
        err = doc.get("error", {})
        raise ServiceError(
            err.get("message", f"HTTP {status}"),
            status=status,
            code=err.get("code", "error"),
            path=err.get("path"),
        )
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ServiceError(
            f"HTTP {status}: {body[:200]!r}", status=status, code="error"
        ) from None


class ServiceClient:
    """Talk to one service instance at ``base_url``."""

    def __init__(self, base_url: str, *, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _open(self, method: str, path: str, payload: Any | None = None):
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if tracing_enabled():
            parent = current_span_id()
            if parent:
                headers[TRACEPARENT_HEADER] = format_traceparent(parent)
        req = urllib.request.Request(
            f"{self.base_url}{API_PREFIX}{path}",
            data=body,
            method=method,
            headers=headers,
        )
        try:
            return urllib.request.urlopen(req, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            _raise_for(exc.code, exc.read())
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach {self.base_url}: {exc.reason}"
            ) from exc

    def _json(self, method: str, path: str, payload: Any | None = None) -> Any:
        with self._open(method, path, payload) as resp:
            return json.loads(resp.read().decode("utf-8"))

    # -- API surface ---------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._json("GET", "/health")

    def metrics(self) -> dict[str, Any]:
        """Process metrics registry snapshot + cache counters."""
        return self._json("GET", "/metrics")

    def prometheus(self) -> str:
        """The server's root ``/metrics`` in Prometheus text format."""
        req = urllib.request.Request(
            f"{self.base_url}/metrics", headers={"Accept": "text/plain"}
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            _raise_for(exc.code, exc.read())
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach {self.base_url}: {exc.reason}"
            ) from exc

    def spans(self, job_id: str, *, deterministic: bool = False) -> dict[str, Any]:
        """Span-trace document captured while ``job_id`` executed."""
        suffix = "?deterministic=1" if deterministic else ""
        return self._json("GET", f"/jobs/{job_id}/spans{suffix}")

    def span_records(self, job_id: str) -> dict[str, Any]:
        """Raw span records for ``job_id`` (ids + parent links intact)."""
        return self._json("GET", f"/jobs/{job_id}/spans?format=records")

    def merge_job_spans(self, job_id: str) -> list[Any]:
        """Merge the job's raw spans into this process's trace.

        The server's ``service.job`` span keeps its original parent link
        — the client span id it adopted from the ``traceparent`` header
        — so after merging, :func:`repro.obs.trace.export_trace` renders
        one joined tree with the client's submit span as ancestor.
        """
        doc = self.span_records(job_id)
        return merge_exported(doc["spans"])

    def submit(self, request: dict[str, Any]) -> dict[str, Any]:
        """POST a submit document; returns the job-status document.

        Runs inside a ``client.submit`` span when tracing is enabled, so
        the request's ``traceparent`` header carries that span's id.
        """
        with span("client.submit"):
            return self._json("POST", "/jobs", request)["job"]

    def status(self, job_id: str) -> dict[str, Any]:
        return self._json("GET", f"/jobs/{job_id}")

    def progress(self, job_id: str) -> dict[str, Any]:
        """Live progress document: counts, throughput, ETA, in-flight."""
        return self._json("GET", f"/jobs/{job_id}/progress")

    def profile(
        self, job_id: str, *, deterministic: bool = False
    ) -> dict[str, Any]:
        """Aggregated per-phase sweep profile (``"profile": true`` jobs)."""
        suffix = "?deterministic=1" if deterministic else ""
        return self._json("GET", f"/jobs/{job_id}/profile{suffix}")

    def ledger(
        self, job_id: str, *, deterministic: bool = False
    ) -> dict[str, Any]:
        """The job's run-ledger export document."""
        suffix = "?deterministic=1" if deterministic else ""
        return self._json("GET", f"/jobs/{job_id}/ledger{suffix}")

    def jobs(self, *, state: str | None = None) -> dict[str, Any]:
        """Audit listing: every job plus server cache counters.

        ``state`` filters server-side to one lifecycle state.
        """
        suffix = f"?state={urllib.parse.quote(state, safe='')}" if state else ""
        return self._json("GET", f"/jobs{suffix}")

    def result(self, job_id: str) -> dict[str, Any]:
        """Finished job's metrics document (409 -> ServiceError)."""
        return self._json("GET", f"/jobs/{job_id}/result")

    def result_npz(
        self, job_id: str, out: str | pathlib.Path | None = None
    ) -> bytes:
        """The job's npz release bytes; also written to ``out`` if given."""
        with self._open("GET", f"/jobs/{job_id}/result.npz") as resp:
            payload = resp.read()
        if out is not None:
            pathlib.Path(out).write_bytes(payload)
        return payload

    def trace(self, job_id: str, point: int = 0) -> Iterator[dict[str, Any]]:
        """Stream per-window NDJSON rows of one finished point."""
        with self._open("GET", f"/jobs/{job_id}/trace?point={point}") as resp:
            for line in resp:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))

    def wait(
        self,
        job_id: str,
        *,
        timeout: float = 600.0,
        poll: float = 0.2,
        max_poll: float = 5.0,
        backoff: bool = True,
    ) -> dict[str, Any]:
        """Poll until the job reaches ``done``/``failed``; returns status.

        ``poll`` is the base interval. With ``backoff`` (the default)
        each sleep is drawn by decorrelated jitter —
        ``min(max_poll, uniform(poll, 3 * previous))`` — so many clients
        waiting on the same service desynchronize instead of hammering
        it in lockstep; the interval is capped at ``max_poll`` (5 s).
        ``backoff=False`` keeps the fixed-interval behaviour for tests
        that need deterministic pacing.
        """
        deadline = time.monotonic() + timeout
        delay = poll
        while True:
            status = self.status(job_id)
            if status["state"] in ("done", "failed"):
                return status
            now = time.monotonic()
            if now >= deadline:
                raise ServiceError(
                    f"{job_id} still {status['state']} after {timeout:g}s "
                    f"({status['points_done']}/{status['n_points']} points)",
                    code="timeout",
                )
            time.sleep(min(delay, max(deadline - now, 0.0)))
            if backoff:
                delay = min(max_poll, random.uniform(poll, delay * 3))

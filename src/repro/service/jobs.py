"""Job records and their crash-safe on-disk store.

A job is one submitted request working through the scheduler's lifecycle
``queued -> running -> done | failed``. The :class:`JobStore` persists
every record as ``jobs/<job_id>.json`` (atomic temp-file + rename via
the cache's writer), so a killed service finds its queued and half-run
jobs at the next boot and requeues them; the points such a job already
completed live in the append-only evaluation-cache log and are served
as cache hits on the re-run instead of being simulated again.

Job metrics themselves are *not* stored here — finished results land in
the versioned :class:`~repro.service.results.ResultStore` release the
record points at, and hot results additionally stay in scheduler memory.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import threading
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.experiments.cache import _atomic_write_text
from repro.obs.logs import fields, get_logger
from repro.obs.metrics import counter

__all__ = ["JOB_STATES", "JobRecord", "JobStore", "sweep_hash"]

_log = get_logger("service.jobs")
_SAVES = counter("jobstore.saves")

JOB_STATES = ("queued", "running", "done", "failed")


def sweep_hash(spec_hashes: list[str]) -> str:
    """Content hash of a whole submission (order-sensitive).

    Two requests naming the same design points in the same order share
    it, which is what keys result-store releases and lets audit output
    show duplicate submissions for what they are.
    """
    digest = hashlib.sha256()
    for h in spec_hashes:
        digest.update(h.encode("ascii"))
    return digest.hexdigest()


@dataclass
class JobRecord:
    """One submission's lifecycle state (JSON-serializable)."""

    job_id: str
    state: str
    n_points: int
    spec_hashes: list[str]
    sweep_hash: str
    request: dict[str, Any]
    """The validated submit payload, verbatim (resume re-parses it)."""
    points_done: int = 0
    cache_hits: int = 0
    duration_s: float | None = None
    error: str | None = None
    release: str | None = None
    """Result-store release id once the job is done."""
    resumed: int = 0
    """How many times a restarted service re-dispatched this job."""

    def to_json(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "JobRecord":
        return cls(**data)

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of completed points served from the cache."""
        return self.cache_hits / self.points_done if self.points_done else 0.0

    def status_json(self) -> dict[str, Any]:
        """The job-status document API responses carry."""
        doc = self.to_json()
        doc["cache_hit_ratio"] = round(self.cache_hit_ratio, 6)
        del doc["request"]  # available via the audit endpoint's detail view
        return doc


@dataclass
class _Counter:
    value: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class JobStore:
    """Directory-backed job records with monotonic ids.

    Ids are ``job-<NNNNNN>``, continuing from the highest id already on
    disk so restarts never reuse one. All mutations go through
    :meth:`save`, which writes atomically.
    """

    def __init__(self, root: str | pathlib.Path) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        highest = 0
        for path in self.root.glob("job-*.json"):
            try:
                highest = max(highest, int(path.stem.split("-")[1]))
            except (IndexError, ValueError):
                continue
        self._counter = _Counter(highest)

    def _next_id(self) -> str:
        with self._counter.lock:
            self._counter.value += 1
            return f"job-{self._counter.value:06d}"

    def _path(self, job_id: str) -> pathlib.Path:
        if not job_id.startswith("job-") or "/" in job_id or "\\" in job_id:
            raise KeyError(job_id)
        return self.root / f"{job_id}.json"

    def create(
        self,
        *,
        spec_hashes: list[str],
        request: dict[str, Any],
    ) -> JobRecord:
        """Mint a queued record for a validated request and persist it."""
        record = JobRecord(
            job_id=self._next_id(),
            state="queued",
            n_points=len(spec_hashes),
            spec_hashes=list(spec_hashes),
            sweep_hash=sweep_hash(spec_hashes),
            request=request,
        )
        self.save(record)
        return record

    def save(self, record: JobRecord) -> None:
        """Atomically persist ``record`` (create or overwrite)."""
        if record.state not in JOB_STATES:
            raise ValueError(
                f"unknown job state {record.state!r}; one of {JOB_STATES}"
            )
        _atomic_write_text(
            self._path(record.job_id),
            json.dumps(record.to_json(), indent=2, sort_keys=True) + "\n",
        )
        _SAVES.inc()
        _log.debug(
            "job record saved",
            extra=fields(job=record.job_id, state=record.state),
        )

    def get(self, job_id: str) -> JobRecord | None:
        try:
            path = self._path(job_id)
        except KeyError:
            return None
        if not path.exists():
            return None
        return JobRecord.from_json(json.loads(path.read_text()))

    def all(self) -> list[JobRecord]:
        """Every persisted record, oldest submission first."""
        records = []
        for path in sorted(self.root.glob("job-*.json")):
            records.append(JobRecord.from_json(json.loads(path.read_text())))
        return records

    def unfinished(self) -> list[JobRecord]:
        """Jobs a restarted service must requeue (queued or interrupted)."""
        return [r for r in self.all() if r.state in ("queued", "running")]

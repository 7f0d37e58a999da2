"""Durable append-only NDJSON run ledger: each job's only durable record.

Every per-point lifecycle transition of a job (``queued -> dispatched ->
simulating -> completed | cached | failed``, with worker pid, engine and
cache disposition) plus the job-level transitions framing them
(``submitted``, ``running``, ``requeued``, ``interrupted``, ``done``,
``failed``) is appended as one JSON line to
``STATE_DIR/ledger/<job_id>.ndjson``. ``job.submitted`` carries the
validated request and its spec hashes, ``job.done`` the result release,
so the stream holds everything the job's record needs.

Crash-safety contract:

* **line-atomic appends** — each event serializes to one line written by
  a single ``write()`` call followed by a flush, so a crash leaves at
  most one torn line, and only at the end of the file;
* **tolerant tail truncation** — :func:`load_ledger` drops an
  unterminated or unparseable *final* line (a torn write) while any
  malformed line *before* the tail still raises (real corruption must
  not be silently skipped); reopening a ledger through
  :class:`RunLedger` physically truncates the torn tail so the next
  append starts on a clean line boundary;
* **event-sourced** — :class:`JobRecord` is the fold of a job's events:
  the service changes a live record only by appending an event and
  applying it with :meth:`JobRecord.apply`, and :func:`replay_ledger`
  rebuilds the same record from the file at boot.

:func:`export_ledger` mirrors :func:`repro.obs.trace.export_trace`'s
deterministic-export conventions: ``deterministic=True`` strips wall
timestamps and worker pids, renumbers ``seq`` densely, and orders events
canonically (job-event barriers partition the stream into segments;
within a segment, point events sort by point index then lifecycle
stage), so identical sweeps export byte-identical documents regardless
of ``--jobs`` interleaving.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any

__all__ = [
    "LEDGER_FORMAT",
    "JOB_EVENTS",
    "POINT_EVENTS",
    "RunLedger",
    "JobRecord",
    "LedgerReplay",
    "load_ledger",
    "replay_ledger",
    "export_ledger",
    "complete_lines",
]

LEDGER_FORMAT = "repro.obs.ledger/1"

#: Job-level transitions, in lifecycle order. Each acts as a barrier in
#: the deterministic export's canonical ordering.
JOB_EVENTS = (
    "job.submitted",
    "job.running",
    "job.requeued",
    "job.interrupted",
    "job.done",
    "job.failed",
)

#: Per-point transitions; the tuple order is the lifecycle order used to
#: sort events within one export segment.
POINT_EVENTS = (
    "point.queued",
    "point.dispatched",
    "point.simulating",
    "point.completed",
    "point.cached",
    "point.failed",
)

# completed/cached/failed are alternative terminals at the same depth;
# a point emits exactly one of them per segment, so sharing a rank is
# unambiguous.
_LIFECYCLE_RANK = {
    "point.queued": 0,
    "point.dispatched": 1,
    "point.simulating": 2,
    "point.completed": 3,
    "point.cached": 3,
    "point.failed": 3,
}

#: Fields stripped by the deterministic export (wall-clock and
#: process-identity data that varies run to run).
_VOLATILE_FIELDS = ("t", "worker", "worker_t", "duration_s")


def complete_lines(raw: bytes) -> tuple[list[bytes], int]:
    """The newline-terminated lines of NDJSON bytes, and the length they cover.

    An unterminated final line is dropped: writers emit whole lines in
    one ``write()``, so it is a torn append even if its prefix parses.
    """
    end = raw.rfind(b"\n") + 1
    return raw[:end].split(b"\n")[:-1], end


def _scan(raw: bytes, path: pathlib.Path) -> tuple[list[dict[str, Any]], int]:
    """Parse ledger bytes into events plus the valid-prefix byte length.

    A torn final line is dropped (:func:`complete_lines`); any other
    malformed line raises ``ValueError``: a ledger has one writer, so
    that is real corruption, which must not be silently skipped.
    """
    lines, end = complete_lines(raw)
    events: list[dict[str, Any]] = []
    for i, line in enumerate(lines, 1):
        if not line:
            raise ValueError(f"{path}: blank line {i} inside ledger")
        try:
            doc = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: corrupt ledger line {i}: {exc}") from exc
        if not isinstance(doc, dict) or "event" not in doc:
            raise ValueError(f"{path}: ledger line {i} is not an event object")
        events.append(doc)
    return events, end


def load_ledger(path: str | pathlib.Path) -> list[dict[str, Any]]:
    """Read a ledger file, dropping a torn final line if present."""
    path = pathlib.Path(path)
    events, _ = _scan(path.read_bytes(), path)
    return events


class RunLedger:
    """Append-only writer for one job's ledger file.

    Opening an existing file repairs a torn tail in place (truncating to
    the last complete line) and continues the ``seq`` numbering from the
    surviving events, so resumed jobs keep one monotone sequence across
    restarts. ``append`` is thread-safe.
    """

    def __init__(
        self, path: str | pathlib.Path, *, job_id: str | None = None
    ) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.job_id = job_id if job_id is not None else self.path.stem
        self._lock = threading.Lock()
        self._seq = 0
        if self.path.exists():
            raw = self.path.read_bytes()
            events, valid = _scan(raw, self.path)
            if events:
                self._seq = int(events[-1].get("seq", len(events) - 1)) + 1
            if valid < len(raw):
                with open(self.path, "r+b") as fh:
                    fh.truncate(valid)
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, event: str, **fields: Any) -> dict[str, Any]:
        """Write one event line atomically; returns the record written."""
        with self._lock:
            rec: dict[str, Any] = {
                "seq": self._seq,
                "t": round(time.time(), 6),
                "job": self.job_id,
                "event": event,
                **fields,
            }
            self._seq += 1
            line = json.dumps(rec, sort_keys=True, separators=(",", ":"))
            self._fh.write(line + "\n")
            self._fh.flush()
        return rec

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


@dataclass
class JobRecord:
    """One job's state: the fold of its ledger events (:meth:`apply`).

    ``points_done`` counts completed + cached points *since the last
    requeue* (a requeued job re-runs from the top, its checkpointed
    points returning as cache hits), ``cache_hits`` the cached subset.
    ``point_states`` maps point index to its latest lifecycle stage. An
    interrupted job stays ``running``: parked on disk, to be requeued at
    the next boot. ``running_t`` and ``completion_ts`` are the events'
    wall times that live progress (:func:`repro.obs.progress.job_progress`)
    measures elapsed time and throughput from.
    """

    job_id: str | None = None
    state: str = "queued"
    n_points: int = 0
    spec_hashes: list[str] = field(default_factory=list)
    sweep_hash: str | None = None
    request: dict[str, Any] | None = None
    """The validated submit payload, verbatim (resume re-parses it)."""
    points_done: int = 0
    cache_hits: int = 0
    duration_s: float | None = None
    error: str | None = None
    release: str | None = None
    """Result-store release id once the job is done."""
    resumed: int = 0
    """How many times a restarted service re-dispatched this job."""
    failed_points: int = 0
    point_states: dict[int, str] = field(default_factory=dict)
    running_t: float | None = None
    """Wall time of the ``job.running`` event since the last requeue."""
    completion_ts: list[float] = field(default_factory=list)
    """Wall times of the point completions (completed or cached) since
    the last requeue, in ledger order."""

    def apply(self, ev: dict[str, Any]) -> None:
        """Fold one ledger event into this record."""
        name = ev.get("event")
        if "job" in ev:
            self.job_id = ev["job"]
        if name == "job.submitted":
            self.state = "queued"
            self.n_points = int(ev.get("n_points", 0))
            self.spec_hashes = list(ev.get("spec_hashes", ()))
            self.sweep_hash = ev.get("sweep")
            self.request = ev.get("request")
        elif name == "job.running":
            self.state = "running"
            self.running_t = ev.get("t")
        elif name == "job.interrupted":
            self.state = "running"
        elif name == "job.requeued":
            self.state = "queued"
            self.resumed += 1
            self.points_done = self.cache_hits = self.failed_points = 0
            self.point_states = {i: "queued" for i in range(self.n_points)}
            self.running_t = None
            self.completion_ts = []
        elif name == "job.done":
            self.state = "done"
            self.release = ev.get("release")
            self.duration_s = ev.get("duration_s")
        elif name == "job.failed":
            self.state = "failed"
            self.error = ev.get("error")
            self.duration_s = ev.get("duration_s")
        elif isinstance(name, str) and name.startswith("point."):
            stage = name.split(".", 1)[1]
            self.point_states[int(ev.get("point", -1))] = stage
            if stage in ("completed", "cached"):
                self.points_done += 1
                self.cache_hits += stage == "cached"
                if "t" in ev:
                    self.completion_ts.append(ev["t"])
            elif stage == "failed":
                self.failed_points += 1

    @property
    def in_flight(self) -> int:
        """Points dispatched to a worker and not yet completed or failed."""
        return sum(s in ("dispatched", "simulating") for s in self.point_states.values())

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of completed points served from the cache."""
        return self.cache_hits / self.points_done if self.points_done else 0.0

    def status_json(self) -> dict[str, Any]:
        """The job-status document API responses carry.

        Built field by field: the request (available from the ledger)
        and the per-point state stay out of every status poll.
        """
        doc = {name: getattr(self, name) for name in _STATUS_FIELDS}
        doc["spec_hashes"] = list(self.spec_hashes)
        doc["cache_hit_ratio"] = round(self.cache_hit_ratio, 6)
        return doc

    def to_json(self) -> dict[str, Any]:
        """Every field, per-point states keyed by the point index string."""
        doc = asdict(self)
        doc["point_states"] = {
            str(i): s for i, s in sorted(self.point_states.items())
        }
        return doc


_STATUS_FIELDS = (
    "job_id",
    "state",
    "n_points",
    "spec_hashes",
    "sweep_hash",
    "points_done",
    "cache_hits",
    "duration_s",
    "error",
    "release",
    "resumed",
)

#: Alias for callers that import the replay's result type by this name.
LedgerReplay = JobRecord


def replay_ledger(events: list[dict[str, Any]]) -> JobRecord:
    """Fold an event stream into the job record it describes."""
    record = JobRecord()
    for ev in events:
        record.apply(ev)
    return record


def export_ledger(
    events: list[dict[str, Any]], *, deterministic: bool = False
) -> dict[str, Any]:
    """Exportable ledger document, optionally canonicalized.

    ``deterministic=True`` strips wall timestamps / worker pids /
    durations, renumbers ``seq`` densely and orders events canonically
    (see the module docstring) — byte-stable across runs and ``--jobs``
    values for identical sweeps, following the
    :func:`repro.obs.trace.export_trace` conventions.
    """
    if not deterministic:
        out = [dict(ev) for ev in events]
    else:
        keyed: list[tuple[tuple[int, int, int, int], dict[str, Any]]] = []
        segment = 0
        for ev in events:
            name = ev.get("event", "")
            if name.startswith("job."):
                # A job event closes its segment: it sorts after every
                # point event emitted since the previous job event.
                keyed.append(((segment, 1, 0, 0), ev))
                segment += 1
            else:
                keyed.append(
                    (
                        (
                            segment,
                            0,
                            int(ev.get("point", -1)),
                            _LIFECYCLE_RANK.get(name, 9),
                        ),
                        ev,
                    )
                )
        keyed.sort(key=lambda kv: kv[0])  # stable: ties keep seq order
        out = []
        for seq, (_, ev) in enumerate(keyed):
            clean = {
                k: v for k, v in ev.items() if k not in _VOLATILE_FIELDS
            }
            clean["seq"] = seq
            out.append(clean)
    return {
        "format": LEDGER_FORMAT,
        "deterministic": deterministic,
        "n_events": len(out),
        "events": out,
    }

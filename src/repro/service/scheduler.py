"""Single-dispatcher job scheduler wrapping the experiment engine.

The service's execution core is deliberately *not* thread-per-request:
one dispatcher thread drains a FIFO of submitted jobs and runs each one
itself, iterating :meth:`repro.experiments.Runner.run_iter` (the
event-driven, single-writer shape — HTTP threads only enqueue and read).
That gives three properties for free:

* **no duplicate work** — jobs run one at a time against one shared
  :class:`~repro.experiments.EvaluationCache`, so concurrent submissions
  of the same (or overlapping) specs simulate each point exactly once;
  parallelism *within* a job still comes from the runner's process pool
  and its lockstep chunks, both untouched;
* **checkpointed progress** — each completed point is appended to the
  on-disk cache log (only new points are written), so a killed service
  resumes a half-done job as cache hits instead of recomputing;
* **one durable job record** — a job changes only by appending an
  event to its run ledger and folding that same event into the live
  :class:`~repro.service.jobs.JobRecord`; boot replays the ledgers into
  the same records, so nothing else about a job is ever written. Readers
  take a snapshot under the registry lock. The records are also all
  that progress documents, the scheduler's counters and the
  ``progress.*`` gauges are computed from, so these agree with the
  ledger by construction.

Finished jobs publish their metrics as a versioned release in the
byte-deterministic :class:`~repro.service.results.ResultStore`.
"""

from __future__ import annotations

import pathlib
import threading
import time
from collections import deque
from dataclasses import replace
from typing import Any

from repro.experiments import EvaluationCache, Runner, Scenario
from repro.obs.aggregate import SweepProfile, merge_profiles
from repro.obs.ledger import RunLedger, load_ledger, replay_ledger
from repro.obs.logs import fields, get_logger
from repro.obs.metrics import counter, gauge, histogram
from repro.obs.profile import PhaseProfile
from repro.obs.progress import job_progress, live_progress
from repro.obs.trace import (
    SpanRecord,
    adopt_parent,
    enable_tracing,
    span,
    take_spans,
)
from repro.service.jobs import JOB_STATES, JobRecord, sweep_hash
from repro.service.results import Release, ResultStore
from repro.service.schema import parse_request

__all__ = ["ExperimentScheduler", "JobNotFound", "JobNotDone"]

_log = get_logger("service.scheduler")

_POINTS = counter("scheduler.points_completed")
#: The counter each ledger event bumps as it is folded into its record.
_EVENT_COUNTERS = {
    "job.submitted": counter("scheduler.jobs.submitted"),
    "job.requeued": counter("scheduler.jobs.requeued"),
    "job.done": counter("scheduler.jobs.done"),
    "job.failed": counter("scheduler.jobs.failed"),
    "point.completed": _POINTS,
    "point.cached": _POINTS,
}
_QUEUE_DEPTH = gauge("scheduler.queue_depth")
_DISPATCH_MS = histogram("scheduler.dispatch_latency_ms")
_IN_FLIGHT = gauge("progress.points_in_flight")
_ACTIVE_JOBS = gauge("progress.active_jobs")
_UTILIZATION = gauge("progress.worker_utilization")


class JobNotFound(KeyError):
    """No job with the requested id exists."""

    def __init__(self, job_id: str) -> None:
        super().__init__(job_id)
        self.job_id = job_id


class JobNotDone(RuntimeError):
    """The job exists but has not published results yet (or failed)."""

    def __init__(self, record: JobRecord) -> None:
        super().__init__(
            f"{record.job_id} is {record.state} "
            f"({record.points_done}/{record.n_points} points)"
        )
        self.record = record


class ExperimentScheduler:
    """Background job execution over a persistent state directory.

    ``state_dir`` owns everything the service must survive a restart
    with: the evaluation-cache log (``cache.ndjson``), the per-job run
    ledgers (``ledger/``) and result releases (``releases/``). ``jobs``
    is the per-job worker ceiling handed to the runner (a request's own
    ``"jobs"`` hint is clamped to it). ``auto_start=False`` leaves the
    dispatcher stopped — used by tests that stage a "killed mid-run"
    state and by :meth:`resume`-style inspection tooling.
    ``poll_interval`` paces :meth:`wait`.
    """

    def __init__(
        self,
        state_dir: str | pathlib.Path,
        *,
        jobs: int = 1,
        auto_start: bool = True,
        poll_interval: float = 0.02,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.state_dir = pathlib.Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.jobs = jobs
        self.cache_path = self.state_dir / "cache.ndjson"
        self.cache = EvaluationCache.load_or_create(self.cache_path)
        legacy = self.state_dir / "cache.json"
        if legacy.exists():  # its entries carry no semantics epoch: not served
            _log.warning("ignoring pre-log cache file", extra=fields(path=str(legacy)))
        self.result_store = ResultStore(self.state_dir / "releases")
        self._poll_interval = poll_interval
        self._lock = threading.RLock()
        # A job publishes its terminal state inside its service.job span
        # and its spans are captured only after that span closes;
        # job_spans() waits on this for the job being executed.
        self._spans_captured = threading.Condition(self._lock)
        self._executing: str | None = None
        self._records: dict[str, JobRecord] = {}
        self._running: set[str] = set()  # ids of the running records
        self._scenarios: dict[str, list[Scenario]] = {}
        self._metrics: dict[str, list[dict[str, Any]]] = {}
        self._trace_rows: dict[tuple[str, int], list[dict[str, Any]]] = {}
        self._queue: deque[str] = deque()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_at = time.monotonic()
        self._enqueued_at: dict[str, float] = {}
        self._job_spans: dict[str, list[SpanRecord]] = {}
        self._trace_parents: dict[str, str | None] = {}
        # Sweep introspection: the durable per-job run ledger and
        # per-point profile captures (opt-in).
        self.ledger_dir = self.state_dir / "ledger"
        self._last_id = 0
        self._profiles: dict[str, list[PhaseProfile | None]] = {}
        # The scheduler is the span producer for the whole service; one
        # trace per job is drained into _job_spans when the job finishes.
        enable_tracing()

        self._replay_ledgers()
        _QUEUE_DEPTH.set(len(self._queue))
        if auto_start:
            self.start()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the dispatcher thread (idempotent); a job that a live
        :meth:`stop` parked is requeued first, at the head of the queue."""
        if self._thread is not None and self._thread.is_alive():
            return
        with self._lock:
            running = (r for r in self._records.values() if r.state == "running")
            parked = [r for r in running if r.job_id != self._executing]
        for record in parked:  # at most one: the single dispatcher's last job
            self._requeue(record, front=True)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-dispatch", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop dispatching; an in-flight job parks as resumable state
        once its current work unit finishes."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _replay_ledgers(self) -> None:
        """Rebuild every job from its ledger; requeue unfinished ones.

        A torn final line is dropped; interior corruption raises, naming
        the file. Ids continue past the highest ledger file name.
        """
        old = 0
        for path in sorted(self.ledger_dir.glob("job-*.ndjson")):
            try:
                self._last_id = max(self._last_id, int(path.stem[4:]))
            except ValueError:
                continue
            record = replay_ledger(load_ledger(path))
            if record.request is None:  # written before ledgers carried it
                old += 1
                continue
            self._records[record.job_id] = record
            if record.state in ("queued", "running"):
                self._requeue(record)
        legacy = self.state_dir / "jobs"
        if old or legacy.exists():
            _log.warning(
                "ignoring job state from before the event-sourced ledger",
                extra=fields(path=str(legacy), old_ledgers=old),
            )

    def _requeue(self, record: JobRecord, *, front: bool = False) -> None:
        """Queue an unfinished job again; it re-runs from the top, and the
        points it already checkpointed return as cache hits."""
        _log.info(
            "requeue of interrupted job",
            extra=fields(
                job=record.job_id,
                prev_state=record.state,
                resumed=record.resumed + 1,
            ),
        )
        with self._open_ledger(record.job_id) as ledger:
            self._append(ledger, record, "job.requeued", resumed=record.resumed + 1)
        with self._lock:
            if front:
                self._queue.appendleft(record.job_id)
            else:
                self._queue.append(record.job_id)
            self._enqueued_at[record.job_id] = time.monotonic()
            _QUEUE_DEPTH.set(len(self._queue))

    def _open_ledger(self, job_id: str) -> RunLedger:
        """Open the job's run ledger (``ledger/<job_id>.ndjson``).

        Callers close it when done; only a running job's stays open.
        """
        return RunLedger(self.ledger_dir / f"{job_id}.ndjson", job_id=job_id)

    def _append(
        self, ledger: RunLedger, record: JobRecord, event: str, **data: Any
    ) -> None:
        """Change a job the one way there is: append the event to its
        ledger, then fold that same event into the live record."""
        self._apply(record, ledger.append(event, **data))

    def _apply(self, record: JobRecord, event: dict[str, Any]) -> None:
        """Fold ``event`` into ``record``, count it, and re-derive the
        progress gauges from the running records."""
        with self._lock:
            record.apply(event)
            if record.state == "running":
                self._running.add(record.job_id)
            else:
                self._running.discard(record.job_id)
            running = [self._records[j] for j in self._running]
            in_flight = [r.in_flight for r in running]
            workers = [self._workers(r) for r in running]
            _ACTIVE_JOBS.set(len(running))
            _IN_FLIGHT.set(sum(in_flight))
            busy = sum(min(n, w) for n, w in zip(in_flight, workers))
            _UTILIZATION.set(busy / sum(workers) if workers else 0.0)
        count = _EVENT_COUNTERS.get(event["event"])
        if count is not None:
            count.inc()

    def _workers(self, record: JobRecord) -> int:
        """The runner's worker count for ``record``: the service's
        ceiling, lowered by the request's own ``"jobs"`` hint."""
        hint = record.request.get("jobs")
        return max(1, min(hint, self.jobs) if isinstance(hint, int) else self.jobs)

    # -- submission & queries ------------------------------------------------

    def submit(self, doc: Any, *, trace_parent: str | None = None) -> JobRecord:
        """Validate a submit document and enqueue it; returns the record.

        Raises :class:`~repro.service.schema.SchemaError` on invalid
        payloads — nothing is enqueued or persisted in that case.
        ``trace_parent`` is a remote caller's span id (parsed from its
        ``traceparent`` header); the job's ``service.job`` span adopts
        it as parent so a merged client+server trace nests correctly.
        """
        parsed = parse_request(doc)
        with self._lock:
            self._last_id += 1
            job_id = f"job-{self._last_id:06d}"
        # The submit-time events land before the dispatcher can see the job.
        record = JobRecord()
        with self._open_ledger(job_id) as ledger:
            self._append(
                ledger,
                record,
                "job.submitted",
                n_points=parsed.n_points,
                sweep=sweep_hash(parsed.spec_hashes),
                spec_hashes=parsed.spec_hashes,
                request=parsed.payload,
            )
            for i in range(parsed.n_points):
                self._append(ledger, record, "point.queued", point=i)
        with self._lock:
            self._records[job_id] = record
            self._scenarios[job_id] = parsed.scenarios
            self._queue.append(job_id)
            self._enqueued_at[job_id] = time.monotonic()
            self._trace_parents[job_id] = trace_parent
            _QUEUE_DEPTH.set(len(self._queue))
        _log.info(
            "job submitted",
            extra=fields(
                job=job_id,
                points=record.n_points,
                sweep=record.sweep_hash[:12],
            ),
        )
        self._wake.set()
        return self._snapshot(record)

    def job(self, job_id: str) -> JobRecord:
        """Current state of one job (a snapshot; raises JobNotFound)."""
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise JobNotFound(job_id)
            return self._snapshot(record)

    def audit(self) -> list[JobRecord]:
        """Every job ever submitted, oldest first (snapshots)."""
        with self._lock:
            return [
                self._snapshot(r)
                for r in sorted(self._records.values(), key=lambda r: r.job_id)
            ]

    def wait(self, job_id: str, timeout: float = 60.0) -> JobRecord:
        """Block until ``job_id`` reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record.state in ("done", "failed"):
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{job_id} still {record.state} after {timeout:g}s"
                )
            time.sleep(self._poll_interval)

    def result_metrics(self, job_id: str) -> list[dict[str, Any]]:
        """Ordered per-point metrics of a finished job.

        Served from scheduler memory when hot; after a restart, read
        back from the job's published release.
        """
        record = self.job(job_id)
        if record.state != "done":
            raise JobNotDone(record)
        with self._lock:
            metrics = self._metrics.get(job_id)
        if metrics is not None:
            return list(metrics)
        header, _ = self.result_store.read(record.sweep_hash)
        return list(header["metrics"])

    def release(self, job_id: str) -> Release:
        """The published release backing a finished job's npz export."""
        record = self.job(job_id)
        if record.state != "done" or record.release is None:
            raise JobNotDone(record)
        sweep, _, version = record.release.partition(".v")
        found = self.result_store.get(sweep, int(version))
        if found is None:
            raise JobNotFound(job_id)
        return found

    def scenarios(self, job_id: str) -> list[Scenario]:
        """The job's design points (re-parsed from its request if cold)."""
        with self._lock:
            cached = self._scenarios.get(job_id)
            if cached is not None:
                return list(cached)
            record = self._records.get(job_id)
            if record is None:
                raise JobNotFound(job_id)
        scenarios = parse_request(record.request).scenarios
        with self._lock:
            self._scenarios[job_id] = scenarios
        return list(scenarios)

    def trace_rows(self, job_id: str, point: int) -> list[dict[str, Any]]:
        """Per-window telemetry/control rows for one finished point.

        Points with ``telemetry_window > 0`` only.
        Rows are derived once per (job, point) by deterministically
        replaying the scenario (evaluation purity makes the replay
        byte-equivalent to the run that produced the cached metrics) and
        memoized for subsequent requests.
        """
        record = self.job(job_id)
        if record.state != "done":
            raise JobNotDone(record)
        scenarios = self.scenarios(job_id)
        if not 0 <= point < len(scenarios):
            raise ValueError(
                f"point must be in [0, {len(scenarios)}), got {point}"
            )
        key = (job_id, point)
        with self._lock:
            rows = self._trace_rows.get(key)
        if rows is None:
            from repro.service.stream import window_rows

            rows = window_rows(scenarios[point])
            with self._lock:
                self._trace_rows[key] = rows
        return list(rows)

    def cache_stats(self) -> dict[str, int]:
        return dict(self.cache.stats)

    # -- observability -------------------------------------------------------

    def uptime_s(self) -> float:
        """Seconds since this scheduler instance was constructed."""
        return time.monotonic() - self._started_at

    def queue_depth(self) -> int:
        """Jobs waiting for the dispatcher (excludes the one running)."""
        with self._lock:
            return len(self._queue)

    def jobs_by_state(self) -> dict[str, int]:
        """``{state: count}`` over every known job (zero counts omitted)."""
        out: dict[str, int] = {}
        with self._lock:
            for record in self._records.values():
                out[record.state] = out.get(record.state, 0) + 1
        return dict(sorted(out.items()))

    def audit_json(self, state: str | None = None) -> list[dict[str, Any]]:
        """Job-status documents, oldest first, with live progress merged.

        ``state`` filters to one lifecycle state (ValueError on unknown
        names — the HTTP layer maps it to a 400). Running jobs carry a
        ``progress`` sub-document (throughput/ETA/in-flight) read off
        their records.
        """
        if state is not None and state not in JOB_STATES:
            raise ValueError(
                f"unknown state {state!r}; one of {', '.join(JOB_STATES)}"
            )
        docs = []
        with self._lock:
            now = time.time()
            for record in sorted(self._records.values(), key=lambda r: r.job_id):
                if state is not None and record.state != state:
                    continue
                doc = record.status_json()
                if record.state == "running":
                    doc["progress"] = live_progress(
                        record, now=now, workers=self._workers(record)
                    )
                docs.append(doc)
        return docs

    def progress_json(self, job_id: str) -> dict[str, Any]:
        """The ``/api/v1/jobs/<id>/progress`` document, read off the job
        record (:func:`repro.obs.progress.job_progress`)."""
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise JobNotFound(job_id)
            return job_progress(record, now=time.time(), workers=self._workers(record))

    def profile_json(
        self, job_id: str, *, deterministic: bool = False
    ) -> dict[str, Any]:
        """Aggregated per-phase sweep profile for ``job_id``.

        Merges whatever per-point profiles have been captured so far
        (running jobs aggregate their completed prefix). Jobs submitted
        without ``"profile": true`` — or finished before the last
        restart — report zero profiles.
        """
        record = self.job(job_id)
        with self._lock:
            profs = list(self._profiles.get(job_id, ()))
        merged: SweepProfile = merge_profiles(profs)
        doc = merged.to_json(deterministic=deterministic)
        doc["job_id"] = record.job_id
        doc["state"] = record.state
        doc["n_points"] = record.n_points
        return doc

    def job_profiles(self, job_id: str) -> list[PhaseProfile | None]:
        """Raw per-point profile captures, aligned with point order."""
        with self._lock:
            if job_id not in self._records:
                raise JobNotFound(job_id)
            return list(self._profiles.get(job_id, ()))

    def ledger_events(self, job_id: str) -> list[dict[str, Any]]:
        """The job's ledger events, read back from disk.

        Disk is the source of truth (the writer flushes per line), so
        this survives restarts and reflects events up to the moment of
        the read.
        """
        with self._lock:
            if job_id not in self._records:
                raise JobNotFound(job_id)
        path = self.ledger_dir / f"{job_id}.ndjson"
        if not path.exists():
            return []
        return load_ledger(path)

    def job_spans(self, job_id: str) -> list[SpanRecord]:
        """Spans captured while ``job_id`` executed (empty if none).

        One trace per job: the single-dispatcher design means every span
        recorded between a job's start and finish belongs to that job
        (runner sweep/point spans, pool-worker merges included), so the
        dispatcher drains the tracer into this per-job list when the job
        leaves the running state. Jobs finished before the last restart
        have no spans — traces are process-local, not persisted.
        """
        with self._lock:
            if job_id not in self._records:
                raise JobNotFound(job_id)
            if self._records[job_id].state in ("done", "failed"):
                self._spans_captured.wait_for(
                    lambda: self._executing != job_id, timeout=30.0
                )
            return list(self._job_spans.get(job_id, []))

    # -- dispatcher ----------------------------------------------------------

    def _snapshot(self, record: JobRecord) -> JobRecord:
        with self._lock:
            return replace(
                record,
                point_states=dict(record.point_states),
                completion_ts=list(record.completion_ts),
            )

    def _execute(self, job_id: str) -> None:
        """Run one job inside a ``service.job`` span; capture its trace.

        The job's ledger stays open only while it runs. Whatever raises
        (a runner failure, a persisted request this build can no longer
        parse, a ledger write) fails this job alone, and the dispatcher
        goes on to the next.
        """
        with self._lock:
            self._executing = job_id
            record = self._records[job_id]
            enqueued = self._enqueued_at.pop(job_id, None)
            trace_parent = self._trace_parents.pop(job_id, None)
        if enqueued is not None:
            _DISPATCH_MS.observe((time.monotonic() - enqueued) * 1e3)
        take_spans()  # drop stray spans so the job's trace starts clean
        # Adopt the submitting caller's span id (if it shipped one) so the
        # job's trace joins the caller's tree when merged client-side.
        adopt_parent(trace_parent)
        started = time.perf_counter()
        try:
            with span("service.job", job=job_id), self._open_ledger(job_id) as ledger:
                self._execute_inner(ledger, record, started)
        except Exception as exc:
            self._fail(record, exc, round(time.perf_counter() - started, 6))
        finally:
            adopt_parent(None)
        with self._lock:
            self._job_spans[job_id] = take_spans()
            self._executing = None
            self._spans_captured.notify_all()

    def _fail(self, record: JobRecord, exc: Exception, duration_s: float) -> None:
        """Fail a job whose execution raised.

        The failure goes to the ledger when the append succeeds; the live
        record reports it either way (a ledger without it requeues the
        job at the next boot).
        """
        error = f"{type(exc).__name__}: {exc}"
        _log.error(
            "job failed",
            exc_info=exc,
            extra=fields(job=record.job_id, state="failed", error=error),
        )
        if record.state in ("done", "failed"):
            return  # it raised after finishing: the ledger already says so
        failed = {"error": error, "duration_s": duration_s}
        event: dict[str, Any] = {"event": "job.failed", **failed}
        try:
            with self._open_ledger(record.job_id) as ledger:
                event = ledger.append("job.failed", **failed)
        except Exception:
            _log.exception(
                "job failure not written to its ledger",
                extra=fields(job=record.job_id),
            )
        self._apply(record, event)

    def _execute_inner(
        self, ledger: RunLedger, record: JobRecord, started: float
    ) -> None:
        job_id = record.job_id
        self._append(ledger, record, "job.running")
        _log.info(
            "job state change",
            extra=fields(job=job_id, state="running", points=record.n_points),
        )
        scenarios = self.scenarios(job_id)
        workers = self._workers(record)

        def observe(event: dict[str, Any]) -> None:
            # Runner lifecycle events land in the ledger and the record.
            ev = dict(event)
            self._append(ledger, record, ev.pop("event"), **ev)

        runner = Runner(
            jobs=workers,
            cache=self.cache,
            observer=observe,
            profile=bool(record.request.get("profile")),
        )
        metrics: list[dict[str, Any]] = []
        profiles: list[PhaseProfile | None] = []
        with self._lock:
            self._metrics[job_id] = metrics
            self._profiles[job_id] = profiles
        checkpointed = len(self.cache)
        with span("runner.sweep", points=len(scenarios), jobs=workers):
            for res in runner.run_iter(scenarios):
                with self._lock:
                    metrics.append(res.metrics)
                    profiles.append(res.profile)
                if len(self.cache) > checkpointed:
                    # Checkpoint: completed points survive a kill -9. A
                    # unit caches all its points before yielding the
                    # first, so this flushes once per unit.
                    checkpointed = self.cache.flush(self.cache_path)
                if self._stop.is_set():
                    break  # after this unit: the job parks below
        if len(metrics) < record.n_points:
            # Interrupted by stop(): the record stays 'running' on disk so
            # the next boot requeues it from the checkpointed cache.
            self._append(
                ledger, record, "job.interrupted", points_done=record.points_done
            )
            _log.info(
                "job interrupted; parked for resume",
                extra=fields(
                    job=job_id, points_done=record.points_done,
                    points=record.n_points,
                ),
            )
            return
        release, _reused = self.result_store.put(
            sweep_hash=record.sweep_hash,
            scenarios=scenarios,
            metrics=metrics,
            spec_hashes=record.spec_hashes,
        )
        self._append(
            ledger,
            record,
            "job.done",
            points_done=record.points_done,
            cache_hits=record.cache_hits,
            duration_s=round(time.perf_counter() - started, 6),
            release=release.release_id,
        )
        _log.info(
            "job state change",
            extra=fields(
                job=job_id,
                state="done",
                duration_s=record.duration_s,
                cache_hits=record.cache_hits,
                release=record.release,
            ),
        )

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                job_id = self._queue.popleft() if self._queue else None
                _QUEUE_DEPTH.set(len(self._queue))
            if job_id is None:
                # submit() and stop() set the event after changing what
                # this loop reads, and it is cleared before the re-read.
                self._wake.wait()
                self._wake.clear()
                continue
            self._execute(job_id)

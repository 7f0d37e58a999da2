"""Single-dispatcher job scheduler wrapping the experiment engine.

The service's execution core is deliberately *not* thread-per-request:
one dispatcher thread drains a FIFO of submitted jobs and feeds each one
to the existing :class:`repro.experiments.Runner` through its
``submit``/``poll`` seam (the event-driven, single-writer shape — HTTP
threads only enqueue and read). That gives three properties for free:

* **no duplicate work** — jobs run one at a time against one shared
  :class:`~repro.experiments.EvaluationCache`, so concurrent submissions
  of the same (or overlapping) specs simulate each point exactly once;
  parallelism *within* a job still comes from the runner's process pool
  and the batched engine's grouping, both untouched;
* **checkpointed progress** — each completed point is appended to the
  on-disk cache log (only new points are written), so a killed service
  resumes a half-done job as cache hits instead of recomputing;
* **one durable job record** — a job changes only by appending an
  event to its run ledger and folding that same event into the live
  :class:`~repro.service.jobs.JobRecord`; boot replays the ledgers into
  the same records, so nothing else about a job is ever written. Readers
  take a snapshot under the registry lock.

Finished jobs publish their metrics as a versioned release in the
byte-deterministic :class:`~repro.service.results.ResultStore`.

The scheduler also hosts the telemetry pipeline: a
:class:`~repro.obs.pipeline.MetricsSampler` snapshots the metrics
registry every ``sample_interval`` seconds into a bounded
:class:`~repro.obs.pipeline.SeriesStore` (persisted to
``metrics-history.npz`` across restarts) and runs the attached
:class:`~repro.obs.slo.SloEngine` rules once per tick — what
``/api/v1/metrics/history`` and ``/api/v1/alerts`` serve.
"""

from __future__ import annotations

import math
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
from repro.obs.progress import ProgressTracker
from repro.obs.pipeline import (
    DEFAULT_CAPACITY,
    MetricsSampler,
    SeriesStore,
    load_history_npz,
    save_history_npz,
)
from repro.obs.slo import SloEngine, SloRule
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

_SUBMITTED = counter("scheduler.jobs.submitted")
_DONE = counter("scheduler.jobs.done")
_FAILED = counter("scheduler.jobs.failed")
_REQUEUED = counter("scheduler.jobs.requeued")
_POINTS = counter("scheduler.points_completed")
_QUEUE_DEPTH = gauge("scheduler.queue_depth")
_DISPATCH_MS = histogram("scheduler.dispatch_latency_ms")


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
    """

    def __init__(
        self,
        state_dir: str | pathlib.Path,
        *,
        jobs: int = 1,
        auto_start: bool = True,
        poll_interval: float = 0.02,
        sample_interval: float = 1.0,
        slo_rules: list[SloRule] | tuple[SloRule, ...] = (),
        history_capacity: int = DEFAULT_CAPACITY,
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
        # Sweep introspection: the durable per-job run ledger, the live
        # progress tracker, and per-point profile captures (opt-in).
        self.ledger_dir = self.state_dir / "ledger"
        self._last_id = 0
        self.tracker = ProgressTracker()
        self._profiles: dict[str, list[PhaseProfile | None]] = {}
        # The scheduler is the span producer for the whole service; one
        # trace per job is drained into _job_spans when the job finishes.
        enable_tracing()

        # Telemetry pipeline: time-series history (warm-loaded across
        # restarts) + SLO evaluation once per sampling tick.
        self.history_path = self.state_dir / "metrics-history.npz"
        self.series = self._load_history(history_capacity)
        self.slo = SloEngine(slo_rules)
        self.sampler = MetricsSampler(
            self.series, interval_s=sample_interval, slo=self.slo
        )

        self._replay_ledgers()
        _QUEUE_DEPTH.set(len(self._queue))
        if auto_start:
            self.start()

    # -- lifecycle -----------------------------------------------------------

    def _load_history(self, capacity: int) -> SeriesStore:
        """Warm-load the persisted metrics history (fresh store on any
        problem — history is an enrichment, never a boot blocker)."""
        if self.history_path.exists():
            try:
                store = load_history_npz(self.history_path, capacity=capacity)
                _log.info(
                    "metrics history loaded",
                    extra=fields(frames=len(store), path=str(self.history_path)),
                )
                return store
            except Exception as exc:
                _log.warning(
                    "metrics history unreadable; starting fresh",
                    extra=fields(path=str(self.history_path), error=str(exc)),
                )
        return SeriesStore(capacity=capacity)

    def start(self) -> None:
        """Start the dispatcher + sampler threads (idempotent)."""
        self.sampler.start()
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-dispatch", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop dispatching; an in-flight job parks as resumable state."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        self.sampler.stop()
        try:
            save_history_npz(self.series, self.history_path)
        except Exception as exc:  # history persistence is best-effort
            _log.warning(
                "metrics history save failed",
                extra=fields(path=str(self.history_path), error=str(exc)),
            )

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
                # A restart re-dispatches interrupted work from the top;
                # the points it already checkpointed return as cache hits.
                _log.info(
                    "boot-requeue of interrupted job",
                    extra=fields(
                        job=record.job_id,
                        prev_state=record.state,
                        resumed=record.resumed + 1,
                    ),
                )
                with self._open_ledger(record.job_id) as ledger:
                    self._append(
                        ledger, record, "job.requeued", resumed=record.resumed + 1
                    )
                self._queue.append(record.job_id)
                self._enqueued_at[record.job_id] = time.monotonic()
                _REQUEUED.inc()
        legacy = self.state_dir / "jobs"
        if old or legacy.exists():
            _log.warning(
                "ignoring job state from before the event-sourced ledger",
                extra=fields(path=str(legacy), old_ledgers=old),
            )

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
        written = ledger.append(event, **data)
        with self._lock:
            record.apply(written)

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
        _SUBMITTED.inc()
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

        Interpreter-engine points with ``telemetry_window > 0`` only.
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
        ``progress`` sub-document (throughput/ETA/in-flight) from the
        tracker.
        """
        if state is not None and state not in JOB_STATES:
            raise ValueError(
                f"unknown state {state!r}; one of {', '.join(JOB_STATES)}"
            )
        docs = []
        for record in self.audit():
            if state is not None and record.state != state:
                continue
            doc = record.status_json()
            snap = self.tracker.snapshot(record.job_id)
            if snap is not None:
                doc["progress"] = snap
            docs.append(doc)
        return docs

    def progress_json(self, job_id: str) -> dict[str, Any]:
        """The ``/api/v1/jobs/<id>/progress`` document.

        Counts come from the job record; while the job runs, the live
        tracker adds in-flight/throughput/ETA/utilization. Terminal
        jobs report an ETA of 0 (done) or None (failed) and their
        realized overall throughput.
        """
        record = self.job(job_id)
        done = record.points_done
        n = record.n_points
        doc: dict[str, Any] = {
            "job_id": record.job_id,
            "state": record.state,
            "n_points": n,
            "points_done": done,
            "cache_hits": record.cache_hits,
            "pct": round(100.0 * done / n, 2) if n else 0.0,
            "resumed": record.resumed,
        }
        snap = self.tracker.snapshot(job_id)
        if snap is not None:
            doc.update(snap)
        else:
            doc.update(
                completed=done - record.cache_hits,
                cached=record.cache_hits,
                failed=0,
                in_flight=0,
                eta_s=0.0 if record.state == "done" else None,
                elapsed_s=record.duration_s,
                throughput_pps=(
                    round(n / record.duration_s, 6)
                    if record.state == "done" and record.duration_s
                    else None
                ),
            )
        return doc

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

    def alerts_json(self) -> dict[str, Any]:
        """The ``/api/v1/alerts`` document (rule states + transitions)."""
        return self.slo.to_json()

    def history_json(
        self, metric: str | None = None, window_s: float | None = None
    ) -> dict[str, Any]:
        """The ``/api/v1/metrics/history`` document.

        Without ``metric``: a summary (frame count, time range, sampled
        metric names). With one: the full per-metric series, plus
        windowed delta/rate for counters and p50/p99 for histograms.
        Raises ValueError for metrics the sampler has never seen.
        """
        store = self.series

        def _num(x: float) -> float | None:
            return None if math.isnan(x) else round(x, 6)

        if metric is None:
            frames = store.frames()
            return {
                "n_frames": len(frames),
                "capacity": store.capacity,
                "interval_s": self.sampler.interval_s,
                "start_t": round(frames[0].t, 6) if frames else None,
                "end_t": round(frames[-1].t, 6) if frames else None,
                "metrics": store.metric_names(),
            }
        kind = store.kind(metric)
        if kind is None:
            raise ValueError(f"no sampled metric named {metric!r}")
        doc: dict[str, Any] = {"metric": metric, "kind": kind}
        if kind == "histogram":
            pts = store.hist_series(metric)
        else:
            pts = store.series(metric)
        if window_s is not None and pts:
            cutoff = pts[-1][0] - window_s
            pts = [p for p in pts if p[0] >= cutoff]
        doc["points"] = [[round(t, 6), v] for t, v in pts]
        if kind == "counter":
            doc["delta"] = _num(store.delta(metric, window_s))
            doc["rate"] = _num(store.rate(metric, window_s))
        elif kind == "histogram":
            doc["p50"] = _num(store.percentile(metric, 0.5))
            doc["p99"] = _num(store.percentile(metric, 0.99))
        return doc

    # -- dispatcher ----------------------------------------------------------

    def _snapshot(self, record: JobRecord) -> JobRecord:
        with self._lock:
            return replace(record, point_states=dict(record.point_states))

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
            self.tracker.job_finished(job_id)
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
        with self._lock:
            record.apply(event)
        _FAILED.inc()

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
        hint = record.request.get("jobs")
        runner_jobs = min(hint, self.jobs) if isinstance(hint, int) else self.jobs
        runner_jobs = max(1, runner_jobs)
        want_profile = bool(record.request.get("profile"))
        tracker = self.tracker

        def observe(event: dict[str, Any]) -> None:
            # Runner lifecycle events land in the durable ledger, the job
            # record and the live progress tracker; all on the sweep drive
            # thread.
            ev = dict(event)
            name = ev.pop("event")
            self._append(ledger, record, name, **ev)
            tracker.observe(job_id, name, ev)

        runner = Runner(
            jobs=runner_jobs,
            cache=self.cache,
            observer=observe,
            profile=want_profile,
        )
        metrics = self._metrics.setdefault(job_id, [])
        metrics.clear()
        profiles = self._profiles.setdefault(job_id, [])
        profiles.clear()
        tracker.job_started(
            job_id, n_points=record.n_points, workers=runner_jobs
        )
        handle = runner.submit(scenarios)
        while True:
            fresh = handle.poll()
            if fresh:
                with self._lock:
                    for res in fresh:
                        metrics.append(res.metrics)
                        profiles.append(res.profile)
                _POINTS.inc(len(fresh))
                # Checkpoint: completed points survive a kill -9.
                self.cache.flush(self.cache_path)
                continue
            if handle.done:
                break
            if self._stop.is_set():
                handle.cancel()
            handle.wait(self._poll_interval)
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
        _DONE.inc()
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
                self._wake.wait(self._poll_interval)
                self._wake.clear()
                continue
            self._execute(job_id)

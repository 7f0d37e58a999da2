"""Unit tests for the experiment service: schema, jobs, results, scheduler."""

import io
import json
import math
import os
import threading
import time

import numpy as np
import pytest

from repro.experiments import (
    EvaluationCache,
    Runner,
    scenario_family,
    scenario_to_json,
)
from repro.obs import RunLedger, load_ledger, replay_ledger, setup_logging
from repro.service import (
    ExperimentApi,
    ExperimentScheduler,
    JobNotDone,
    JobNotFound,
    JobRecord,
    ResultStore,
    SchemaError,
    parse_request,
    sweep_hash,
)
from repro.service.stream import window_rows

QUICK = {"rates": [0.05, 0.1], "cycles": 300}


def quick_request(**extra):
    return {
        "version": 1,
        "family": "saturation-sweep",
        "params": dict(QUICK),
        **extra,
    }


# -- schema ------------------------------------------------------------------


class TestSchema:
    def test_family_request_expands(self):
        parsed = parse_request(quick_request())
        assert parsed.n_points == 2
        assert len(parsed.spec_hashes) == 2
        assert parsed.jobs is None

    def test_explicit_scenarios_round_trip(self):
        scenarios = scenario_family("saturation-sweep", **QUICK)
        doc = {
            "version": 1,
            "scenarios": [scenario_to_json(s) for s in scenarios],
        }
        parsed = parse_request(doc)
        assert parsed.scenarios == scenarios

    def test_family_and_explicit_agree_on_hashes(self):
        scenarios = scenario_family("saturation-sweep", **QUICK)
        explicit = parse_request(
            {"version": 1, "scenarios": [scenario_to_json(s) for s in scenarios]}
        )
        family = parse_request(quick_request())
        assert explicit.spec_hashes == family.spec_hashes

    @pytest.mark.parametrize(
        ("doc", "code", "path"),
        [
            ([1, 2], "not_an_object", ()),
            ({"family": "saturation-sweep"}, "missing_version", ("version",)),
            ({"version": 99, "family": "x"}, "unsupported_version", ("version",)),
            ({"version": 1}, "missing_spec", ()),
            (
                {"version": 1, "family": "x", "scenarios": []},
                "ambiguous_spec",
                (),
            ),
            ({"version": 1, "scenarios": "nope"}, "invalid_scenarios", ("scenarios",)),
            ({"version": 1, "scenarios": []}, "empty_scenarios", ("scenarios",)),
            (
                {"version": 1, "scenarios": [{"bogus": True}]},
                "invalid_scenario",
                ("scenarios", 0),
            ),
            ({"version": 1, "family": ""}, "invalid_family", ("family",)),
            (
                {"version": 1, "family": "no-such-family"},
                "invalid_family",
                ("family",),
            ),
            (
                {"version": 1, "family": "x", "params": []},
                "invalid_params",
                ("params",),
            ),
            (
                {"version": 1, "family": "saturation-sweep", "jobs": 0},
                "invalid_jobs",
                ("jobs",),
            ),
            (
                {"version": 1, "family": "saturation-sweep", "jobs": True},
                "invalid_jobs",
                ("jobs",),
            ),
        ],
    )
    def test_violations_carry_code_and_path(self, doc, code, path):
        with pytest.raises(SchemaError) as err:
            parse_request(doc)
        assert err.value.code == code
        assert err.value.path == path

    def test_error_body_shape(self):
        with pytest.raises(SchemaError) as err:
            parse_request({"version": 1, "scenarios": [42]})
        body = err.value.to_json()["error"]
        assert set(body) == {"code", "message", "path"}
        assert body["path"] == ["scenarios", 0]

    def test_jobs_hint_parsed(self):
        assert parse_request(quick_request(jobs=4)).jobs == 4

    def test_list_params_normalize_to_tuples(self):
        # JSON can only carry lists; families require hashable tuples.
        parsed = parse_request(quick_request())
        assert parsed.scenarios[0].label


# -- job store ---------------------------------------------------------------


class TestJobStore:
    """Job records as their run ledgers store them."""

    def test_round_trip_and_unfinished(self, tmp_path):
        sched = ExperimentScheduler(tmp_path, auto_start=False)
        queued = sched.submit(quick_request())
        finished = sched.submit(quick_request())
        with RunLedger(sched.ledger_dir / f"{finished.job_id}.ndjson") as ledger:
            ledger.append("job.running")
            ledger.append("point.completed", point=0, cached=False)
            ledger.append("point.cached", point=1)
            ledger.append("job.done", duration_s=0.5, release="s.v1")
        reopened = ExperimentScheduler(tmp_path, auto_start=False)
        back = reopened.job(queued.job_id)
        assert (back.n_points, back.request) == (2, quick_request())
        assert back.spec_hashes == queued.spec_hashes
        assert back.sweep_hash == queued.sweep_hash
        # Only the unfinished job is requeued.
        assert reopened.queue_depth() == 1
        assert (back.state, back.resumed) == ("queued", 1)
        done = reopened.job(finished.job_id)
        assert (done.state, done.points_done, done.cache_hits) == ("done", 2, 1)
        assert (done.release, done.duration_s, done.resumed) == ("s.v1", 0.5, 0)

    def test_status_json_drops_request(self):
        rec = JobRecord(
            job_id="job-000001",
            state="done",
            n_points=4,
            spec_hashes=[],
            sweep_hash="s",
            request={"secret": True},
            points_done=4,
            cache_hits=1,
        )
        doc = rec.status_json()
        assert "request" not in doc
        assert doc["cache_hit_ratio"] == 0.25
        # Status polls carry no per-point state.
        assert set(doc) == {
            "job_id", "state", "n_points", "spec_hashes", "sweep_hash",
            "points_done", "cache_hits", "duration_s", "error", "release",
            "resumed", "cache_hit_ratio",
        }

    def test_sweep_hash_is_order_sensitive(self):
        assert sweep_hash(["a", "b"]) != sweep_hash(["b", "a"])
        assert sweep_hash(["a", "b"]) == sweep_hash(["a", "b"])


# -- result store ------------------------------------------------------------


class TestResultStore:
    def _publish(self, store, metrics=None):
        scenarios = scenario_family("saturation-sweep", **QUICK)
        if metrics is None:
            metrics = [{"avg_latency": 4.5, "drained": True} for _ in scenarios]
        hashes = [f"{i:064x}" for i in range(len(scenarios))]
        return store.put(
            sweep_hash=sweep_hash(hashes),
            scenarios=scenarios,
            metrics=metrics,
            spec_hashes=hashes,
        )

    def test_identical_bytes_reuse_release(self, tmp_path):
        store = ResultStore(tmp_path)
        first, reused_a = self._publish(store)
        again, reused_b = self._publish(store)
        assert not reused_a and reused_b
        assert again.release_id == first.release_id
        assert len(list(tmp_path.glob("*.npz"))) == 1

    def test_changed_bytes_mint_next_version(self, tmp_path):
        store = ResultStore(tmp_path)
        first, _ = self._publish(store)
        scenarios = scenario_family("saturation-sweep", **QUICK)
        changed = [{"avg_latency": 9.9, "drained": False} for _ in scenarios]
        second, reused = self._publish(store, metrics=changed)
        assert not reused
        assert second.version == first.version + 1
        # Both versions stay fetchable.
        assert [r.version for r in store.versions(first.sweep_hash)] == [1, 2]

    def test_read_back_header_and_columns(self, tmp_path):
        store = ResultStore(tmp_path)
        release, _ = self._publish(store)
        header, columns = store.read(release.sweep_hash)
        assert header["n_points"] == 2
        assert header["metrics"][0]["avg_latency"] == 4.5
        np.testing.assert_allclose(
            columns["metric_avg_latency.npy"], [4.5, 4.5]
        )

    def test_none_metrics_become_nan_columns(self, tmp_path):
        store = ResultStore(tmp_path)
        scenarios = scenario_family("saturation-sweep", **QUICK)
        metrics = [
            {"avg_latency": None, "drained": False},
            {"avg_latency": 3.0, "drained": True},
        ]
        hashes = [f"{i:064x}" for i in range(len(scenarios))]
        store.put(
            sweep_hash=sweep_hash(hashes),
            scenarios=scenarios,
            metrics=metrics,
            spec_hashes=hashes,
        )
        _, columns = store.read(sweep_hash(hashes))
        col = columns["metric_avg_latency.npy"]
        assert np.isnan(col[0]) and col[1] == 3.0

    def test_ragged_publish_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="ragged"):
            store.put(
                sweep_hash="0" * 64,
                scenarios=scenario_family("saturation-sweep", **QUICK),
                metrics=[{}],
                spec_hashes=["a"],
            )

    def test_publish_is_byte_deterministic(self, tmp_path):
        a, _ = self._publish(ResultStore(tmp_path / "a"))
        b, _ = self._publish(ResultStore(tmp_path / "b"))
        assert a.read_bytes() == b.read_bytes()


# -- scheduler ---------------------------------------------------------------


class TestScheduler:
    def test_submit_runs_and_matches_direct_runner(self, tmp_path):
        sched = ExperimentScheduler(tmp_path, poll_interval=0.005)
        try:
            record = sched.submit(quick_request())
            done = sched.wait(record.job_id, timeout=120)
            assert done.state == "done"
            assert done.points_done == done.n_points == 2
            direct = Runner().run(scenario_family("saturation-sweep", **QUICK))
            assert sched.result_metrics(record.job_id) == [
                r.metrics for r in direct
            ]
        finally:
            sched.stop()

    def test_duplicate_submission_is_all_cache_hits(self, tmp_path):
        sched = ExperimentScheduler(tmp_path, poll_interval=0.005)
        try:
            first = sched.submit(quick_request())
            second = sched.submit(quick_request())
            done_first = sched.wait(first.job_id, timeout=120)
            done_second = sched.wait(second.job_id, timeout=120)
            assert done_first.cache_hits == 0
            assert done_second.cache_hits == done_second.n_points
            # Byte-identical results reuse the same release.
            assert done_second.release == done_first.release
        finally:
            sched.stop()

    def test_unknown_job_raises(self, tmp_path):
        sched = ExperimentScheduler(tmp_path, auto_start=False)
        with pytest.raises(JobNotFound):
            sched.job("job-999999")

    def test_result_before_done_raises(self, tmp_path):
        sched = ExperimentScheduler(tmp_path, auto_start=False)
        record = sched.submit(quick_request())
        with pytest.raises(JobNotDone):
            sched.result_metrics(record.job_id)

    def test_invalid_submit_persists_nothing(self, tmp_path):
        sched = ExperimentScheduler(tmp_path, auto_start=False)
        with pytest.raises(SchemaError):
            sched.submit({"version": 1})
        assert sched.audit() == []
        assert list(tmp_path.rglob("*.ndjson")) == []

    def test_ids_are_monotonic_and_survive_restart(self, tmp_path):
        sched = ExperimentScheduler(tmp_path, auto_start=False)
        a = sched.submit(quick_request())
        b = sched.submit(quick_request())
        assert (a.job_id, b.job_id) == ("job-000001", "job-000002")
        reopened = ExperimentScheduler(tmp_path, auto_start=False)
        c = reopened.submit(quick_request())
        assert c.job_id == "job-000003"

    def test_traversal_ids_rejected(self, tmp_path):
        sched = ExperimentScheduler(tmp_path, auto_start=False)
        sched.submit(quick_request())
        for job_id in ("../x", "../../etc/passwd", "job-000001/../x"):
            with pytest.raises(JobNotFound):
                sched.job(job_id)
            with pytest.raises(JobNotFound):
                sched.ledger_events(job_id)

    def test_restart_resumes_checkpointed_job(self, tmp_path):
        # Stage a "killed mid-run" service: the cache checkpoint holds the
        # first point, the job's ledger says 'running' with one point done.
        cold = ExperimentScheduler(tmp_path, auto_start=False)
        record = cold.submit(quick_request())
        scenarios = scenario_family("saturation-sweep", **QUICK)
        warm_cache = EvaluationCache()
        Runner(cache=warm_cache).run(scenarios[:1])
        warm_cache.flush(cold.cache_path)
        with RunLedger(cold.ledger_dir / f"{record.job_id}.ndjson") as ledger:
            ledger.append("job.running")
            ledger.append("point.completed", point=0, cached=False)

        reborn = ExperimentScheduler(tmp_path, poll_interval=0.005)
        try:
            done = reborn.wait(record.job_id, timeout=120)
            assert done.state == "done"
            assert done.resumed == 1
            # The checkpointed point came back as a cache hit.
            assert done.cache_hits >= 1
            direct = Runner().run(scenarios)
            assert reborn.result_metrics(record.job_id) == [
                r.metrics for r in direct
            ]
        finally:
            reborn.stop()

    def test_pre_log_cache_file_is_ignored(self, tmp_path):
        # A state dir from before the cache log holds a whole-file
        # cache.json (format 1) with this job's points under wrong
        # metrics. Its entries carry no semantics epoch: boot warns once,
        # neither reads nor deletes it, and the job runs its points fresh.
        from repro.experiments import scenario_hash

        scenarios = scenario_family("saturation-sweep", **QUICK)
        legacy = tmp_path / "cache.json"
        entries = {
            scenario_hash(s): {
                "scenario": scenario_to_json(s),
                "metrics": {"avg_latency": -1.0},
            }
            for s in scenarios
        }
        legacy.write_text(
            json.dumps({"version": 1, "entries": entries}, indent=2, sort_keys=True)
        )
        before = legacy.read_bytes()
        stream = io.StringIO()
        setup_logging("warning", stream=stream)
        sched = ExperimentScheduler(tmp_path, poll_interval=0.005)
        try:
            done = sched.wait(sched.submit(quick_request()).job_id, timeout=120)
            assert done.state == "done"
            assert done.cache_hits == 0
            direct = Runner().run(scenarios)
            assert sched.result_metrics(done.job_id) == [r.metrics for r in direct]
        finally:
            sched.stop()
        assert legacy.read_bytes() == before
        assert stream.getvalue().count(str(legacy)) == 1

    def test_metrics_match_job_store_after_kill_resume(self, tmp_path):
        # The registry's counters must tell the same story as the job
        # records' ground truth across a staged kill + resume.
        from repro.obs import metrics_snapshot, reset_metrics

        reset_metrics()
        cold = ExperimentScheduler(tmp_path, auto_start=False)
        record = cold.submit(quick_request())
        scenarios = scenario_family("saturation-sweep", **QUICK)
        warm_cache = EvaluationCache()
        Runner(cache=warm_cache).run(scenarios[:1])
        warm_cache.flush(cold.cache_path)
        with RunLedger(cold.ledger_dir / f"{record.job_id}.ndjson") as ledger:
            ledger.append("job.running")
            ledger.append("point.completed", point=0, cached=False)

        reborn = ExperimentScheduler(tmp_path, poll_interval=0.005)
        try:
            done = reborn.wait(record.job_id, timeout=120)
        finally:
            reborn.stop()
        counters = metrics_snapshot()["counters"]
        records = reborn.audit()
        assert counters["scheduler.jobs.submitted"] == 1
        assert counters["scheduler.jobs.requeued"] == 1
        assert (
            counters["scheduler.jobs.done"]
            == sum(r.state == "done" for r in records)
            == 1
        )
        assert (
            counters["scheduler.points_completed"]
            == done.points_done
            == sum(r.points_done for r in records)
        )
        assert reborn.jobs_by_state() == {"done": 1}
        assert reborn.queue_depth() == 0

    def test_restart_rebuilds_every_job_from_its_ledger(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        def boom(scenario, **kwargs):
            raise RuntimeError("boom")

        sched = ExperimentScheduler(tmp_path, poll_interval=0.005)
        done = sched.wait(sched.submit(quick_request()).job_id, timeout=120)
        with monkeypatch.context() as m:
            m.setattr(runner_mod, "evaluate_scenario", boom)
            failing = sched.submit(quick_request(params={"rates": [0.3], "cycles": 300}))
            failed = sched.wait(failing.job_id, timeout=120)
        sched.stop()
        queued = sched.submit(quick_request(params={"rates": [0.2], "cycles": 300}))
        interrupted = sched.submit(
            quick_request(params={"rates": [0.15, 0.25], "cycles": 300})
        )
        with RunLedger(sched.ledger_dir / f"{interrupted.job_id}.ndjson") as ledger:
            ledger.append("job.running")
            ledger.append("point.completed", point=0, cached=False)
            ledger.append("job.interrupted", points_done=1)
        assert (done.state, failed.state) == ("done", "failed")
        assert failed.error == "RuntimeError: boom"
        assert failed.duration_s is not None
        before = {d["job_id"]: d for d in sched.audit_json()}

        reborn = ExperimentScheduler(tmp_path, auto_start=False, poll_interval=0.005)
        after = {d["job_id"]: d for d in reborn.audit_json()}
        assert after[done.job_id] == before[done.job_id]
        assert after[failed.job_id] == before[failed.job_id]
        for job_id in (queued.job_id, interrupted.job_id):
            assert after[job_id]["state"] == "queued"
            assert after[job_id]["resumed"] == 1
        assert reborn.result_metrics(done.job_id) == sched.result_metrics(done.job_id)
        assert reborn.release(done.job_id).release_id == done.release
        reborn.start()
        try:
            for job_id in (queued.job_id, interrupted.job_id):
                assert reborn.wait(job_id, timeout=120).state == "done"
        finally:
            reborn.stop()

    def test_pre_ledger_state_dir_is_ignored(self, tmp_path):
        # A state dir from before the ledger was the only job record: a
        # jobs/ directory of JSON records, and ledgers whose job.submitted
        # carries no request. Boot warns once, neither lists nor resumes
        # those jobs, leaves jobs/ alone, and never reuses their ids.
        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        legacy = jobs_dir / "job-000001.json"
        legacy.write_text(
            json.dumps({"job_id": "job-000001", "state": "running", "n_points": 2})
        )
        before = legacy.read_bytes()
        with RunLedger(tmp_path / "ledger" / "job-000002.ndjson") as ledger:
            ledger.append("job.submitted", n_points=2, sweep="0" * 64)
            ledger.append("point.queued", point=0)
            ledger.append("point.queued", point=1)
            ledger.append("job.running")
        stream = io.StringIO()
        setup_logging("warning", stream=stream)
        sched = ExperimentScheduler(tmp_path, auto_start=False)
        assert sched.audit() == []
        assert sched.queue_depth() == 0
        assert sched.submit(quick_request()).job_id == "job-000003"
        assert legacy.read_bytes() == before
        log = stream.getvalue()
        assert log.count(str(jobs_dir)) == 1
        assert "old_ledgers=1" in log

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_finished_jobs_close_their_ledgers(self, tmp_path):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        def run_job():
            job_id = sched.submit(quick_request()).job_id
            assert sched.wait(job_id, timeout=120).state == "done"
            sched.job_spans(job_id)  # returns once the job left the dispatcher

        sched = ExperimentScheduler(tmp_path, poll_interval=0.005)
        try:
            run_job()
            before = open_fds()
            for _ in range(5):
                run_job()
            assert open_fds() <= before
        finally:
            sched.stop()

    def test_failing_job_does_not_stop_the_dispatcher(self, tmp_path, monkeypatch):
        append = RunLedger.append
        raised = []

        def flaky_append(ledger, event, **data):
            if event == "job.running" and not raised:
                raised.append(ledger.job_id)
                raise OSError(24, "Too many open files")
            return append(ledger, event, **data)

        monkeypatch.setattr(RunLedger, "append", flaky_append)
        sched = ExperimentScheduler(tmp_path, poll_interval=0.005)
        try:
            first = sched.submit(quick_request())
            second = sched.submit(quick_request())
            failed = sched.wait(first.job_id, timeout=30)
            assert failed.state == "failed"
            assert "Too many open files" in failed.error
            assert sched.wait(second.job_id, timeout=120).state == "done"
        finally:
            sched.stop()
        assert raised == [first.job_id]
        events = load_ledger(sched.ledger_dir / f"{first.job_id}.ndjson")
        assert events[-1]["event"] == "job.failed"
        assert replay_ledger(events).state == "failed"

    def test_failed_batched_unit_fails_every_point(
        self, tmp_path, monkeypatch, lockstep
    ):
        from repro.simulation import BatchSimulator

        def boom(self, traces, **kwargs):
            raise RuntimeError("lockstep boom")

        monkeypatch.setattr(BatchSimulator, "run_batch", boom)
        sched = ExperimentScheduler(tmp_path, poll_interval=0.005)
        try:
            job = sched.submit(quick_request())
            failed = sched.wait(job.job_id, timeout=120)
        finally:
            sched.stop()
        assert failed.state == "failed"
        assert failed.error == "RuntimeError: lockstep boom"
        assert failed.failed_points == failed.n_points == 2
        assert failed.point_states == {0: "failed", 1: "failed"}
        # /progress reads the same record: every point is accounted for.
        progress = sched.progress_json(job.job_id)
        assert progress["failed"] == 2
        assert (
            progress["completed"] + progress["cached"] + progress["failed"]
            == failed.n_points
        )

    def test_submit_events_precede_dispatch(self, tmp_path, monkeypatch):
        append = RunLedger.append

        def slow_append(ledger, event, **data):
            if event == "point.queued":
                time.sleep(0.03)
            return append(ledger, event, **data)

        monkeypatch.setattr(RunLedger, "append", slow_append)
        sched = ExperimentScheduler(tmp_path, poll_interval=0.005)
        try:
            request = quick_request(params={"rates": [0.05, 0.1, 0.15], "cycles": 300})
            job_id = sched.submit(request).job_id
            assert sched.wait(job_id, timeout=120).state == "done"
        finally:
            sched.stop()
        events = sched.ledger_events(job_id)
        assert [e["event"] for e in events[:4]] == [
            "job.submitted",
            "point.queued",
            "point.queued",
            "point.queued",
        ]
        assert replay_ledger(events).point_states == {
            i: "completed" for i in range(3)
        }

    def test_job_spans_capture_the_runner_trace(self, tmp_path):
        from repro.obs import export_trace

        sched = ExperimentScheduler(tmp_path, poll_interval=0.005)
        try:
            record = sched.submit(quick_request())
            sched.wait(record.job_id, timeout=120)
            spans = sched.job_spans(record.job_id)
        finally:
            sched.stop()
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        [job_span] = by_name["service.job"]
        assert job_span.attrs == {"job": record.job_id}
        assert job_span.parent_id is None
        [sweep] = by_name["runner.sweep"]
        assert sweep.parent_id == job_span.span_id
        points = by_name["runner.point"]
        assert len(points) == record.n_points
        assert all(p.parent_id == sweep.span_id for p in points)
        # The deterministic export of the captured trace is JSON-safe.
        doc = export_trace(spans, deterministic=True)
        assert doc["n_spans"] == len(spans)
        with pytest.raises(JobNotFound):
            sched.job_spans("job-999999")

    def test_job_spans_wait_for_capture_after_done(self, tmp_path, monkeypatch):
        """A job reads 'done' before its span closes and is captured; a
        caller that sees 'done' must still get the job's whole trace."""
        close = RunLedger.close

        def slow_close(ledger):
            # The running job's ledger closes after its job.done append
            # and before its service.job span is captured.
            time.sleep(0.2)
            close(ledger)

        monkeypatch.setattr(RunLedger, "close", slow_close)
        sched = ExperimentScheduler(tmp_path, poll_interval=0.005)
        try:
            record = sched.submit(quick_request())
            sched.wait(record.job_id, timeout=120)
            names = {s.name for s in sched.job_spans(record.job_id)}
        finally:
            sched.stop()
        assert {"service.job", "runner.sweep", "runner.point"} <= names

    def test_sweeps_run_on_the_dispatcher_thread(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        evaluate = runner_mod.evaluate_scenario
        seen = []

        def note_threads(scenario, **kwargs):
            seen.append(
                (
                    threading.current_thread().name,
                    {t.name for t in threading.enumerate()},
                )
            )
            return evaluate(scenario, **kwargs)

        monkeypatch.setattr(runner_mod, "evaluate_scenario", note_threads)
        sched = ExperimentScheduler(tmp_path, jobs=1, poll_interval=0.005)
        try:
            job_id = sched.submit(quick_request()).job_id
            assert sched.wait(job_id, timeout=120).state == "done"
        finally:
            sched.stop()
        assert len(seen) == 2
        for current, names in seen:
            assert current == "repro-dispatch"
            assert not names & {"repro-sweep", "repro-metrics-sampler"}

    def test_live_stop_parks_the_job_for_the_next_boot(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        evaluate = runner_mod.evaluate_scenario
        sched = ExperimentScheduler(tmp_path, poll_interval=0.005)
        stopper = threading.Thread(target=sched.stop)
        calls = []

        def stop_during_second_point(scenario, **kwargs):
            calls.append(scenario)
            if len(calls) == 2:
                # stop() joins the dispatcher, which is this thread: run
                # it aside, and finish this point once it has begun.
                stopper.start()
                assert sched._stop.wait(10)
            return evaluate(scenario, **kwargs)

        request = quick_request(
            params={"rates": [0.05, 0.1, 0.15, 0.2], "cycles": 300}
        )
        with monkeypatch.context() as m:
            m.setattr(runner_mod, "evaluate_scenario", stop_during_second_point)
            # Evaluate point by point, never as one lockstep chunk.
            m.setattr(runner_mod, "LOCKSTEP_MIN_WORK", math.inf)
            job_id = sched.submit(request).job_id
            deadline = time.monotonic() + 120
            while stopper.ident is None:
                assert time.monotonic() < deadline, "the job never ran"
                time.sleep(0.005)
            stopper.join(timeout=120)
            assert not stopper.is_alive()

        parked = sched.job(job_id)
        assert (parked.state, parked.points_done) == ("running", 2)
        events = sched.ledger_events(job_id)
        assert events[-1]["event"] == "job.interrupted"
        assert replay_ledger(events).state == "running"
        assert len(sched.cache_path.read_bytes().splitlines()) == 2

        # A live start() requeues the parked job, as the next boot would.
        sched.start()
        try:
            done = sched.wait(job_id, timeout=60)
        finally:
            sched.stop()
        assert (done.state, done.resumed, done.cache_hits) == ("done", 1, 2)
        assert sched.progress_json(job_id)["points_done"] == 4

        reborn = ExperimentScheduler(tmp_path, poll_interval=0.005)
        try:
            rebooted = reborn.wait(job_id, timeout=120)
        finally:
            reborn.stop()
        assert (rebooted.state, rebooted.resumed, rebooted.cache_hits) == (
            "done", 1, 2
        )
        direct = Runner().run(scenario_family("saturation-sweep", **request["params"]))
        assert reborn.result_metrics(job_id) == [r.metrics for r in direct]

    def test_uptime_and_queue_depth(self, tmp_path):
        sched = ExperimentScheduler(tmp_path, auto_start=False)
        assert sched.uptime_s() >= 0
        assert sched.queue_depth() == 0
        sched.submit(quick_request())
        assert sched.queue_depth() == 1
        assert sched.jobs_by_state() == {"queued": 1}

    def test_cold_result_metrics_read_from_release(self, tmp_path):
        sched = ExperimentScheduler(tmp_path, poll_interval=0.005)
        try:
            record = sched.submit(quick_request())
            sched.wait(record.job_id, timeout=120)
            hot = sched.result_metrics(record.job_id)
        finally:
            sched.stop()
        reopened = ExperimentScheduler(tmp_path, auto_start=False)
        assert reopened.result_metrics(record.job_id) == hot


# -- streaming ---------------------------------------------------------------


class TestWindowRows:
    def test_rows_for_telemetry_scenario(self):
        [scenario] = scenario_family(
            "telemetry-profile", rates=[0.1], cycles=512, window=128
        )
        rows = window_rows(scenario)
        assert rows[0]["type"] == "prologue"
        assert rows[0]["window_cycles"] == 128
        body = rows[1:]
        assert len(body) == rows[0]["n_windows"]
        assert all(r["type"] == "window" for r in body)
        assert all(r["delivered"] >= 0 for r in body)

    def test_rejects_scenarios_without_telemetry(self):
        [scenario] = scenario_family(
            "saturation-sweep", rates=[0.05], cycles=300
        )
        with pytest.raises(ValueError, match="telemetry"):
            window_rows(scenario)


# -- API routing (transport-free) --------------------------------------------


class TestApiRouting:
    @pytest.fixture
    def api(self, tmp_path):
        sched = ExperimentScheduler(tmp_path, poll_interval=0.005)
        yield ExperimentApi(sched)
        sched.stop()

    @staticmethod
    def _doc(response):
        return json.loads(response.body.decode("utf-8"))

    def test_health(self, api):
        resp = api.handle("GET", "/api/v1/health")
        assert resp.status == 200
        doc = self._doc(resp)
        assert doc["ok"] is True
        assert doc["uptime_s"] >= 0
        assert doc["queue_depth"] == 0
        assert doc["jobs_by_state"] == {}
        assert doc["cache_entries"] == 0

    def test_metrics_endpoint_snapshots_registry(self, api):
        from repro.obs import counter

        counter("test_service.api.probe").inc(3)
        resp = api.handle("GET", "/api/v1/metrics")
        assert resp.status == 200
        doc = self._doc(resp)
        assert doc["metrics"]["counters"]["test_service.api.probe"] >= 3
        assert set(doc["cache"]) == {"hits", "misses", "size"}

    def test_spans_endpoint_exports_job_trace(self, api):
        body = json.dumps(quick_request()).encode()
        job_id = self._doc(api.handle("POST", "/api/v1/jobs", body))["job"][
            "job_id"
        ]
        api.scheduler.wait(job_id, timeout=120)
        resp = api.handle("GET", f"/api/v1/jobs/{job_id}/spans")
        assert resp.status == 200
        doc = self._doc(resp)
        assert doc["job_id"] == job_id
        assert doc["deterministic"] is False
        names = [s["name"] for s in doc["spans"]]
        assert "service.job" in names and "runner.sweep" in names
        assert any(s["duration_ns"] >= 0 for s in doc["spans"])
        det = self._doc(
            api.handle("GET", f"/api/v1/jobs/{job_id}/spans?deterministic=1")
        )
        assert det["deterministic"] is True
        assert all("duration_ns" not in s for s in det["spans"])
        assert api.handle("GET", "/api/v1/jobs/job-424242/spans").status == 404

    def test_submit_poll_result(self, api):
        body = json.dumps(quick_request()).encode()
        resp = api.handle("POST", "/api/v1/jobs", body)
        assert resp.status == 202
        job_id = self._doc(resp)["job"]["job_id"]
        api.scheduler.wait(job_id, timeout=120)
        result = self._doc(api.handle("GET", f"/api/v1/jobs/{job_id}/result"))
        assert len(result["metrics"]) == 2
        npz = api.handle("GET", f"/api/v1/jobs/{job_id}/result.npz")
        assert npz.content_type == "application/octet-stream"
        assert npz.body[:2] == b"PK"  # a zip archive

    def test_schema_violation_is_structured_400(self, api):
        resp = api.handle("POST", "/api/v1/jobs", b'{"version": 99}')
        assert resp.status == 400
        assert self._doc(resp)["error"]["code"] == "unsupported_version"

    def test_invalid_json_is_400(self, api):
        resp = api.handle("POST", "/api/v1/jobs", b"{nope")
        assert resp.status == 400
        assert self._doc(resp)["error"]["code"] == "invalid_json"

    def test_unknown_job_is_404(self, api):
        resp = api.handle("GET", "/api/v1/jobs/job-424242")
        assert resp.status == 404
        assert self._doc(resp)["error"]["code"] == "not_found"

    def test_unfinished_result_is_409(self, api):
        api.scheduler.stop()
        resp = api.handle(
            "POST", "/api/v1/jobs", json.dumps(quick_request()).encode()
        )
        job_id = self._doc(resp)["job"]["job_id"]
        resp = api.handle("GET", f"/api/v1/jobs/{job_id}/result")
        assert resp.status == 409
        assert self._doc(resp)["error"]["code"] == "job_not_done"

    def test_wrong_method_is_405(self, api):
        assert api.handle("PUT", "/api/v1/jobs").status == 405

    def test_unknown_prefix_is_404(self, api):
        assert api.handle("GET", "/nope").status == 404

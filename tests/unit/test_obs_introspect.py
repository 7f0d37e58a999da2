"""Unit tests for sweep introspection: ledger, progress, aggregation.

The run ledger's crash-safety contract (line-atomic appends, torn-tail
truncation, replayability, deterministic export), the progress
counter/throughput/ETA math read off the ledger fold with explicit event
times, the sweep-profile merge's order independence, and the client's
decorrelated-jitter wait backoff — all exercised without a running
service; the end-to-end kill+resume replay check lives in
tests/integration/test_service_http.py.
"""

import json

import pytest

from repro.obs import (
    LEDGER_FORMAT,
    RunLedger,
    SweepProfile,
    export_ledger,
    format_eta,
    job_progress,
    load_ledger,
    merge_profiles,
    render_bar,
    render_progress_line,
    render_sweep_profile,
    render_top,
    replay_ledger,
)
from repro.obs.profile import PhaseProfile
from repro.obs.progress import live_progress

# -- ledger: append / load / torn tail ---------------------------------------


def _write_lifecycle(ledger, *, n_points=2):
    ledger.append("job.submitted", n_points=n_points, sweep="s" * 8)
    for i in range(n_points):
        ledger.append("point.queued", point=i)
    ledger.append("job.running")
    for i in range(n_points):
        ledger.append("point.dispatched", point=i, engine="interpreter")
        ledger.append("point.simulating", point=i, worker=123, worker_t=1.0)
        ledger.append("point.completed", point=i, cached=False)
    ledger.append("job.done", points_done=n_points, cache_hits=0, duration_s=1.5)


class TestRunLedger:
    def test_append_load_round_trip(self, tmp_path):
        path = tmp_path / "job-000001.ndjson"
        with RunLedger(path) as ledger:
            _write_lifecycle(ledger)
        events = load_ledger(path)
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert events[0]["event"] == "job.submitted"
        assert events[0]["job"] == "job-000001"  # job id from file stem
        assert events[-1]["event"] == "job.done"
        assert all("t" in e for e in events)

    def test_each_append_is_one_terminated_line(self, tmp_path):
        path = tmp_path / "a.ndjson"
        with RunLedger(path, job_id="job-1") as ledger:
            ledger.append("job.submitted", n_points=1)
            ledger.append("point.queued", point=0)
        raw = path.read_bytes()
        assert raw.endswith(b"\n")
        assert raw.count(b"\n") == 2

    def test_torn_tail_is_dropped_on_load(self, tmp_path):
        path = tmp_path / "a.ndjson"
        with RunLedger(path, job_id="job-1") as ledger:
            _write_lifecycle(ledger)
        n = len(load_ledger(path))
        # Simulate a crash mid-append: a valid-prefix line without its
        # terminating newline. The writer always terminates, so an
        # unterminated line is torn even when it happens to parse.
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 99, "event": "point.completed", "point": 1}')
        events = load_ledger(path)
        assert len(events) == n
        assert events[-1]["event"] == "job.done"

    def test_torn_garbage_tail_is_dropped(self, tmp_path):
        path = tmp_path / "a.ndjson"
        with RunLedger(path, job_id="job-1") as ledger:
            ledger.append("job.submitted", n_points=1)
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 1, "ev')
        assert [e["event"] for e in load_ledger(path)] == ["job.submitted"]

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "a.ndjson"
        path.write_bytes(b'not json\n{"seq": 0, "event": "job.done"}\n')
        with pytest.raises(ValueError, match="corrupt ledger line 1"):
            load_ledger(path)

    def test_interior_blank_line_raises(self, tmp_path):
        path = tmp_path / "a.ndjson"
        path.write_bytes(b'{"seq": 0, "event": "job.running"}\n\n')
        with pytest.raises(ValueError, match="blank line"):
            load_ledger(path)

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "a.ndjson"
        path.write_bytes(b"[1, 2]\n")
        with pytest.raises(ValueError, match="not an event object"):
            load_ledger(path)

    def test_reopen_truncates_torn_tail_and_continues_seq(self, tmp_path):
        path = tmp_path / "a.ndjson"
        with RunLedger(path, job_id="job-1") as ledger:
            ledger.append("job.submitted", n_points=1)
            ledger.append("point.queued", point=0)
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 2, "event": "point.dis')
        with RunLedger(path, job_id="job-1") as ledger:
            ledger.append("job.requeued", resumed=1)
        events = load_ledger(path)
        assert [e["event"] for e in events] == [
            "job.submitted",
            "point.queued",
            "job.requeued",
        ]
        # seq continues monotonically across the reopen.
        assert [e["seq"] for e in events] == [0, 1, 2]


# -- ledger: replay -----------------------------------------------------------


class TestReplay:
    def test_full_lifecycle(self, tmp_path):
        path = tmp_path / "job-000007.ndjson"
        with RunLedger(path) as ledger:
            _write_lifecycle(ledger, n_points=3)
        rep = replay_ledger(load_ledger(path))
        assert rep.job_id == "job-000007"
        assert rep.state == "done"
        assert rep.n_points == 3
        assert rep.points_done == 3
        assert rep.cache_hits == 0
        assert rep.failed_points == 0
        assert rep.point_states == {i: "completed" for i in range(3)}

    def test_cached_points_count_as_hits(self):
        events = [
            {"event": "job.submitted", "job": "j", "n_points": 2},
            {"event": "job.running"},
            {"event": "point.cached", "point": 0},
            {"event": "point.cached", "point": 1},
            {"event": "job.done", "points_done": 2, "cache_hits": 2},
        ]
        rep = replay_ledger(events)
        assert rep.points_done == 2
        assert rep.cache_hits == 2
        assert rep.point_states == {0: "cached", 1: "cached"}

    def test_requeue_resets_counters(self):
        events = [
            {"event": "job.submitted", "job": "j", "n_points": 2},
            {"event": "job.running"},
            {"event": "point.completed", "point": 0},
            {"event": "job.interrupted", "points_done": 1},
            {"event": "job.requeued", "resumed": 1},
            {"event": "job.running"},
            {"event": "point.cached", "point": 0},
            {"event": "point.completed", "point": 1},
            {"event": "job.done", "points_done": 2, "cache_hits": 1},
        ]
        rep = replay_ledger(events)
        assert rep.state == "done"
        assert rep.resumed == 1
        # Post-requeue counters only: the checkpointed point returns as
        # a cache hit, exactly like JobRecord after a boot-requeue.
        assert rep.points_done == 2
        assert rep.cache_hits == 1

    def test_interrupted_job_replays_as_running(self):
        events = [
            {"event": "job.submitted", "job": "j", "n_points": 2},
            {"event": "job.running"},
            {"event": "point.completed", "point": 0},
            {"event": "job.interrupted", "points_done": 1},
        ]
        rep = replay_ledger(events)
        assert rep.state == "running"  # parked on disk as resumable
        assert rep.points_done == 1

    def test_failed_job_carries_error(self):
        events = [
            {"event": "job.submitted", "job": "j", "n_points": 1},
            {"event": "job.running"},
            {"event": "point.failed", "point": 0, "error": "boom"},
            {"event": "job.failed", "error": "boom"},
        ]
        rep = replay_ledger(events)
        assert rep.state == "failed"
        assert rep.error == "boom"
        assert rep.failed_points == 1
        assert rep.to_json()["point_states"] == {"0": "failed"}


# -- ledger: deterministic export --------------------------------------------


def _pool_interleavings():
    """Two event orders a --jobs 2 pool could emit for the same sweep."""
    base = [{"event": "job.submitted", "job": "j", "n_points": 2, "seq": 0}]
    base += [
        {"event": "point.queued", "point": i, "seq": 1 + i} for i in range(2)
    ]
    base += [{"event": "job.running", "seq": 3}]
    tail = [
        {
            "event": "job.done",
            "points_done": 2,
            "cache_hits": 0,
            "duration_s": 1.0,
            "seq": 10,
        }
    ]
    order_a = [
        {"event": "point.dispatched", "point": 0, "t": 1.0, "seq": 4},
        {"event": "point.dispatched", "point": 1, "t": 1.1, "seq": 5},
        {"event": "point.simulating", "point": 0, "worker": 11, "seq": 6},
        {"event": "point.simulating", "point": 1, "worker": 12, "seq": 7},
        {"event": "point.completed", "point": 0, "worker": 11, "seq": 8},
        {"event": "point.completed", "point": 1, "worker": 12, "seq": 9},
    ]
    order_b = [
        {"event": "point.dispatched", "point": 1, "t": 2.0, "seq": 4},
        {"event": "point.simulating", "point": 1, "worker": 31, "seq": 5},
        {"event": "point.completed", "point": 1, "worker": 31, "seq": 6},
        {"event": "point.dispatched", "point": 0, "t": 2.5, "seq": 7},
        {"event": "point.simulating", "point": 0, "worker": 32, "seq": 8},
        {"event": "point.completed", "point": 0, "worker": 32, "seq": 9},
    ]
    return base + order_a + tail, base + order_b + tail


class TestExport:
    def test_deterministic_export_is_interleaving_invariant(self):
        run_a, run_b = _pool_interleavings()
        doc_a = export_ledger(run_a, deterministic=True)
        doc_b = export_ledger(run_b, deterministic=True)
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(
            doc_b, sort_keys=True
        )

    def test_deterministic_export_strips_volatile_fields(self):
        run_a, _ = _pool_interleavings()
        doc = export_ledger(run_a, deterministic=True)
        assert doc["format"] == LEDGER_FORMAT
        assert doc["deterministic"] is True
        for ev in doc["events"]:
            assert "t" not in ev
            assert "worker" not in ev
            assert "worker_t" not in ev
            assert "duration_s" not in ev
        assert [e["seq"] for e in doc["events"]] == list(
            range(doc["n_events"])
        )

    def test_canonical_order_sorts_points_within_segment(self):
        _, run_b = _pool_interleavings()
        doc = export_ledger(run_b, deterministic=True)
        names = [(e["event"], e.get("point")) for e in doc["events"]]
        # Inside the running segment: point 0's full lifecycle before
        # point 1's, regardless of emission order.
        seg = names[4:-1]
        assert seg == [
            ("point.dispatched", 0),
            ("point.simulating", 0),
            ("point.completed", 0),
            ("point.dispatched", 1),
            ("point.simulating", 1),
            ("point.completed", 1),
        ]

    def test_raw_export_preserves_order_and_fields(self):
        run_a, _ = _pool_interleavings()
        doc = export_ledger(run_a)
        assert doc["deterministic"] is False
        assert doc["events"][4]["t"] == 1.0
        assert [e["seq"] for e in doc["events"]] == [
            e["seq"] for e in run_a
        ]


# -- progress: read off the ledger fold ---------------------------------------


def _running(n_points, *events, t0=100.0):
    """The record of a job running since ``t0``, with ``events`` folded."""
    return replay_ledger(
        [
            {"event": "job.submitted", "job": "j", "n_points": n_points, "t": t0},
            {"event": "job.running", "t": t0},
            *events,
        ]
    )


def _point(stage, point, t):
    return {"event": f"point.{stage}", "point": point, "t": t}


class TestProgressFold:
    def _live(self, record, now, workers=1):
        return live_progress(record, now=now, workers=workers, window_s=10.0)

    def test_counts_and_in_flight(self):
        rec = _running(4, _point("dispatched", 0, 100.0), _point("dispatched", 1, 100.0))
        live = self._live(rec, 100.5, workers=2)
        assert live["in_flight"] == 2
        assert live["completed"] == live["cached"] == live["failed"] == 0
        assert live["utilization"] == 1.0  # 2 in flight / 2 workers
        rec.apply(_point("completed", 0, 101.0))
        rec.apply(_point("cached", 1, 101.0))
        live = self._live(rec, 101.0, workers=2)
        assert live["completed"] == 1
        assert live["cached"] == 1
        assert live["in_flight"] == 0

    def test_throughput_and_eta_are_rate_based(self):
        rec = _running(10, *(_point("completed", i, 101.0 + i) for i in range(4)))
        live = self._live(rec, 104.0)
        # 4 points in 4 elapsed seconds (window covers all of them).
        assert live["throughput_pps"] == pytest.approx(1.0)
        assert live["eta_s"] == pytest.approx(6.0)

    def test_eta_is_none_before_first_completion(self):
        rec = _running(5, _point("dispatched", 0, 100.0))
        live = self._live(rec, 103.0)
        assert live["throughput_pps"] == 0.0
        assert live["eta_s"] is None

    def test_stale_completions_age_out_of_the_window(self):
        rec = _running(10, _point("completed", 0, 100.0))
        live = self._live(rec, 160.0)  # way past window_s=10
        assert live["throughput_pps"] == 0.0
        assert live["eta_s"] is None

    def test_failed_points_reduce_remaining(self):
        rec = _running(3, _point("completed", 0, 101.0), _point("failed", 1, 101.0))
        live = self._live(rec, 101.0)
        assert live["failed"] == 1
        # remaining = 3 - 1 done - 1 failed = 1 point at 1 pt/s.
        assert live["eta_s"] == pytest.approx(1.0)

    def test_requeue_resets_the_window(self):
        rec = _running(
            2,
            _point("completed", 0, 101.0),
            {"event": "job.interrupted", "t": 101.5},
            {"event": "job.requeued", "resumed": 1, "t": 200.0},
        )
        assert (rec.running_t, rec.completion_ts) == (None, [])
        rec.apply({"event": "job.running", "t": 200.0})
        live = self._live(rec, 200.5)
        # The pre-restart completion no longer counts towards the rate.
        assert live["throughput_pps"] == 0.0
        assert live["eta_s"] is None
        assert live["elapsed_s"] == 0.5

    def test_finished_jobs_report_final_counts(self):
        failed = _running(2, _point("failed", 0, 101.0), _point("failed", 1, 101.0))
        failed.apply({"event": "job.failed", "error": "boom", "t": 101.0})
        doc = job_progress(failed, now=500.0, workers=1)
        assert (doc["completed"], doc["cached"], doc["failed"]) == (0, 0, 2)
        assert (doc["in_flight"], doc["eta_s"], doc["throughput_pps"]) == (0, None, None)
        done = _running(2, _point("completed", 0, 101.0), _point("cached", 1, 101.0))
        done.apply({"event": "job.done", "duration_s": 4.0, "t": 104.0})
        doc = job_progress(done, now=500.0, workers=1)
        assert (doc["completed"], doc["cached"], doc["failed"]) == (1, 1, 0)
        assert (doc["eta_s"], doc["elapsed_s"], doc["throughput_pps"]) == (0.0, 4.0, 0.5)
        assert "workers" not in doc


# -- rendering helpers --------------------------------------------------------


class TestRendering:
    def test_render_bar(self):
        assert render_bar(0, 4, width=4) == "[....]"
        assert render_bar(2, 4, width=4) == "[##..]"
        assert render_bar(4, 4, width=4) == "[####]"
        assert render_bar(1, 0, width=4) == "[####]"

    def test_format_eta(self):
        assert format_eta(None) == "-"
        assert format_eta(42) == "42s"
        assert format_eta(185) == "3m05s"
        assert format_eta(4320) == "1h12m"

    def test_render_progress_line(self):
        line = render_progress_line(
            {
                "job_id": "job-000001",
                "state": "running",
                "n_points": 4,
                "points_done": 2,
                "throughput_pps": 1.5,
                "eta_s": 80.0,
            }
        )
        assert "job-000001" in line
        assert "2/4" in line
        assert "50.0%" in line
        assert "1.50 pt/s" in line
        assert "eta 1m20s" in line

    def test_render_top_orders_running_first(self):
        screen = render_top(
            [
                {"job_id": "job-2", "state": "done", "n_points": 2,
                 "points_done": 2},
                {"job_id": "job-1", "state": "running", "n_points": 4,
                 "points_done": 1, "in_flight": 2, "throughput_pps": 0.5,
                 "eta_s": 6.0},
            ],
        )
        rows = [l for l in screen.splitlines() if "job-" in l]
        assert "job-1" in rows[0] and "running" in rows[0]
        assert "job-2" in rows[1]


# -- sweep profile aggregation ------------------------------------------------


def _profile(engine, phases, counts=None):
    prof = PhaseProfile()
    prof.engine = engine
    for name, ns in phases.items():
        prof.phases[name] = ns
    prof.counts.update(counts or {})
    return prof


class TestMergeProfiles:
    def test_merge_is_order_independent(self):
        profs = [
            _profile("interpreter", {"setup": 100 + i, "drain": 10 * i})
            for i in range(7)
        ]
        fwd = merge_profiles(profs)
        rev = merge_profiles(list(reversed(profs)))
        assert fwd.to_json() == rev.to_json()

    def test_none_entries_are_skipped(self):
        sweep = merge_profiles(
            [None, _profile("interpreter", {"setup": 5}), None]
        )
        assert sweep.n_profiles == 1
        assert sweep.engines["interpreter"].n_points == 1

    def test_percentiles_and_totals(self):
        profs = [
            _profile("batched", {"setup": ns}) for ns in (10, 20, 30, 40)
        ]
        agg = merge_profiles(profs).engines["batched"]
        stats = agg.phases["setup"]
        assert stats.total_ns == 100
        assert stats.n == 4
        assert stats.min_ns == 10 and stats.max_ns == 40
        assert stats.p50_ns == pytest.approx(25.0)
        assert stats.p99_ns == pytest.approx(39.7)

    def test_counts_sum_across_points(self):
        profs = [
            _profile("interpreter", {"setup": 1}, {"sim_cycles": 100}),
            _profile("interpreter", {"setup": 2}, {"sim_cycles": 150}),
        ]
        agg = merge_profiles(profs).engines["interpreter"]
        assert agg.counts == {"sim_cycles": 250}

    def test_engines_aggregate_separately(self):
        sweep = merge_profiles(
            [
                _profile("interpreter", {"setup": 1}),
                _profile("batched", {"setup": 2}),
            ]
        )
        assert set(sweep.engines) == {"interpreter", "batched"}

    def test_deterministic_json_drops_all_timing(self):
        profs = [_profile("interpreter", {"setup": 123}, {"sim_cycles": 9})]
        doc = merge_profiles(profs).to_json(deterministic=True)
        assert doc["engines"]["interpreter"] == {
            "n_points": 1,
            "phases": ["setup"],
            "counts": {"sim_cycles": 9},
        }
        assert "ns" not in json.dumps(doc["engines"])

    def test_from_json_round_trips(self):
        profs = [
            _profile("interpreter", {"setup": 10, "drain": 5}),
            _profile("interpreter", {"setup": 30, "drain": 15}),
        ]
        sweep = merge_profiles(profs)
        rebuilt = SweepProfile.from_json(sweep.to_json())
        assert rebuilt.to_json() == sweep.to_json()

    def test_from_json_rejects_deterministic_docs(self):
        doc = merge_profiles(
            [_profile("interpreter", {"setup": 1})]
        ).to_json(deterministic=True)
        with pytest.raises(ValueError, match="deterministic"):
            SweepProfile.from_json(doc)

    def test_render_sweep_profile(self):
        sweep = merge_profiles(
            [_profile("interpreter", {"setup": 3_000_000, "drain": 1_000_000},
                      {"sim_cycles": 5})]
        )
        text = render_sweep_profile(sweep)
        assert "engine interpreter — 1 point(s)" in text
        assert "setup" in text and "drain" in text
        assert "p50" in text and "p99" in text
        assert "sim_cycles=5" in text

    def test_render_empty_sweep(self):
        assert "no profiles captured" in render_sweep_profile(
            merge_profiles([])
        )


# -- client wait backoff ------------------------------------------------------


class TestWaitBackoff:
    def _client(self, states):
        from repro.service import ServiceClient

        client = ServiceClient("http://test.invalid")
        seq = iter(states)
        client.status = lambda job_id: {
            "state": next(seq),
            "points_done": 0,
            "n_points": 1,
        }
        return client

    def test_backoff_is_decorrelated_and_capped(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", sleeps.append
        )
        # Deterministic "jitter": always the top of the [poll, 3*prev]
        # range, so delays grow geometrically until the cap.
        monkeypatch.setattr(
            "repro.service.client.random.uniform", lambda lo, hi: hi
        )
        client = self._client(["running"] * 6 + ["done"])
        job = client.wait("job-1", poll=0.2, max_poll=5.0)
        assert job["state"] == "done"
        assert sleeps == pytest.approx([0.2, 0.6, 1.8, 5.0, 5.0, 5.0])

    def test_backoff_disabled_keeps_fixed_interval(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", sleeps.append
        )
        client = self._client(["running"] * 3 + ["done"])
        client.wait("job-1", poll=0.25, backoff=False)
        assert sleeps == pytest.approx([0.25, 0.25, 0.25])

    def test_sleep_never_overshoots_the_deadline(self, monkeypatch):
        from repro.service import ServiceError

        t = {"now": 0.0}
        sleeps = []

        def fake_sleep(s):
            sleeps.append(s)
            t["now"] += s

        monkeypatch.setattr(
            "repro.service.client.time.monotonic", lambda: t["now"]
        )
        monkeypatch.setattr("repro.service.client.time.sleep", fake_sleep)
        monkeypatch.setattr(
            "repro.service.client.random.uniform", lambda lo, hi: hi
        )
        client = self._client(["running"] * 50)
        with pytest.raises(ServiceError) as exc:
            client.wait("job-1", timeout=3.0, poll=1.0)
        assert exc.value.code == "timeout"
        assert sum(sleeps) <= 3.0 + 1e-9

    def test_jitter_stays_inside_the_envelope(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", sleeps.append
        )
        client = self._client(["running"] * 20 + ["done"])
        client.wait("job-1", poll=0.1, max_poll=5.0)
        assert all(0.1 - 1e-9 <= s <= 5.0 + 1e-9 for s in sleeps)


# -- schema: the profile flag -------------------------------------------------


class TestProfileFlag:
    def _request(self, **extra):
        return {
            "version": 1,
            "family": "saturation-sweep",
            "params": {"rates": [0.05], "cycles": 300},
            **extra,
        }

    def test_defaults_to_off(self):
        from repro.service import parse_request

        assert parse_request(self._request()).profile is False

    def test_opt_in(self):
        from repro.service import parse_request

        assert parse_request(self._request(profile=True)).profile is True

    def test_non_bool_is_a_schema_error(self):
        from repro.service import SchemaError, parse_request

        with pytest.raises(SchemaError) as exc:
            parse_request(self._request(profile="yes"))
        assert exc.value.code == "invalid_profile"
        assert exc.value.path == ("profile",)

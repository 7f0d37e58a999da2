"""Unit tests for repro.obs: metrics, tracing, logging, profiling.

The subsystem's three contracts are pinned here:

* **zero-cost when off** — a profiled run's ``SimStats`` is bitwise
  identical to an unprofiled one (both engines), and a disabled span
  records nothing;
* **deterministic exports** — metric snapshots and deterministic trace
  exports of identical state serialize to identical bytes;
* **reset-in-place** — instruments hold metric references across
  :func:`reset_metrics`, so tests can zero the registry without
  re-wiring any instrumentation.
"""

import io
import json
import logging
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import Runner, scenario_family
from repro.obs import (
    Counter,
    MetricsRegistry,
    PhaseProfile,
    SpanRecord,
    clear_spans,
    counter,
    enable_tracing,
    export_trace,
    fields,
    get_logger,
    get_spans,
    merge_exported,
    metrics_snapshot,
    profile_simulation,
    render_profiles,
    reset_metrics,
    setup_logging,
    span,
    take_spans,
    tracing_enabled,
)
from repro.obs.profile import BATCH_PHASES, INTERPRETER_PHASES


@pytest.fixture
def tracing():
    """Enabled tracing with a clean buffer; restores the prior state."""
    was = tracing_enabled()
    clear_spans()
    enable_tracing(True)
    yield
    enable_tracing(was)
    clear_spans()


# -- metrics -----------------------------------------------------------------


class TestMetrics:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(3)
        g.inc()
        g.dec(2.5)
        assert g.value == 1.5

    def test_histogram_buckets_sum_to_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("ms", bounds=(1.0, 10.0))
        for v in (0.2, 0.9, 5.0, 50.0, 1e9):
            h.observe(v)
        doc = h.to_json()
        assert doc["count"] == 5
        assert sum(doc["buckets"].values()) == doc["count"]
        assert doc["buckets"] == {"1": 2, "10": 1, "+inf": 2}
        assert doc["min"] == 0.2 and doc["max"] == 1e9
        assert h.mean == pytest.approx(doc["sum"] / 5)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError, match="sorted"):
            MetricsRegistry().histogram("bad", bounds=(5.0, 1.0))

    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("a") is reg.gauge("a")
        with pytest.raises(ValueError, match="non-empty"):
            reg.counter("")

    def test_snapshot_is_deterministic_bytes(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("z.last").inc(3)
            reg.counter("a.first").inc(1)
            reg.gauge("depth").set(2)
            reg.histogram("ms").observe(4.2)
            return json.dumps(reg.snapshot(), sort_keys=True)

        assert build() == build()

    def test_reset_zeroes_in_place(self):
        # The process-registry contract: a module-held Counter stays
        # registered (and live) across reset_metrics().
        held = counter("test_obs.reset.probe")
        held.inc(7)
        reset_metrics()
        assert held.value == 0
        held.inc()
        assert metrics_snapshot()["counters"]["test_obs.reset.probe"] == 1


# -- tracing -----------------------------------------------------------------


class TestTrace:
    def test_disabled_span_records_nothing(self):
        was = tracing_enabled()
        enable_tracing(False)
        try:
            clear_spans()
            with span("noop", k=1) as rec:
                assert rec is None
            assert get_spans() == []
        finally:
            enable_tracing(was)

    def test_nesting_links_parent_ids(self, tracing):
        with span("outer") as outer:
            with span("inner") as inner:
                pass
        spans = {s.name: s for s in take_spans()}
        assert spans["inner"].parent_id == outer.span_id
        assert spans["outer"].parent_id is None
        assert inner.duration_ns >= 0

    def test_take_spans_drains(self, tracing):
        with span("once"):
            pass
        assert len(take_spans()) == 1
        assert take_spans() == []

    def test_merge_exported_reparents_roots(self, tracing):
        with span("parent") as parent:
            pass
        parent_id = parent.span_id
        # A worker trace shipped as to_json payloads, ids from a fake pid.
        payload = [
            SpanRecord(
                name="worker.root",
                span_id="beef-0",
                parent_id=None,
                seq=0,
                start_ns=1,
                duration_ns=2,
                wall_ns=3,
                pid=0xBEEF,
                thread_id=1,
            ).to_json(),
            SpanRecord(
                name="worker.child",
                span_id="beef-1",
                parent_id="beef-0",
                seq=1,
                start_ns=2,
                duration_ns=1,
                wall_ns=4,
                pid=0xBEEF,
                thread_id=1,
            ).to_json(),
        ]
        merge_exported(payload, parent_id=parent_id)
        by_name = {s.name: s for s in get_spans()}
        assert by_name["worker.root"].parent_id == parent_id
        assert by_name["worker.child"].parent_id == "beef-0"

    def test_export_renumbers_ids_densely(self, tracing):
        with span("a"):
            with span("b"):
                pass
        doc = export_trace(take_spans())
        ids = [s["span_id"] for s in doc["spans"]]
        assert ids == ["0", "1"]
        assert doc["spans"][1]["parent_id"] == "0"
        assert doc["n_spans"] == 2

    def test_deterministic_export_is_byte_stable(self, tracing):
        def run():
            clear_spans()
            with span("job", job="j1"):
                for i in range(3):
                    with span("point", i=i):
                        pass
            return json.dumps(
                export_trace(take_spans(), deterministic=True), sort_keys=True
            )

        first, second = run(), run()
        assert first == second
        doc = json.loads(first)
        assert doc["deterministic"] is True
        for s in doc["spans"]:
            assert set(s) == {"name", "span_id", "parent_id", "attrs"}

    def test_full_export_keeps_timing(self, tracing):
        with span("timed"):
            pass
        [s] = export_trace(take_spans())["spans"]
        assert s["duration_ns"] >= 0 and s["pid"] > 0


# -- logging -----------------------------------------------------------------


class TestLogging:
    def _capture(self, *, json_mode):
        stream = io.StringIO()
        setup_logging("debug", json_mode=json_mode, stream=stream)
        return stream

    def teardown_method(self):
        # Leave the repro logger unconfigured for other tests.
        logging.getLogger("repro").handlers.clear()

    def test_keyvalue_format(self):
        stream = self._capture(json_mode=False)
        get_logger("test").info("hello there", extra=fields(a=1, b="x"))
        line = stream.getvalue().strip()
        assert " INFO repro.test hello there a=1 b=x" in line

    def test_json_format(self):
        stream = self._capture(json_mode=True)
        get_logger("test").warning("watch out", extra=fields(code=7))
        doc = json.loads(stream.getvalue())
        assert doc["level"] == "warning"
        assert doc["logger"] == "repro.test"
        assert doc["msg"] == "watch out"
        assert doc["code"] == 7

    def test_level_threshold(self):
        stream = io.StringIO()
        setup_logging("warning", stream=stream)
        get_logger("test").info("dropped")
        get_logger("test").error("kept")
        assert "dropped" not in stream.getvalue()
        assert "kept" in stream.getvalue()

    def test_setup_is_idempotent(self):
        stream = io.StringIO()
        setup_logging("info", stream=stream)
        setup_logging("info", stream=stream)
        assert len(logging.getLogger("repro").handlers) == 1

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError, match="log level"):
            setup_logging("loud")

    def test_get_logger_prefixes_once(self):
        assert get_logger("x").name == "repro.x"
        assert get_logger("repro.x").name == "repro.x"

    def test_json_escapes_newlines_and_quotes(self):
        stream = self._capture(json_mode=True)
        get_logger("test").info(
            'line one\nline "two"', extra=fields(note='a\n"b"')
        )
        raw = stream.getvalue()
        assert raw.count("\n") == 1  # one record -> one physical line
        doc = json.loads(raw)
        assert doc["msg"] == 'line one\nline "two"'
        assert doc["note"] == 'a\n"b"'

    def test_json_stringifies_non_serializable_fields(self):
        stream = self._capture(json_mode=True)
        get_logger("test").info("obj", extra=fields(p=pathlib.Path("/tmp/x")))
        doc = json.loads(stream.getvalue())
        assert doc["p"] == "/tmp/x"

    def test_swapping_formats_keeps_one_handler(self):
        kv, js = io.StringIO(), io.StringIO()
        setup_logging("info", json_mode=False, stream=kv)
        setup_logging("info", json_mode=True, stream=js)
        assert len(logging.getLogger("repro").handlers) == 1
        get_logger("test").info("after swap")
        assert kv.getvalue() == ""
        assert json.loads(js.getvalue())["msg"] == "after swap"


# -- profiling ---------------------------------------------------------------


def _point(**over):
    params = dict(rates=[0.1], width=4, height=4, cycles=200, seed=3)
    params.update(over)
    return scenario_family("saturation-sweep", **params)[0]


class TestProfile:
    def test_profiled_stats_bit_identical_both_engines(self):
        from repro.experiments import simulate_scenario
        from repro.experiments.runner import _materialize
        from repro.simulation import BatchSimulator, Simulator

        scenario = _point()
        _, plain = simulate_scenario(scenario)
        topo, routing = _materialize(scenario.topology)
        trace = scenario.traffic.trace(topo, sim=scenario.sim)
        caps = scenario.sim.cycle_budget(scenario.traffic.trace_based)
        cfg = scenario.sim.sim_config()

        prof = PhaseProfile()
        profiled = Simulator(topo, routing, cfg).run(
            trace, max_cycles=caps, profile=prof
        )
        assert profiled.avg_latency == plain.avg_latency
        assert np.array_equal(profiled.packet_latencies, plain.packet_latencies)
        assert np.array_equal(profiled.link_flit_counts, plain.link_flit_counts)

        bprof = PhaseProfile(engine="batched")
        [batched] = BatchSimulator(topo, routing, cfg).run_batch(
            [trace], max_cycles=caps, profile=bprof
        )
        assert batched.avg_latency == plain.avg_latency
        assert np.array_equal(batched.packet_latencies, plain.packet_latencies)

    def test_profile_simulation_covers_both_engines(self):
        profiles = profile_simulation(_point())
        assert set(profiles) == {"interpreter", "batched"}
        for name, prof in profiles.items():
            assert prof.engine == name
            assert prof.total_ns > 0
            # Chained timestamps: the phase sum tracks total wall time.
            assert prof.phase_sum_ns <= prof.total_ns
            assert prof.phase_sum_ns > 0.5 * prof.total_ns
        assert set(profiles["interpreter"].phases) == set(INTERPRETER_PHASES)
        assert set(profiles["batched"].phases) == set(BATCH_PHASES)
        interp = profiles["interpreter"].counts
        assert interp["loop_iterations"] == interp["sim_cycles"]
        assert (
            profiles["batched"].counts["lockstep_iterations"]
            == interp["loop_iterations"]
        )

    @pytest.mark.parametrize(
        "features",
        [
            {"telemetry_window": 64},
            {"closed_loop_window": 2},
            {"telemetry_window": 64, "controllers": ("throttle",)},
        ],
        ids=["telemetry", "closed-loop", "controllers"],
    )
    def test_telemetry_scenarios_are_interpreter_only(self, lockstep, features):
        """Points using a hooked feature run on the interpreter, by the
        same rule in the profiler and the planner, even in a wide group."""
        scenarios = [
            replace(s, sim=replace(s.sim, **features))
            for s in scenario_family(
                "saturation-sweep", rates=[0.1, 0.2], width=4, height=4,
                cycles=256, seed=3,
            )
        ]
        profiles = profile_simulation(scenarios[0])
        assert set(profiles) == {"interpreter"}
        events = []
        Runner(observer=events.append).run(scenarios)
        done = [ev["engine"] for ev in events if ev["event"] == "point.completed"]
        assert done == ["interpreter", "interpreter"]

    def test_non_simulation_scenario_rejected(self):
        scenario = scenario_family("paper-grid", hops_options=[3])[0]
        assert scenario.kind == "analytical"
        with pytest.raises(ValueError, match="not a simulation"):
            profile_simulation(scenario)

    def test_to_json_orders_phases(self):
        prof = PhaseProfile()
        prof.add("vc_alloc", 5)
        prof.add("setup", 1)
        prof.add("custom_phase", 2)
        doc = prof.to_json()
        assert list(doc["phases"]) == ["setup", "vc_alloc", "custom_phase"]
        assert doc["phase_sum_ns"] == 8

    def test_render_profiles_table(self):
        profiles = profile_simulation(_point())
        text = render_profiles(profiles)
        assert "vc_alloc" in text and "alloc_traversal" in text
        assert "% covered" in text


# -- counter alias sanity ----------------------------------------------------


class TestModuleAliases:
    def test_counter_is_registry_backed(self):
        reset_metrics()
        counter("test_obs.alias").inc(2)
        assert metrics_snapshot()["counters"]["test_obs.alias"] == 2
        assert isinstance(counter("test_obs.alias"), Counter)

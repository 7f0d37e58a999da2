"""Differential tests: batched engine vs the reference interpreter.

The two execution engines implement one defined semantics (sequential
ascending-node allocation, instant credit return); these tests pin
bit-for-bit :class:`~repro.simulation.simulator.SimStats` equality across
randomized topologies, VC configurations and bursty / hotspot workloads,
plus the engine seam in the experiment runner, the planner's engine
choice, and the content keys that stay engine-free.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import (
    Runner,
    Scenario,
    SimSpec,
    TopologySpec,
    TrafficSpec,
    evaluate_scenario,
    scenario_family,
    scenario_from_json,
    scenario_hash,
    scenario_to_json,
)
from repro.experiments import runner as runner_mod
from repro.obs import clear_spans, enable_tracing, take_spans, tracing_enabled
from repro.obs.metrics import counter
from repro.simulation import BatchSimulator, SimConfig, Simulator
from repro.tech.parameters import Technology
from repro.topology import build_express_mesh, build_mesh, build_torus
from repro.traffic import PacketRecord, Trace


def _random_case(seed: int):
    """One randomized (topology, config, trace, cap) differential case."""
    rng = np.random.default_rng(seed)
    kind = int(rng.integers(0, 4))
    w, h = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    if kind == 0:
        topo = build_mesh(w, h)
    elif kind == 1:
        topo = build_torus(max(w, 3), max(h, 3))
    else:
        topo = build_express_mesh(max(w, 3), max(h, 3), hops=2)
    n = topo.n_nodes
    cfg = SimConfig(
        n_vcs=int(rng.choice([1, 2, 4])),
        vc_depth=int(rng.integers(1, 5)),
        router_pipeline=int(rng.integers(1, 4)),
    )
    window = int(rng.integers(1, 60))
    hot = int(rng.integers(0, n))
    records = []
    for _ in range(int(rng.integers(0, 100))):
        s, d = rng.choice(n, size=2, replace=False)
        if rng.random() < 0.4 and hot != s:
            d = hot  # hotspot concentration
        if s == d:
            continue
        t = int(rng.integers(0, window))
        if rng.random() < 0.3:
            t = int(rng.integers(0, 5))  # bursty pile-up
        records.append(
            PacketRecord(t, int(s), int(d), int(rng.choice([1, 2, 4, 8])))
        )
    cap = int(rng.choice([30, 120, 2_000_000]))
    return topo, cfg, Trace(n, records), cap


def _assert_stats_equal(ref, got) -> None:
    assert ref.n_packets == got.n_packets
    assert ref.n_flits == got.n_flits
    assert ref.cycles == got.cycles
    assert ref.drained == got.drained
    assert np.array_equal(ref.packet_latencies, got.packet_latencies)
    assert np.array_equal(ref.link_flit_counts, got.link_flit_counts)
    assert np.array_equal(ref.router_flit_counts, got.router_flit_counts)


class TestEngineEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_single_run_bit_identical(self, seed):
        topo, cfg, trace, cap = _random_case(seed)
        ref = Simulator(topo, config=cfg).run(trace, max_cycles=cap)
        got = BatchSimulator(topo, config=cfg).run(trace, max_cycles=cap)
        _assert_stats_equal(ref, got)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_batch_equals_individual_runs(self, seed):
        """One run_batch over mixed traces/caps == per-trace interpreter
        runs: batching must not couple independent runs."""
        rng = np.random.default_rng(seed)
        topo = build_mesh(4, 4)
        cfg = SimConfig(n_vcs=2, vc_depth=2)
        traces, caps = [], []
        for i in range(4):
            _, _, trace, _ = _random_case(int(rng.integers(0, 100_000)))
            traces.append(Trace(topo.n_nodes, [
                PacketRecord(p.time, p.src % topo.n_nodes,
                             p.dst % topo.n_nodes, p.size_flits)
                for p in trace.packets
                if p.src % topo.n_nodes != p.dst % topo.n_nodes
            ]))
            caps.append(int(rng.choice([60, 2_000_000])))
        batch = BatchSimulator(topo, config=cfg).run_batch(
            traces, max_cycles=caps
        )
        sim = Simulator(topo, config=cfg)
        for trace, cap, got in zip(traces, caps, batch):
            _assert_stats_equal(sim.run(trace, max_cycles=cap), got)

    def test_empty_trace(self):
        topo = build_mesh(3, 3)
        trace = Trace(topo.n_nodes, [])
        ref = Simulator(topo).run(trace, max_cycles=100)
        got = BatchSimulator(topo).run(trace, max_cycles=100)
        _assert_stats_equal(ref, got)

    def test_dynamic_energy_matches_interpreter_recipe(self):
        from repro.simulation import sim_dynamic_energy_j

        topo = build_mesh(4, 4)
        rng = np.random.default_rng(5)
        records = []
        for _ in range(40):
            s, d = rng.choice(topo.n_nodes, size=2, replace=False)
            records.append(PacketRecord(int(rng.integers(0, 50)), int(s), int(d), 2))
        trace = Trace(topo.n_nodes, records)
        bsim = BatchSimulator(topo)
        stats = bsim.run(trace, max_cycles=2_000_000)
        ref = sim_dynamic_energy_j(topo, stats)
        got = bsim.dynamic_energy_j(stats)
        assert got.router_dynamic_j == pytest.approx(ref.router_dynamic_j)
        assert got.link_dynamic_j == pytest.approx(ref.link_dynamic_j)


def _family(rates=(0.05, 0.1, 0.15), **sim):
    """A 4x4 saturation family sharing one (topology, SimConfig) group."""
    topo = TopologySpec.plain(Technology.ELECTRONIC, width=4, height=4)
    spec = SimSpec(cycles=200, drain_budget=5_000, **sim)
    return [
        Scenario(
            kind="simulation",
            topology=topo,
            traffic=TrafficSpec.make("uniform", injection_rate=rate, seed=7),
            sim=spec,
            name=f"r{rate}",
        )
        for rate in rates
    ]


def _engines(events) -> dict[int, str]:
    """The engine each point completed on, from the runner's events."""
    return {
        ev["point"]: ev["engine"]
        for ev in events
        if ev["event"] == "point.completed"
    }


@pytest.fixture
def batch_calls(monkeypatch):
    """Count in-process ``run_batch`` calls (one per lockstep chunk)."""
    calls = []
    run_batch = BatchSimulator.run_batch

    def counted(self, traces, **kwargs):
        calls.append(len(traces))
        return run_batch(self, traces, **kwargs)

    monkeypatch.setattr(BatchSimulator, "run_batch", counted)
    return calls


class TestEngineSeam:
    def test_runner_batched_matches_interpreter(self, monkeypatch):
        ref = Runner().run(_family())
        monkeypatch.setattr(runner_mod, "LOCKSTEP_MIN_WORK", 0)
        events = []
        got = Runner(observer=events.append).run(_family())
        assert _engines(events) == {0: "batched", 1: "batched", 2: "batched"}
        assert [r.metrics for r in got] == [r.metrics for r in ref]
        # First evaluation of each batched point is fresh, not cached.
        assert [r.cached for r in got] == [False, False, False]

    def test_batched_results_are_cached_on_reuse(self, monkeypatch):
        """Every engine and pool size counts cache hits and misses alike."""
        evaluated = counter("runner.points.evaluated")
        served = counter("runner.points.cached")
        for jobs in (1, 2):
            for min_work in (runner_mod.LOCKSTEP_MIN_WORK, 0):
                monkeypatch.setattr(runner_mod, "LOCKSTEP_MIN_WORK", min_work)
                scenarios = _family(rates=(0.05, 0.1, 0.15, 0.2))
                runner = Runner(jobs=jobs)
                before = evaluated.value
                first = runner.run(scenarios)
                assert evaluated.value - before == 4, (jobs, min_work)
                stats = runner.cache.stats
                assert (stats["hits"], stats["misses"]) == (0, 4), (jobs, min_work)
                before = served.value
                second = runner.run(scenarios)
                assert served.value - before == 4, (jobs, min_work)
                stats = runner.cache.stats
                assert (stats["hits"], stats["misses"]) == (4, 4), (jobs, min_work)
                assert [r.cached for r in first] == [False] * 4
                assert [r.cached for r in second] == [True] * 4
                assert [r.metrics for r in first] == [r.metrics for r in second]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_batched_unit_reports_every_point(self, monkeypatch, lockstep, jobs):
        def boom(self, traces, **kwargs):
            raise RuntimeError("lockstep boom")

        monkeypatch.setattr(BatchSimulator, "run_batch", boom)
        events = []
        rates = (0.05, 0.1, 0.15, 0.2)
        with pytest.raises(RuntimeError, match="lockstep boom"):
            Runner(jobs=jobs, observer=events.append).run(_family(rates))
        stages = {}
        for ev in events:
            stages.setdefault(ev["point"], []).append(ev["event"])
        # An inline unit is simulating before it raises; a pool unit that
        # raises goes from dispatched to failed.
        lifecycle = ["point.dispatched", "point.failed"]
        if jobs == 1:
            lifecycle.insert(1, "point.simulating")
        assert stages == {i: lifecycle for i in range(4)}
        errors = {ev["error"] for ev in events if ev["event"] == "point.failed"}
        assert errors == {"RuntimeError: lockstep boom"}

    def test_failed_pool_unit_keeps_finished_units(self, monkeypatch, lockstep):
        """The other units of a failed pool sweep still finish and cache."""
        run_batch = BatchSimulator.run_batch

        def boom_on_pairs(self, traces, **kwargs):
            if len(traces) == 2:
                raise RuntimeError("lockstep boom")
            return run_batch(self, traces, **kwargs)

        monkeypatch.setattr(BatchSimulator, "run_batch", boom_on_pairs)
        events = []
        runner = Runner(jobs=2, observer=events.append)
        # Two strided chunks: points (0, 2) fail in lockstep, point 1 runs
        # alone on the interpreter.
        scenarios = _family()
        with pytest.raises(RuntimeError, match="lockstep boom"):
            runner.run(scenarios)
        terminal = {
            ev["point"]: ev["event"]
            for ev in events
            if ev["event"] in ("point.completed", "point.failed")
        }
        assert terminal == {0: "point.failed", 1: "point.completed", 2: "point.failed"}
        assert runner.cache.get(scenarios[1]) is not None
        assert runner.cache.get(scenarios[0]) is None

    def test_pool_composes_with_batched_grouping(self, monkeypatch):
        """jobs=2 runs strided batched chunks on the pool, bit-identically."""
        rates = (0.04, 0.08, 0.12, 0.16, 0.2, 0.24)
        ref = Runner(jobs=1).run(_family(rates))
        monkeypatch.setattr(runner_mod, "LOCKSTEP_MIN_WORK", 0)
        was = tracing_enabled()
        clear_spans()
        enable_tracing(True)
        try:
            got = Runner(jobs=2).run(_family(rates))
            spans = take_spans()
        finally:
            enable_tracing(was)
            clear_spans()
        assert [r.metrics for r in got] == [r.metrics for r in ref]
        assert not any(r.cached for r in got)
        [sweep] = [s for s in spans if s.name == "runner.sweep"]
        groups = [s for s in spans if s.name == "runner.batch_group"]
        assert len(groups) == 2
        assert all(g.pid != os.getpid() for g in groups)
        assert all(g.attrs.get("pool_worker") for g in groups)
        assert all(g.parent_id == sweep.span_id for g in groups)
        assert sum(g.attrs["points"] for g in groups) == len(rates)

    def test_closed_loop_falls_back_to_interpreter(self, lockstep, batch_calls):
        """Closed-loop points run on the interpreter even where the planner
        would batch, and report closed-loop percentiles."""
        events = []
        results = Runner(observer=events.append).run(
            _family(rates=(0.05, 0.1), closed_loop_window=2)
        )
        assert batch_calls == []
        assert _engines(events) == {0: "interpreter", 1: "interpreter"}
        for res in results:
            assert res.metrics["replies_delivered"] > 0
            assert res.metrics["request_p50_latency"] > 0
            assert res.metrics["reply_p99_latency"] >= res.metrics["reply_p50_latency"]


class TestPlanner:
    """The runner's planner picks the engine; a wrong pick is named here."""

    @staticmethod
    def _plan(scenarios, **runner):
        _, units = Runner(**runner)._plan(list(scenarios))
        return [(unit.engine, unit.points) for unit in units]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_service_session_jobs_never_batch(self, batch_calls, jobs):
        """The repo benchmark's session job (4x4, 4 rates, 50 cycles, a
        legacy ``"engine": "batched"`` param) runs on the interpreter."""
        scenarios = scenario_family(
            "saturation-sweep",
            rates=[0.05, 0.1, 0.15, 0.2],
            width=4,
            height=4,
            cycles=50,
            seed=3,
            engine="batched",
        )
        assert {engine for engine, _ in self._plan(scenarios, jobs=jobs)} == {
            "interpreter"
        }
        events = []
        Runner(jobs=jobs, observer=events.append).run(scenarios)
        assert batch_calls == []
        assert set(_engines(events).values()) == {"interpreter"}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_wide_family_runs_lockstep_chunks(self, lockstep, jobs):
        rates = (0.05, 0.1, 0.15, 0.2)
        expected = {1: [[0, 1, 2, 3]], 2: [[0, 2], [1, 3]]}[jobs]
        assert self._plan(_family(rates), jobs=jobs) == [
            ("batched", points) for points in expected
        ]
        ref = [evaluate_scenario(s) for s in _family(rates)]  # interpreter
        events = []
        got = Runner(jobs=jobs, observer=events.append).run(_family(rates))
        assert set(_engines(events).values()) == {"batched"}
        assert [r.metrics for r in got] == ref

    def test_sweep_family_batches_only_when_wide_enough(self):
        """The 16-point 8x8 family reaches the measured crossover in one
        chunk (jobs=1), not in chunks of 8 or 4 points."""
        family = scenario_family(
            "saturation-sweep",
            rates=[0.02 + 0.02 * i for i in range(16)],
            width=8,
            height=8,
            cycles=600,
        )
        assert self._plan(family, jobs=1) == [("batched", list(range(16)))]
        for jobs in (2, 4):
            assert self._plan(family, jobs=jobs) == [
                ("interpreter", [i]) for i in range(16)
            ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fig6_points_run_on_the_interpreter(self, lockstep, jobs):
        """NPB traces never batch: not ``repro fig6``'s one kernel per
        topology, the repo benchmark's ``fig6-npb``, or the full Fig. 6
        grid with four kernels per topology."""
        fig6 = scenario_family(
            "npb-kernels", kernels=("CG",), workloads={"CG": (3e-4, None)}
        )
        fig6_npb = scenario_family("npb-kernels", kernels=("CG",), hops_options=(0, 3))
        grid = scenario_family("npb-kernels")
        for family in (fig6, fig6_npb, grid):
            plan = self._plan(family, jobs=jobs)
            assert {engine for engine, _ in plan} == {"interpreter"}

    @pytest.mark.parametrize(
        "features",
        [
            {"telemetry_window": 64},
            {"closed_loop_window": 2},
            {"telemetry_window": 64, "controllers": ("throttle",)},
        ],
        ids=["telemetry", "closed-loop", "controllers"],
    )
    def test_hooked_points_never_batch(self, lockstep, features):
        rates = tuple(0.02 * (i + 1) for i in range(8))
        assert self._plan(_family(rates, **features)) == [
            ("interpreter", [i]) for i in range(8)
        ]

    def test_profiled_points_never_batch(self, lockstep, batch_calls):
        results = Runner(profile=True).run(_family(rates=(0.05, 0.1, 0.15, 0.2)))
        assert batch_calls == []
        assert {r.profile.engine for r in results} == {"interpreter"}

    def test_single_points_never_batch(self, lockstep):
        assert self._plan(_family(rates=(0.1,))) == [("interpreter", [0])]
        # jobs=4 splits a 4-point group into four one-point chunks.
        assert self._plan(_family(rates=(0.05, 0.1, 0.15, 0.2)), jobs=4) == [
            ("interpreter", [i]) for i in range(4)
        ]


#: Content keys recorded before the engine left the spec. A change here
#: orphans every persisted cache line, release and sweep id.
PINNED_KEYS = {
    "paper_point": "e7405d27c57b368a047482c4e7d101d44f4bc5e1462e0e0127f79c6f0fe9b396",
    "saturation-sweep": [
        "70c1bee20408ead275c354c47663ecd6d25f8e91f9a374d1a10ff7262da2befc",
        "bc73ff731d39ebf7afad6a125afd1209968d9aa4fb080b7b4be739305d733a15",
        "be8d27fe4b1c4248e49dbc2ba9e6fed3581eed560437106f944bbf0e4df6669b",
        "11779feec909f9da16d213c8ee3e5f80a07146db62d2cb285490af693735e5e0",
    ],
    "npb-kernels": "487eaa7cbf751da27be8fd4f9e28394e747b702408b1b8cf1b343b366fd67dfd",
    "sweep_hash": "e4f171a04e28c62b9ca3fd328c69f84fd0a6c139c636124b3a9034fbdcce81f8",
}


def _pinned_sweep(**params):
    return scenario_family(
        "saturation-sweep",
        rates=[0.05, 0.1, 0.15, 0.2],
        width=4,
        height=4,
        cycles=50,
        seed=7,
        **params,
    )


class TestContentKeys:
    def test_content_keys_are_pinned(self):
        from repro.experiments import paper_point
        from repro.service import sweep_hash

        point = paper_point(Technology.ELECTRONIC, Technology.HYPPI, 3)
        assert scenario_hash(point) == PINNED_KEYS["paper_point"]
        hashes = [scenario_hash(s) for s in _pinned_sweep()]
        assert hashes == PINNED_KEYS["saturation-sweep"]
        [npb] = scenario_family("npb-kernels", kernels=("CG",), hops_options=(3,))
        assert scenario_hash(npb) == PINNED_KEYS["npb-kernels"]
        assert sweep_hash(hashes) == PINNED_KEYS["sweep_hash"]

    def test_legacy_engine_hashes_to_its_interpreter_twin(self):
        twins = _pinned_sweep()
        legacy = _pinned_sweep(engine="batched")
        assert legacy == twins
        assert [scenario_hash(s) for s in legacy] == PINNED_KEYS["saturation-sweep"]
        doc = scenario_to_json(twins[0])
        assert doc["sim"]["engine"] == "interpreter"
        doc["sim"]["engine"] = "batched"
        rt = scenario_from_json(doc)
        assert rt == twins[0]
        assert scenario_hash(rt) == PINNED_KEYS["saturation-sweep"][0]
        with pytest.raises(TypeError):
            SimSpec(engine="batched")

    def test_unknown_legacy_engine_raises(self):
        doc = scenario_to_json(_pinned_sweep()[0])
        doc["sim"]["engine"] = "warp"
        with pytest.raises(ValueError, match="unknown engine"):
            scenario_from_json(doc)
        with pytest.raises(ValueError, match="unknown engine"):
            _pinned_sweep(engine="warp")

"""Differential tests: batched engine vs the reference interpreter.

The two execution engines implement one defined semantics (sequential
ascending-node allocation, instant credit return); these tests pin
bit-for-bit :class:`~repro.simulation.simulator.SimStats` equality across
randomized topologies, VC configurations and bursty / hotspot workloads,
plus the engine seam in the experiment runner.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import Runner, Scenario, SimSpec, TopologySpec, TrafficSpec
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


class TestEngineSeam:
    def _scenarios(self, engine: str, rates=(0.05, 0.1, 0.15)):
        topo = TopologySpec.plain(Technology.ELECTRONIC, width=4, height=4)
        sim = SimSpec(cycles=200, drain_budget=5_000, engine=engine)
        return [
            Scenario(
                kind="simulation",
                topology=topo,
                traffic=TrafficSpec.make(
                    "uniform", injection_rate=rate, seed=7
                ),
                sim=sim,
                name=f"{engine}-{rate}",
            )
            for rate in rates
        ]

    def test_runner_batched_matches_interpreter(self):
        ref = Runner().run(self._scenarios("interpreter"))
        got = Runner().run(self._scenarios("batched"))
        for a, b in zip(ref, got):
            ma = {k: v for k, v in a.metrics.items()}
            mb = {k: v for k, v in b.metrics.items()}
            assert ma == mb
        # First evaluation of each batched point is fresh, not cached.
        assert [r.cached for r in got] == [False, False, False]

    def test_batched_results_are_cached_on_reuse(self):
        """Every engine and pool size counts cache hits and misses alike."""
        evaluated = counter("runner.points.evaluated")
        served = counter("runner.points.cached")
        for jobs in (1, 2):
            for engine in ("interpreter", "batched"):
                scenarios = self._scenarios(engine, rates=(0.05, 0.1, 0.15, 0.2))
                runner = Runner(jobs=jobs)
                before = evaluated.value
                first = runner.run(scenarios)
                assert evaluated.value - before == 4, (jobs, engine)
                stats = runner.cache.stats
                assert (stats["hits"], stats["misses"]) == (0, 4), (jobs, engine)
                before = served.value
                second = runner.run(scenarios)
                assert served.value - before == 4, (jobs, engine)
                stats = runner.cache.stats
                assert (stats["hits"], stats["misses"]) == (4, 4), (jobs, engine)
                assert [r.cached for r in first] == [False] * 4
                assert [r.cached for r in second] == [True] * 4
                assert [r.metrics for r in first] == [r.metrics for r in second]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_batched_unit_reports_every_point(self, monkeypatch, jobs):
        def boom(self, traces, **kwargs):
            raise RuntimeError("lockstep boom")

        monkeypatch.setattr(BatchSimulator, "run_batch", boom)
        events = []
        rates = (0.05, 0.1, 0.15, 0.2)
        with pytest.raises(RuntimeError, match="lockstep boom"):
            Runner(jobs=jobs, observer=events.append).run(
                self._scenarios("batched", rates)
            )
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

    def test_failed_pool_unit_keeps_finished_units(self, monkeypatch):
        """The other units of a failed pool sweep still finish and cache."""
        run_batch = BatchSimulator.run_batch

        def boom_on_pairs(self, traces, **kwargs):
            if len(traces) == 2:
                raise RuntimeError("lockstep boom")
            return run_batch(self, traces, **kwargs)

        monkeypatch.setattr(BatchSimulator, "run_batch", boom_on_pairs)
        events = []
        runner = Runner(jobs=2, observer=events.append)
        # Two strided chunks: points (0, 2) fail, point 1 runs alone.
        scenarios = self._scenarios("batched")
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

    def test_pool_composes_with_batched_grouping(self):
        """jobs=2 runs strided batched chunks on the pool, bit-identically."""
        rates = (0.04, 0.08, 0.12, 0.16, 0.2, 0.24)
        ref = Runner(jobs=1).run(self._scenarios("interpreter", rates))
        was = tracing_enabled()
        clear_spans()
        enable_tracing(True)
        try:
            got = Runner(jobs=2).run(self._scenarios("batched", rates))
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

    def test_engine_validates(self):
        with pytest.raises(ValueError, match="unknown engine"):
            SimSpec(engine="warp")

    def test_engine_round_trips_and_hashes(self):
        from repro.experiments import scenario_from_json, scenario_hash

        base = self._scenarios("interpreter")[0]
        batched = self._scenarios("batched")[0]
        assert scenario_hash(base) != scenario_hash(batched)
        rt = scenario_from_json(batched.to_json())
        assert rt.sim.engine == "batched"
        assert scenario_hash(rt) == scenario_hash(batched)

    def test_closed_loop_falls_back_to_interpreter(self):
        """Batched requests on interpreter-only features still evaluate
        (via the interpreter) and report closed-loop percentiles."""
        topo = TopologySpec.plain(Technology.ELECTRONIC, width=4, height=4)
        sim = SimSpec(
            cycles=200,
            drain_budget=5_000,
            closed_loop_window=2,
            engine="batched",
        )
        scn = Scenario(
            kind="simulation",
            topology=topo,
            traffic=TrafficSpec.make("uniform", injection_rate=0.05, seed=9),
            sim=sim,
        )
        (res,) = Runner().run([scn])
        assert res.metrics["replies_delivered"] > 0
        assert res.metrics["request_p50_latency"] > 0
        assert res.metrics["reply_p99_latency"] >= res.metrics["reply_p50_latency"]

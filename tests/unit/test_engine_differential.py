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

from repro.core.config import NocExperimentConfig
from repro.experiments import (
    Runner,
    Scenario,
    SimSpec,
    TopologySpec,
    TrafficSpec,
    evaluate_scenario,
    family_names,
    paper_point,
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


_SMALL = NocExperimentConfig(width=6, height=6, express_hops_options=(2,))
_T = Technology

#: Non-default knobs of every registered family, for :data:`FAMILY_PINS`.
FAMILY_PARAMS = {
    "paper-grid": dict(
        config=_SMALL, injection_rate=0.05, seed=4,
        base_technologies=(_T.PHOTONIC,), express_technologies=(_T.HYPPI,),
        hops_options=(2, 4),
    ),
    "saturation-sweep": dict(
        rates=[0.03, 0.21], hops=3, base_technology=_T.PHOTONIC,
        express_technology=_T.PLASMONIC, traffic="transpose", width=6, height=5,
        cycles=321, packet_flits=2, drain_budget=999, seed=11,
    ),
    "workload-saturation": dict(
        rates=[0.07, 0.3], model="onoff", traffic="transpose", hops=2,
        base_technology=_T.PLASMONIC, express_technology=_T.PHOTONIC, width=5,
        height=5, cycles=400, packet_flits=3, drain_budget=5000, seed=9,
        duty=0.4, burst_len=8.0,
    ),
    "telemetry-profile": dict(
        rates=(0.15, 0.25), model="pareto", traffic="transpose", hops=3,
        base_technology=_T.PHOTONIC, express_technology=_T.HYPPI, width=6,
        height=6, cycles=900, window=64, packet_flits=2, drain_budget=3000,
        seed=8, alpha=1.7,
    ),
    "closed-loop-saturation": dict(
        rates=[0.2, 0.4], window=3, think_cycles=5, reply_flits=2, model="onoff",
        traffic="transpose", hops=2, base_technology=_T.PHOTONIC,
        express_technology=_T.HYPPI, width=5, height=4, cycles=700,
        packet_flits=2, drain_budget=4000, telemetry_window=32,
        controllers=("throttle",), seed=6, duty=0.5,
    ),
    "knee-search": dict(
        rates=[0.3, 0.5], model="onoff", traffic="transpose", hops=4,
        base_technology=_T.PHOTONIC, express_technology=_T.HYPPI, width=6,
        height=6, cycles=1500, window=64, packet_flits=2, drain_budget=9000,
        seed=13, duty=0.6,
    ),
    "npb-kernels": dict(
        kernels=("mg", "LU"), hops_options=(0, 5), base_technology=_T.PHOTONIC,
        express_technology=_T.PLASMONIC,
        workloads={"MG": (1e-3, 2), "LU": (2e-3, None)}, max_cycles=77_777,
    ),
    "all-optical-projection": dict(
        amortization_injection_rate=0.002, injection_rate=0.2, seed=5, width=8,
        height=8, core_spacing_m=2e-3,
    ),
}

#: ``(scenario_hash, name)`` of each point of ``paper_point`` and of every
#: registered family on the knobs above, recorded before the rate families
#: shared one expander. Names are pinned too: they go into release bytes.
FAMILY_PINS = {
    "paper_point": [
        ("699ac0a50003a7b85a38502235dcf60762e8abddae0ac10f0401818c850b999b",
         "photonic-mesh (plain)"),
        ("ab45ef0a3ea4263f64f005a19882d4f48d8c2a4b3a1634c6f29a42cd92515f31",
         "plasmonic-base + hyppi x2"),
    ],
    "paper-grid": [
        ("1df83cda3ca278be9f896caf0c992669165dcf60dab93298565c1b2bbdf19d3f",
         "photonic-mesh (plain)"),
        ("7fc3fcab2247764d9fb33641c269ae143070a1a9347f77696600828b3d442d2f",
         "photonic-base + hyppi x2"),
        ("0a1cc69d295d88167c40f9c98caf165ef68bd860dad62f88d2a51605cfbb2b1f",
         "photonic-base + hyppi x4"),
    ],
    "saturation-sweep": [
        ("e72fca1649b59371b47a0e4cc22e94d0cc8c546b3559d77e3b3537d4e66fa5b9",
         "transpose-r0.03"),
        ("01f0cb079042342b5f8c3eddff3deb98eb92ed6d27b167dddbdcba86b4e4e3f0",
         "transpose-r0.21"),
    ],
    "workload-saturation": [
        ("38b17b956e35c35e47438a93a15ae1295352cef09b21b2aa1e4df8228d3a8a5e",
         "onoff-transpose-r0.07"),
        ("9d58a2c17d453a17e5b0f97c7d8dad2250d89b1ba2a67a12a6e7711ee75d5872",
         "onoff-transpose-r0.3"),
    ],
    "telemetry-profile": [
        ("e203b536a4a5f46ce7c25ae187b1cbbd2e524c4fab7c373d416bb2b0a48a07d1",
         "telemetry-pareto-transpose-r0.15"),
        ("6bbd35dbe93ca87502e40de63d24b78fcbedbeb8852ab81a89a5e0babc18cab3",
         "telemetry-pareto-transpose-r0.25"),
    ],
    "closed-loop-saturation": [
        ("fdea0e4d4f4365eaa650e9272d2a66799306e4ae7ec9c849cc41fb21919a1382",
         "closed-onoff-w3-r0.2"),
        ("406db31ec326a063b08a6dbe548864b7e310d0a3a4e7eb53f2826aa3d2a46a24",
         "closed-onoff-w3-r0.4"),
    ],
    "knee-search": [
        ("3b449d237085dd11881d99e99a5a6479598f08fca5ac19fc8b84957be2894961",
         "knee-onoff-r0.3"),
        ("7373d890ff9edfa20475f6b956ece8499b28e8b1e0caf7222538ae57279b3812",
         "knee-onoff-r0.5"),
    ],
    "npb-kernels": [
        ("795bf87157024f92fc47330c39d4056c0f956d0d74c7835e91f7bc869a527613",
         "npb-mg-mesh"),
        ("7ace14431fb1c017c8d402ac51bceb28eec054faf3bdd37e359989ec455ebe0e",
         "npb-mg-h5"),
        ("00255aff86f987f838fbb3b32cbc735ca7a4e9a506f97da8b43c8014498578bb",
         "npb-lu-mesh"),
        ("70ea5cbe9b998dab3569fcc90fc5ac7b500c66cfa3726e1a43b4b6f0020bd82d",
         "npb-lu-h5"),
    ],
    "all-optical-projection": [
        ("649c17285b9bdb91e3b5ada01da253802f526592aa5b3a760974e77bf1f58c62",
         "all-optical-projection"),
    ],
}


def _pinned_family(name):
    if name == "paper_point":
        return [
            paper_point(_T.PHOTONIC, None, 0, config=_SMALL, injection_rate=0.07, seed=2),
            paper_point(
                _T.PLASMONIC, _T.HYPPI, 2, config=_SMALL, injection_rate=0.07, seed=2
            ),
        ]
    return scenario_family(name, **FAMILY_PARAMS[name])


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
        from repro.service import sweep_hash

        point = paper_point(Technology.ELECTRONIC, Technology.HYPPI, 3)
        assert scenario_hash(point) == PINNED_KEYS["paper_point"]
        hashes = [scenario_hash(s) for s in _pinned_sweep()]
        assert hashes == PINNED_KEYS["saturation-sweep"]
        [npb] = scenario_family("npb-kernels", kernels=("CG",), hops_options=(3,))
        assert scenario_hash(npb) == PINNED_KEYS["npb-kernels"]
        assert sweep_hash(hashes) == PINNED_KEYS["sweep_hash"]

    @pytest.mark.parametrize("family", sorted(FAMILY_PINS))
    def test_family_keys_and_names_are_pinned(self, family):
        got = [(scenario_hash(s), s.name) for s in _pinned_family(family)]
        assert got == FAMILY_PINS[family]

    def test_every_family_is_pinned(self):
        assert set(FAMILY_PINS) == {"paper_point", *family_names()}

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

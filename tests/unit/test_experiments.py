"""Tests for the experiment engine: specs, registry, runner, cache."""

import math

import numpy as np
import pytest

from repro.core.config import NocExperimentConfig
from repro.core.dse import DesignSpaceExplorer
from repro.experiments import (
    EvaluationCache,
    Runner,
    Scenario,
    SimSpec,
    TopologySpec,
    TrafficSpec,
    evaluate_scenario,
    family_names,
    register_family,
    scenario_family,
    scenario_from_json,
    scenario_hash,
    scenario_to_json,
)
from repro.experiments import registry as registry_module
from repro.experiments.registry import paper_point
from repro.tech import Technology

#: A small grid keeps evaluations ~100x cheaper than the paper's 16x16.
SMALL = NocExperimentConfig(width=6, height=6, express_hops_options=(2,))


def small_grid():
    return scenario_family("paper-grid", config=SMALL)


class TestTopologySpec:
    def test_plain_builds(self):
        topo = TopologySpec.plain(Technology.ELECTRONIC, width=4, height=4).build()
        assert topo.n_nodes == 16

    def test_express_builds(self):
        spec = TopologySpec.express(
            Technology.ELECTRONIC, Technology.HYPPI, 2, width=6, height=6
        )
        assert spec.build().n_nodes == 36

    def test_validation(self):
        with pytest.raises(ValueError):
            TopologySpec(builder="ring")
        with pytest.raises(ValueError):
            TopologySpec(builder="express_mesh", hops=3)  # no express tech
        with pytest.raises(ValueError):
            TopologySpec.express(Technology.ELECTRONIC, Technology.HYPPI, 1)
        with pytest.raises(ValueError):
            TopologySpec(builder="mesh", hops=3)


class TestTrafficSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficSpec(generator="white-noise")
        with pytest.raises(ValueError):
            TrafficSpec(generator="npb")  # kernel param required
        with pytest.raises(ValueError):
            TrafficSpec(injection_rate=-0.1)

    def test_seeded_matrix_deterministic(self):
        topo = TopologySpec.plain(Technology.ELECTRONIC, width=4, height=4).build()
        spec = TrafficSpec.make("soteriou", seed=5, p=0.1, sigma=0.4)
        a = spec.matrix(topo)
        b = spec.matrix(topo)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_every_advertised_generator_is_evaluable(self):
        from repro.workloads import matrix_generator_names

        topo = TopologySpec.plain(Technology.ELECTRONIC, width=4, height=4).build()
        for name in matrix_generator_names():
            tm = TrafficSpec.make(name, injection_rate=0.05, seed=1).matrix(topo)
            assert tm.n_nodes == topo.n_nodes, name

    def test_npb_trace_dispatch(self):
        topo = TopologySpec.plain(Technology.ELECTRONIC).build()
        spec = TrafficSpec.make(
            "npb", kernel="LU", volume_scale=0.01, iterations=1
        )
        trace = spec.trace(topo, sim=SimSpec())
        assert trace.n_packets > 0
        with pytest.raises(ValueError):
            spec.matrix(topo)


class TestScenarioSpec:
    def test_kind_validation(self):
        topo = TopologySpec.plain(Technology.ELECTRONIC)
        with pytest.raises(ValueError):
            Scenario(kind="quantum", topology=topo, traffic=TrafficSpec())
        with pytest.raises(ValueError):
            Scenario(kind="simulation", topology=topo, traffic=TrafficSpec())

    def test_json_round_trip_preserves_hash(self):
        for scenario in small_grid():
            rebuilt = scenario_from_json(scenario_to_json(scenario))
            assert rebuilt == scenario
            assert scenario_hash(rebuilt) == scenario_hash(scenario)

    def test_hash_stability_and_sensitivity(self):
        a = paper_point(Technology.ELECTRONIC, config=SMALL, seed=0)
        b = paper_point(Technology.ELECTRONIC, config=SMALL, seed=0)
        assert scenario_hash(a) == scenario_hash(b)
        c = paper_point(Technology.ELECTRONIC, config=SMALL, seed=1)
        d = paper_point(Technology.HYPPI, config=SMALL, seed=0)
        assert len({scenario_hash(s) for s in (a, c, d)}) == 3

    def test_hash_ignores_display_name(self):
        a = paper_point(Technology.ELECTRONIC, config=SMALL)
        renamed = Scenario(
            kind=a.kind, topology=a.topology, traffic=a.traffic, name="alias"
        )
        assert scenario_hash(renamed) == scenario_hash(a)
        assert renamed.label == "alias"


class TestEvaluationCache:
    def test_hit_miss_counting(self):
        cache = EvaluationCache()
        scenario = paper_point(Technology.ELECTRONIC, config=SMALL)
        assert cache.get(scenario) is None
        cache.put(scenario, {"clear": 1.0})
        assert cache.get(scenario) == {"clear": 1.0}
        assert cache.stats == {"hits": 1, "misses": 1, "size": 1}

    def test_save_load_round_trip(self, tmp_path):
        cache = EvaluationCache()
        scenario = paper_point(Technology.ELECTRONIC, config=SMALL)
        cache.put(scenario, {"clear": 0.5, "latency_clks": 12.25})
        path = tmp_path / "cache.json"
        cache.save(path)
        loaded = EvaluationCache.load(path)
        assert loaded.get(scenario) == {"clear": 0.5, "latency_clks": 12.25}
        assert scenario in loaded

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"version": 99, "entries": {}}')
        with pytest.raises(ValueError):
            EvaluationCache.load(path)

    def test_merge(self):
        a, b = EvaluationCache(), EvaluationCache()
        s1 = paper_point(Technology.ELECTRONIC, config=SMALL)
        s2 = paper_point(Technology.HYPPI, config=SMALL)
        a.put(s1, {"clear": 1.0})
        b.put(s2, {"clear": 2.0})
        a.merge(b)
        assert len(a) == 2


class TestRegistry:
    def test_builtin_families_registered(self):
        for name in (
            "paper-grid",
            "saturation-sweep",
            "npb-kernels",
            "all-optical-projection",
        ):
            assert name in family_names()

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            scenario_family("does-not-exist")

    def test_register_family_rejects_duplicates(self):
        @register_family("test-only-family")
        def fam():
            return []

        try:
            with pytest.raises(ValueError):
                register_family("test-only-family")(fam)
            assert scenario_family("test-only-family") == []
        finally:
            registry_module._FAMILIES.pop("test-only-family")

    def test_paper_grid_shape_and_order(self):
        scenarios = small_grid()
        # 3 bases x (1 plain + 3 express techs x 1 hop option).
        assert len(scenarios) == 3 * (1 + 3 * 1)
        assert scenarios[0].topology.builder == "mesh"
        assert scenarios[1].topology.builder == "express_mesh"
        assert all(s.kind == "analytical" for s in scenarios)

    def test_saturation_sweep_per_point_seeds(self):
        scenarios = scenario_family(
            "saturation-sweep", rates=[0.01, 0.02, 0.03], seed=7
        )
        seeds = [s.traffic.seed for s in scenarios]
        assert len(set(seeds)) == 3
        again = scenario_family(
            "saturation-sweep", rates=[0.01, 0.02, 0.03], seed=7
        )
        assert [s.traffic.seed for s in again] == seeds

    def test_npb_kernels_params(self):
        scenarios = scenario_family(
            "npb-kernels", kernels=["CG"], hops_options=[0, 3]
        )
        assert len(scenarios) == 2
        params = dict(scenarios[0].traffic.params)
        assert params["kernel"] == "CG"
        assert params["volume_scale"] == pytest.approx(3e-4)


class TestRunner:
    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            Runner(jobs=0)

    def test_serial_parallel_bit_identical(self):
        scenarios = small_grid()
        serial = Runner(jobs=1).run(scenarios)
        parallel = Runner(jobs=2).run(scenarios)
        assert [r.metrics for r in serial] == [r.metrics for r in parallel]
        assert not any(r.cached for r in serial)

    def test_duplicates_evaluated_once(self):
        scenario = paper_point(Technology.ELECTRONIC, config=SMALL)
        runner = Runner(jobs=1)
        results = runner.run([scenario, scenario, scenario])
        assert runner.cache.misses == 1
        assert [r.cached for r in results] == [False, True, True]
        assert results[0].metrics == results[2].metrics

    def test_shared_cache_across_runners(self):
        scenarios = small_grid()[:2]
        cache = EvaluationCache()
        Runner(jobs=1, cache=cache).run(scenarios)
        rerun = Runner(jobs=1, cache=cache).run(scenarios)
        assert all(r.cached for r in rerun)
        assert cache.misses == 2

    def test_run_iter_is_lazy_serially(self):
        scenarios = small_grid()
        runner = Runner(jobs=1)
        stream = runner.run_iter(scenarios)
        first = next(stream)
        assert first.scenario == scenarios[0]
        # Only the consumed point has been evaluated so far.
        assert len(runner.cache) == 1

    def test_submit_is_deprecated_and_matches_run(self):
        scenarios = small_grid()[:3]
        with pytest.warns(DeprecationWarning, match="run_iter"):
            handle = Runner(jobs=1).submit(scenarios)
        results = handle.results(timeout=120)
        assert [r.metrics for r in results] == [
            r.metrics for r in Runner(jobs=1).run(scenarios)
        ]
        assert [r.scenario for r in results] == scenarios

    def test_simulation_scenario_metrics(self):
        (scenario,) = scenario_family(
            "saturation-sweep", rates=[0.05], width=6, height=6, cycles=300
        )
        metrics = evaluate_scenario(scenario)
        assert metrics["kind"] == "simulation"
        assert metrics["drained"]
        assert metrics["avg_latency"] > 0
        assert metrics["n_packets"] > 0

    def test_all_optical_scenario_metrics(self):
        (scenario,) = scenario_family("all-optical-projection", width=4, height=4)
        metrics = evaluate_scenario(scenario)
        assert metrics["kind"] == "all_optical"
        assert metrics["energy_ratio_electronic_over_hyppi"] > 1


class TestDSEThroughEngine:
    def test_explore_serial_parallel_identical(self):
        serial = DesignSpaceExplorer(config=SMALL, jobs=1).explore()
        parallel = DesignSpaceExplorer(config=SMALL, jobs=2).explore()
        assert [pt.evaluation for pt in serial] == [
            pt.evaluation for pt in parallel
        ]
        assert [pt.label for pt in serial] == [pt.label for pt in parallel]

    def test_explore_iter_streams(self):
        explorer = DesignSpaceExplorer(config=SMALL)
        stream = explorer.explore_iter()
        first = next(stream)
        assert first.express_technology is None
        assert len(explorer.cache) == 1
        rest = list(stream)
        assert len(rest) == len(small_grid()) - 1

    def test_evaluate_point_memoized(self):
        explorer = DesignSpaceExplorer(config=SMALL)
        a = explorer.evaluate_point(Technology.ELECTRONIC, Technology.HYPPI, 2)
        b = explorer.evaluate_point(Technology.ELECTRONIC, Technology.HYPPI, 2)
        assert a.evaluation == b.evaluation
        assert explorer.cache.stats["misses"] == 1
        assert explorer.cache.stats["hits"] == 1

    def test_explore_reuses_evaluate_point_cache(self):
        explorer = DesignSpaceExplorer(config=SMALL)
        explorer.evaluate_point(Technology.ELECTRONIC)
        explorer.explore()
        # The plain electronic mesh was served from the single-point call.
        assert explorer.cache.misses == len(small_grid()) - 1 + 1

    def test_generator_seed_rejected(self):
        with pytest.raises(ValueError):
            DesignSpaceExplorer(config=SMALL, seed=np.random.default_rng(0))


class TestSimStatsNan:
    def test_zero_delivered_is_nan_not_crash(self):
        from repro.simulation import SimStats

        stats = SimStats(
            n_packets=3,
            n_flits=3,
            cycles=10,
            packet_latencies=np.array([], dtype=np.int64),
            link_flit_counts=np.zeros(1, dtype=np.int64),
            router_flit_counts=np.zeros(1, dtype=np.int64),
            drained=False,
        )
        assert math.isnan(stats.avg_latency)
        assert math.isnan(stats.p99_latency)


class TestControlSimSpec:
    def test_controllers_require_telemetry_window(self):
        with pytest.raises(ValueError, match="telemetry_window"):
            SimSpec(controllers=("throttle",))

    def test_unknown_controller_rejected(self):
        with pytest.raises(ValueError, match="unknown controller"):
            SimSpec(telemetry_window=64, controllers=("pid",))

    def test_closed_loop_knob_validation(self):
        with pytest.raises(ValueError, match="closed-loop"):
            SimSpec(closed_loop_window=-1)
        with pytest.raises(ValueError, match="reply size"):
            SimSpec(reply_flits=0)

    def test_empty_controller_list_normalizes_hashable(self):
        spec = SimSpec(controllers=[])
        assert spec.controllers == ()
        assert hash(spec) is not None
        assert spec == SimSpec()

    def test_json_round_trip_and_legacy_dumps(self):
        spec = SimSpec(
            telemetry_window=64,
            closed_loop_window=4,
            think_cycles=2,
            reply_flits=2,
            controllers=("throttle", "vc-bias"),
        )
        again = SimSpec.from_json(spec.to_json())
        assert again == spec
        # PR-4-era dumps predate the control knobs: defaults apply.
        legacy = {
            k: v
            for k, v in spec.to_json().items()
            if k
            not in ("closed_loop_window", "think_cycles", "reply_flits", "controllers")
        }
        old = SimSpec.from_json(legacy)
        assert old.closed_loop_window == 0 and old.controllers == ()

    def test_families_registered(self):
        from repro.experiments import family_names

        assert "closed-loop-saturation" in family_names()
        assert "knee-search" in family_names()

    def test_knee_search_rate_independent_seed(self):
        """Probes at one rate are the identical scenario whatever batch
        they came from — the cache-sharing contract of the knee search."""
        from repro.experiments import scenario_family, scenario_hash

        a = scenario_family("knee-search", rates=[0.2, 0.4])[1]
        b = scenario_family("knee-search", rates=[0.4])[0]
        assert scenario_hash(a) == scenario_hash(b)

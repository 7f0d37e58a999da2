"""Throughput benchmarks of the substrates themselves.

Not a paper figure: these track the speed of the cycle simulator, the
flow-assignment kernel, the routing-table build and the parallel
experiment runner — the hot paths of the reproduction (the HPC guides'
rule: measure before optimizing). All timing goes through the
:mod:`repro.bench` harness; ``simulator_run`` is the record the perf CI
gate watches for cycle-simulator regressions.
"""

import numpy as np

from repro.analysis import assign_flows
from repro.bench import HEAVY_POLICY, benchmark_spec
from repro.experiments import Runner, scenario_family
from repro.simulation import Simulator
from repro.topology import RoutingTable, build_mesh
from repro.traffic import PacketRecord, Trace, uniform_traffic

N_PACKETS = 2000


def _uniform_trace(n_packets=N_PACKETS, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n_packets):
        s, d = rng.choice(256, size=2, replace=False)
        records.append(PacketRecord(int(rng.integers(0, 2000)), int(s), int(d), 1))
    return Trace(256, records)


def _simulator_fixture():
    mesh = build_mesh()
    return Simulator(mesh, RoutingTable(mesh)), _uniform_trace()


@benchmark_spec(
    "simulator_run",
    setup=_simulator_fixture,
    points=N_PACKETS,
    tags=("perf", "simulation", "smoke"),
)
def run_simulator(fixture):
    """One full cycle-simulation of 2000 uniform packets on the 16x16 mesh."""
    sim, trace = fixture
    return sim.run(trace)


def _flow_fixture():
    mesh = build_mesh()
    routing = RoutingTable(mesh)
    tm = uniform_traffic(mesh)
    assign_flows(mesh, tm, routing)  # build the flat all-pairs paths
    return mesh, tm, routing


@benchmark_spec(
    "flow_assignment", setup=_flow_fixture, points=256 * 255, tags=("perf", "smoke")
)
def run_flow_assignment(fixture):
    """Flow assignment of the full 256-node uniform traffic matrix."""
    mesh, tm, routing = fixture
    return assign_flows(mesh, tm, routing)


@benchmark_spec(
    "routing_table_build", setup=build_mesh, points=256 * 255, tags=("perf", "smoke")
)
def run_routing_table_build(mesh):
    """Dense routing build on the 16x16 mesh: next-link LUT plus the flat
    all-pairs path arrays."""
    rt = RoutingTable(mesh)
    rt.flat_paths
    return rt


def _runner_scenarios():
    return scenario_family(
        "saturation-sweep",
        rates=[0.01 + 0.01 * i for i in range(8)],
        cycles=500,
        seed=0,
    )


def _run_with_jobs(jobs: int):
    scenarios = _runner_scenarios()
    runner = Runner(jobs=jobs)  # fresh cache: every point evaluates
    results = runner.run(scenarios)
    assert runner.cache.misses == len(scenarios)
    return [res.metrics for res in results]


@benchmark_spec(
    "runner_serial", points=8, policy=HEAVY_POLICY, tags=("perf", "simulation")
)
def run_runner_serial():
    """Experiment-engine throughput, serial executor (8 sweep points)."""
    return _run_with_jobs(1)


@benchmark_spec(
    "runner_pool4", points=8, policy=HEAVY_POLICY, tags=("perf", "simulation")
)
def run_runner_pool4():
    """Experiment-engine throughput, 4-process pool (same 8 points)."""
    return _run_with_jobs(4)


def test_perf_cycle_simulator(run_bench):
    stats = run_bench("simulator_run")
    assert stats.drained
    # The default run attaches no telemetry, closed-loop or control record.
    assert stats.telemetry is None
    assert stats.closed_loop is None and stats.control is None


def test_perf_flow_assignment(run_bench):
    flows = run_bench("flow_assignment")
    assert flows.total_traffic > 0


def test_perf_routing_table_build(run_bench):
    rt = run_bench("routing_table_build")
    assert rt.hop_count(0, 255) == 30


def test_perf_parallel_runner(run_bench):
    """Executor choice must never change a metric — the speedup itself is
    whatever the hardware gives (compare the two BENCH records)."""
    serial = run_bench("runner_serial")
    pooled = run_bench("runner_pool4")
    assert serial == pooled

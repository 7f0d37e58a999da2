"""Batched-engine throughput vs the reference interpreter.

Not a paper figure: these records quantify the two wins of
:class:`repro.simulation.BatchSimulator` — the vectorized per-cycle hot
loop on a single run, and the amortization of one scenario family's
shared state across a whole rate sweep. ``interpreter_sweep_16pt`` and
``batch_engine_sweep_16pt`` time the *identical* 16-point 8x8 saturation
family through both engines on prebuilt traces.

The ``sweep_e2e_16pt_*`` records time what a user waits for: one
``Runner.run`` of a 16-rate 8x8 saturation family on a fresh cache,
trace generation included, per engine and at ``jobs`` 1 and 2. The CI
bench-smoke speedup gate divides ``sweep_e2e_16pt_interpreter`` by
``sweep_e2e_16pt_batched`` (the engines are bit-identical, so the
comparison is purely about speed).
"""

import numpy as np

from repro.bench import benchmark_spec
from repro.experiments import EvaluationCache, Runner, scenario_family
from repro.simulation import BatchSimulator, Simulator
from repro.topology import RoutingTable, build_mesh
from repro.traffic import PacketRecord, Trace

SWEEP_RATES = [0.02 + 0.02 * i for i in range(16)]
"""Injection rates of the 8x8 saturation family, all in the drained
(pre-saturation) region where the batched engine's exact-replay fallback
never fires."""
SWEEP_WINDOW = 600
N_NODES = 64


def _rate_trace(seed: int, rate: float) -> Trace:
    rng = np.random.default_rng(seed)
    n_packets = int(rate * N_NODES * SWEEP_WINDOW)
    records = []
    for _ in range(n_packets):
        s, d = rng.choice(N_NODES, size=2, replace=False)
        records.append(
            PacketRecord(int(rng.integers(0, SWEEP_WINDOW)), int(s), int(d), 1)
        )
    return Trace(N_NODES, records)


def _sweep_fixture():
    """Mesh, routing and the 16 family traces, built outside the timer —
    both engines receive identical inputs."""
    mesh = build_mesh(8, 8)
    routing = RoutingTable(mesh)
    traces = [
        _rate_trace(1000 + i, rate) for i, rate in enumerate(SWEEP_RATES)
    ]
    return mesh, routing, traces


@benchmark_spec(
    "interpreter_sweep_16pt",
    setup=_sweep_fixture,
    points=len(SWEEP_RATES),
    tags=("perf", "simulation", "smoke"),
)
def run_interpreter_sweep(fixture):
    """16-point 8x8 saturation family, one interpreter run per point."""
    mesh, routing, traces = fixture
    sim = Simulator(mesh, routing)
    return [sim.run(trace, max_cycles=2_000_000) for trace in traces]


@benchmark_spec(
    "batch_engine_sweep_16pt",
    setup=_sweep_fixture,
    points=len(SWEEP_RATES),
    tags=("perf", "simulation", "smoke"),
)
def run_batch_engine_sweep(fixture):
    """The same 16-point family as one amortized run_batch call."""
    mesh, routing, traces = fixture
    bsim = BatchSimulator(mesh, routing)
    return bsim.run_batch(traces, max_cycles=2_000_000)


def _e2e_family(engine: str):
    """The family as scenario specs only: traces are built in the timed run."""
    return scenario_family(
        "saturation-sweep",
        rates=SWEEP_RATES,
        width=8,
        height=8,
        cycles=SWEEP_WINDOW,
        engine=engine,
    )


def _e2e_run(scenarios, jobs: int):
    """One ``Runner.run`` on a fresh cache; the metrics in input order."""
    return [r.metrics for r in Runner(jobs=jobs, cache=EvaluationCache()).run(scenarios)]


_E2E = dict(points=len(SWEEP_RATES), tags=("perf", "simulation"))


@benchmark_spec(
    "sweep_e2e_16pt_interpreter", setup=lambda: _e2e_family("interpreter"), **_E2E
)
def run_sweep_e2e_interpreter(scenarios):
    """16-point 8x8 family end to end on the interpreter, jobs=1."""
    return _e2e_run(scenarios, jobs=1)


@benchmark_spec(
    "sweep_e2e_16pt_batched", setup=lambda: _e2e_family("batched"), **_E2E
)
def run_sweep_e2e_batched(scenarios):
    """16-point 8x8 family end to end on the batched engine, jobs=1."""
    return _e2e_run(scenarios, jobs=1)


@benchmark_spec(
    "sweep_e2e_16pt_interpreter_jobs2",
    setup=lambda: _e2e_family("interpreter"),
    **_E2E,
)
def run_sweep_e2e_interpreter_jobs2(scenarios):
    """16-point 8x8 family end to end on the interpreter, two workers."""
    return _e2e_run(scenarios, jobs=2)


@benchmark_spec(
    "sweep_e2e_16pt_batched_jobs2", setup=lambda: _e2e_family("batched"), **_E2E
)
def run_sweep_e2e_batched_jobs2(scenarios):
    """16-point 8x8 family end to end as two batched chunks on two workers."""
    return _e2e_run(scenarios, jobs=2)


def _single_fixture():
    mesh = build_mesh(8, 8)
    return BatchSimulator(mesh, RoutingTable(mesh)), _rate_trace(77, 0.24)


@benchmark_spec(
    "batch_engine_single_run",
    setup=_single_fixture,
    points=1,
    tags=("perf", "simulation", "smoke"),
)
def run_batch_engine_single(fixture):
    """One vectorized cycle-loop run (B=1) of a 0.24-rate 8x8 trace."""
    bsim, trace = fixture
    return bsim.run(trace, max_cycles=2_000_000)


def test_perf_batch_engine_single(run_bench):
    stats = run_bench("batch_engine_single_run")
    assert stats.drained


def test_perf_sweep_amortization(run_bench):
    """Both engines must produce bit-identical sweeps on prebuilt traces."""
    ref = run_bench("interpreter_sweep_16pt")
    got = run_bench("batch_engine_sweep_16pt")
    assert len(ref) == len(got) == len(SWEEP_RATES)
    for a, b in zip(ref, got):
        assert a.drained and b.drained
        assert a.cycles == b.cycles
        assert np.array_equal(a.packet_latencies, b.packet_latencies)
        assert np.array_equal(a.link_flit_counts, b.link_flit_counts)


def test_perf_sweep_e2e_records_agree(run_bench):
    """Every engine and pool size returns the identical sweep metrics; the
    batched speedup is gated in CI from the first two records."""
    ref = run_bench("sweep_e2e_16pt_interpreter")
    assert len(ref) == len(SWEEP_RATES)
    assert all(m["drained"] for m in ref)
    for name in (
        "sweep_e2e_16pt_batched",
        "sweep_e2e_16pt_interpreter_jobs2",
        "sweep_e2e_16pt_batched_jobs2",
    ):
        assert run_bench(name) == ref, name

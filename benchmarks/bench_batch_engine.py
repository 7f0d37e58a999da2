"""Batched-engine throughput vs the reference interpreter.

Not a paper figure: these records quantify the two wins of
:class:`repro.simulation.BatchSimulator` — the vectorized per-cycle hot
loop on a single run, and the amortization of one scenario family's
shared state across a whole rate sweep.

The ``sweep_e2e_16pt_*`` records time what a user waits for: one
``Runner.run`` of a 16-rate 8x8 saturation family on a fresh cache,
trace generation included, at ``jobs`` 1 and 2. The ``planned``
records run the family as the runner's planner chooses (one lockstep
chunk at ``jobs=1``); the ``interpreter`` records raise the planner's
crossover out of reach, so every point runs on the interpreter. The CI
bench-smoke speedup gate divides ``sweep_e2e_16pt_interpreter`` by
``sweep_e2e_16pt_planned`` (the engines are bit-identical, so the
comparison is purely about speed).
"""

import math
from contextlib import contextmanager

import numpy as np

from repro.bench import benchmark_spec
from repro.experiments import EvaluationCache, Runner, scenario_family
from repro.experiments import runner as runner_mod
from repro.simulation import BatchSimulator
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


def _e2e_family():
    """The family as scenario specs only: traces are built in the timed run."""
    return scenario_family(
        "saturation-sweep",
        rates=SWEEP_RATES,
        width=8,
        height=8,
        cycles=SWEEP_WINDOW,
    )


@contextmanager
def _interpreter_only():
    """No chunk reaches the planner's lockstep crossover in this block."""
    saved = runner_mod.LOCKSTEP_MIN_WORK
    runner_mod.LOCKSTEP_MIN_WORK = math.inf
    try:
        yield
    finally:
        runner_mod.LOCKSTEP_MIN_WORK = saved


def _e2e_run(scenarios, jobs: int):
    """One ``Runner.run`` on a fresh cache; the metrics in input order."""
    return [r.metrics for r in Runner(jobs=jobs, cache=EvaluationCache()).run(scenarios)]


_E2E = dict(setup=_e2e_family, points=len(SWEEP_RATES), tags=("perf", "simulation"))


@benchmark_spec("sweep_e2e_16pt_interpreter", **_E2E)
def run_sweep_e2e_interpreter(scenarios):
    """16-point 8x8 family end to end on the interpreter only, jobs=1."""
    with _interpreter_only():
        return _e2e_run(scenarios, jobs=1)


@benchmark_spec("sweep_e2e_16pt_planned", **_E2E)
def run_sweep_e2e_planned(scenarios):
    """16-point 8x8 family end to end as the planner runs it, jobs=1."""
    return _e2e_run(scenarios, jobs=1)


@benchmark_spec("sweep_e2e_16pt_interpreter_jobs2", **_E2E)
def run_sweep_e2e_interpreter_jobs2(scenarios):
    """16-point 8x8 family end to end on the interpreter only, two workers."""
    with _interpreter_only():
        return _e2e_run(scenarios, jobs=2)


@benchmark_spec("sweep_e2e_16pt_planned_jobs2", **_E2E)
def run_sweep_e2e_planned_jobs2(scenarios):
    """16-point 8x8 family end to end as the planner runs it, two workers."""
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


def test_perf_sweep_e2e_records_agree(run_bench):
    """Every engine and pool size returns the identical sweep metrics; the
    planner's speedup is gated in CI from the first two records."""
    ref = run_bench("sweep_e2e_16pt_interpreter")
    assert len(ref) == len(SWEEP_RATES)
    assert all(m["drained"] for m in ref)
    for name in (
        "sweep_e2e_16pt_planned",
        "sweep_e2e_16pt_interpreter_jobs2",
        "sweep_e2e_16pt_planned_jobs2",
    ):
        assert run_bench(name) == ref, name

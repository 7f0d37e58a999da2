"""Extension bench — closed-loop sources and knee search.

Guards the control subsystem's performance contracts:

* ``control_closed_loop_run`` — a full request/reply run with an
  outstanding-request window on the 8x8 mesh (session hook + dynamic
  packet registration cost);
* ``control_knee_search`` — a complete detector-driven bisection
  (fresh evaluation cache per iteration, so every probe simulates).

Both are ``smoke``-tagged so the perf CI gate watches them.
Correctness is asserted on the same payloads: closed-loop runs conserve
requests exactly, and the knee search lands inside its final bracket.
"""

from repro.bench import benchmark_spec
from repro.control import ClosedLoopConfig, ClosedLoopSession, locate_knee
from repro.simulation import Simulator
from repro.simulation import synthetic_trace
from repro.topology import build_mesh
from repro.traffic import Trace, uniform_traffic

CLOSED_RATE = 0.5
CLOSED_CYCLES = 800


def _closed_loop_fixture():
    mesh = build_mesh(8, 8)
    tm = uniform_traffic(mesh, injection_rate=1.0)
    demand = synthetic_trace(
        tm, injection_rate=CLOSED_RATE, cycles=CLOSED_CYCLES, seed=0
    )
    return mesh, demand


@benchmark_spec(
    "control_closed_loop_run",
    setup=_closed_loop_fixture,
    points=lambda stats: stats.closed_loop.replies_delivered,
    tags=("perf", "control", "smoke"),
)
def run_closed_loop(fixture):
    """Windowed request/reply run of an 8x8 Bernoulli demand schedule."""
    mesh, demand = fixture
    session = ClosedLoopSession(ClosedLoopConfig(window=4), demand)
    sim = Simulator(mesh)
    return sim.run(Trace(mesh.n_nodes, []), max_cycles=200_000, closed_loop=session)


@benchmark_spec(
    "control_knee_search",
    points=lambda result: result.n_simulations,
    tags=("perf", "control", "smoke"),
)
def run_knee_search():
    """Full bisection knee search on a 4x4 mesh (fresh cache: all probes
    simulate)."""
    return locate_knee(
        lo=0.2,
        hi=0.95,
        tolerance=0.1,
        width=4,
        height=4,
        cycles=800,
        window=64,
        drain_budget=4000,
    )


def test_perf_closed_loop_run(run_bench):
    stats = run_bench("control_closed_loop_run")
    cl = stats.closed_loop
    assert stats.drained
    assert cl.requests_issued == cl.replies_delivered == cl.demand_total
    assert cl.peak_outstanding <= 4


def test_perf_knee_search(run_bench):
    result = run_bench("control_knee_search")
    assert result.lo < result.knee_rate < result.hi
    assert result.n_simulations >= 3

"""Extension bench — telemetry sampler cost and trace conversion.

Guards the telemetry subsystem's two performance contracts:

* ``telemetry_sampler`` — ``simulator_run``'s workload with a 64-cycle
  window, tracking the enabled-sampling cost (snapshot diffs per window,
  not per event);
* ``telemetry_power_trace`` — windowed power conversion + detectors over
  a prebuilt telemetry trace (the post-processing hot path).

Both are ``smoke``-tagged so the perf CI gate watches them.
Correctness is asserted on the same payloads: sampled runs conserve
counts exactly, and the power-trace total is bit-identical to the
whole-run energy.
"""

import numpy as np

from repro.bench import benchmark_spec, load_sibling
from repro.simulation import sim_dynamic_energy_j
from repro.telemetry import TelemetryConfig, analyze, power_trace

WINDOW = 64

# Sampling cost reads against simulator_run: share its fixture.
_sim_perf = load_sibling(__file__, "bench_simulator_perf")
N_PACKETS = _sim_perf.N_PACKETS


def _simulator_fixture():
    sim, trace = _sim_perf._simulator_fixture()
    return sim.topology, sim, trace


@benchmark_spec(
    "telemetry_sampler",
    setup=_simulator_fixture,
    points=N_PACKETS,
    tags=("perf", "telemetry", "smoke"),
)
def run_sampled(fixture):
    """The same run with 64-cycle windowed sampling enabled."""
    _, sim, trace = fixture
    return sim.run(trace, telemetry=TelemetryConfig(window=WINDOW))


def _telemetry_fixture():
    mesh, sim, trace = _simulator_fixture()
    stats = sim.run(trace, telemetry=TelemetryConfig(window=WINDOW))
    return mesh, stats


@benchmark_spec(
    "telemetry_power_trace",
    setup=_telemetry_fixture,
    points=lambda result: result[0].n_windows,
    tags=("perf", "telemetry", "smoke"),
)
def run_power_conversion(fixture):
    """Windowed power conversion + all streaming detectors."""
    mesh, stats = fixture
    return power_trace(mesh, stats.telemetry), analyze(stats.telemetry)


def test_perf_sampler(run_bench):
    stats = run_bench("telemetry_sampler")
    assert stats.telemetry is not None
    assert np.array_equal(
        stats.telemetry.total_link_flits(), stats.link_flit_counts
    )
    assert stats.telemetry.total_delivered() == stats.packet_latencies.size


def test_perf_power_conversion(run_bench):
    power, findings = run_bench("telemetry_power_trace")
    mesh, stats = _telemetry_fixture()
    assert power.total.dynamic_j == sim_dynamic_energy_j(mesh, stats).dynamic_j
    assert power.series_conservation_error() < 1e-12
    assert findings.baseline_latency > 0

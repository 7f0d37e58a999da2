"""Fig. 6 — average packet latency, NAS Parallel Benchmarks.

Cycle-simulates synthetic NPB traces (FT, CG, MG, LU) on the base
electronic mesh and on express meshes with Hops = 3, 5, 15. Express links
are optical (photonic or HyPPI — "the latency is the same in both cases,
because their individual link latencies are identical", so one run covers
both).

Trace scales are simulation-budget bound; EXPERIMENTS.md records the
scaling and the resulting paper-vs-measured ratios.

``fig6_cli`` times what a reader of the paper waits for: ``Runner.run``
at ``jobs=1`` of the scenario list ``repro fig6`` builds by default (CG
at volume scale 3e-4, full iterations, on the mesh and at Hops = 3, 5,
15), trace generation inside the timer, on a fresh cache.
"""

import pytest

from repro.bench import HEAVY_POLICY, RepeatPolicy, benchmark_spec
from repro.experiments import EvaluationCache, Runner, scenario_family
from repro.util import format_table

KERNELS = ("FT", "CG", "MG", "LU")
HOPS_OPTIONS = (0, 3, 5, 15)

PAPER_SPEEDUPS = {  # best express configuration per kernel, from the text
    "CG": 1.25,
    "MG": 1.64,
    "FT": 1.30,
    "LU": 1.0,
}


@benchmark_spec(
    "fig6_npb_latency",
    points=len(KERNELS) * len(HOPS_OPTIONS),
    policy=HEAVY_POLICY,
    tags=("figure", "simulation"),
)
def simulate_npb_grid():
    """Cycle-simulate every NPB kernel on every topology option."""
    # The engine's NPB family carries the same per-kernel volume scales /
    # iteration counts this bench used to hand-roll (DEFAULT_NPB_WORKLOADS).
    scenarios = scenario_family(
        "npb-kernels", kernels=KERNELS, hops_options=HOPS_OPTIONS
    )
    results = Runner(jobs=1).run(scenarios)
    out = {}
    for scenario, res in zip(scenarios, results):
        kernel = dict(scenario.traffic.params)["kernel"]
        hops = scenario.topology.hops
        name = "mesh" if hops == 0 else f"h{hops}"
        assert res.metrics["drained"], f"{kernel}@{name} undrained"
        out[kernel, name] = res.metrics["avg_latency"]
    return out


def _fig6_cli_scenarios():
    """``repro fig6``'s default scenario list, as specs only."""
    return scenario_family(
        "npb-kernels",
        kernels=["CG"],
        hops_options=HOPS_OPTIONS,
        workloads={"CG": (3e-4, None)},
    )


@benchmark_spec(
    "fig6_cli",
    setup=_fig6_cli_scenarios,
    points=len(HOPS_OPTIONS),
    # About 20 s a run: a median of three, without a warmup.
    policy=RepeatPolicy(warmup=0, min_repeats=3, max_repeats=3, min_runtime_s=0.0),
    tags=("perf", "simulation"),
)
def run_fig6_cli(scenarios):
    """``repro fig6`` (CG, four networks) end to end at jobs=1."""
    results = Runner(jobs=1, cache=EvaluationCache()).run(scenarios)
    return [res.metrics for res in results]


def test_fig6_npb_latency(run_bench, save_result):
    lat = run_bench("fig6_npb_latency")
    kernels = ("FT", "CG", "MG", "LU")
    rows = []
    for k in kernels:
        base = lat[k, "mesh"]
        best = min(lat[k, n] for n in ("h3", "h5", "h15"))
        rows.append(
            [
                k,
                base,
                lat[k, "h3"],
                lat[k, "h5"],
                lat[k, "h15"],
                base / best,
                PAPER_SPEEDUPS[k],
            ]
        )
    save_result(
        "fig6_npb_latency",
        format_table(
            ["kernel", "mesh (clk)", "h3", "h5", "h15",
             "best speedup", "paper best"],
            rows,
            title="Fig. 6 — NPB average latency (cycle simulation)",
        ),
    )

    # Shape assertions (paper Section IV-A).
    assert lat["CG", "mesh"] / min(lat["CG", "h3"], lat["CG", "h5"]) > 1.1
    assert lat["MG", "mesh"] / lat["MG", "h15"] > 1.03
    assert lat["FT", "mesh"] / min(
        lat["FT", n] for n in ("h3", "h5", "h15")
    ) > 1.2
    for name in ("h3", "h5", "h15"):
        assert lat["LU", "mesh"] / lat["LU", name] == pytest.approx(1.0, abs=0.1)

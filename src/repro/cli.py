"""Command-line interface: regenerate any of the paper's artefacts.

Usage::

    python -m repro table3              # Table III (C and R)
    python -m repro table4              # Table IV (static power)
    python -m repro fig5 --jobs 4       # Fig. 5 design-space exploration
    python -m repro fig3                # Fig. 3 link CLEAR sweep
    python -m repro fig8                # Fig. 8 all-optical projections
    python -m repro table6              # Table VI router comparison
    python -m repro fig6 --kernel CG    # cycle-simulate one NPB kernel
    python -m repro sweep --hops 3      # latency vs injection rate
    python -m repro workload list       # registered workload models
    python -m repro workload gen --model onoff --out trace.npz
    python -m repro workload stats trace.npz
    python -m repro workload import dump.txt --out trace.npz
    python -m repro workload sweep --model onoff --param duty=0.25
    python -m repro telemetry run --model onoff --rate 0.3
    python -m repro telemetry export --out run.npz  # byte-deterministic
    python -m repro telemetry stats run.npz
    python -m repro telemetry heatmap run.npz       # per-link utilization
    python -m repro control run --rate 0.5 --outstanding 4
    python -m repro control knee --lo 0.1 --hi 0.9  # bisect the knee
    python -m repro control stats run.npz
    python -m repro bench run --quick   # benchmark harness (BENCH_*.json)
    python -m repro bench compare a b   # perf gate: exit 1 on regression
    python -m repro serve --port 8032   # experiment service (HTTP/JSON)
    python -m repro submit --family saturation-sweep --param 'rates=[0.1]'
    python -m repro status job-000001 --wait
    python -m repro fetch job-000001 --out results.npz
    python -m repro jobs                # audit: job history + cache stats
    python -m repro obs metrics --prom  # Prometheus-format metrics dump
    python -m repro obs top             # live per-job progress screen

Each command prints the rendered ASCII table/figure to stdout; heavier
commands expose their main knobs as flags. Sweep-shaped commands route
through the experiment engine (:mod:`repro.experiments`) and share one
option surface: ``--jobs N`` evaluates design points on a process pool
(results are bit-identical to serial runs), the runner picks the
simulation engine for each point (wide families run as lockstep
chunks on the vectorized engine), repeated points are served from the
evaluation cache, and saturated simulation points are flagged instead
of crashing. The service commands (serve/submit/status/fetch/jobs)
speak the :mod:`repro.service` HTTP API.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import sys
from collections.abc import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def _status(drained: bool) -> str:
    """Human-readable drain flag for simulation rows."""
    return "ok" if drained else "SATURATED"


def _fmt_latency(value: float) -> object:
    """Render a latency figure, making undefined (nan) values explicit."""
    return "n/a" if isinstance(value, float) and math.isnan(value) else value


def _cmd_table3(args: argparse.Namespace) -> None:
    from repro.experiments import Runner
    from repro.experiments import paper_point
    from repro.tech import Technology
    from repro.util import format_table

    scenarios = [
        paper_point(
            Technology.ELECTRONIC,
            None if hops == 0 else Technology.HYPPI,
            hops,
            seed=args.seed,
        )
        for hops in (0, 3, 5, 15)
    ]
    results = Runner(jobs=args.jobs).run(scenarios)
    rows = [
        [
            "plain mesh" if hops == 0 else f"hops={hops}",
            res.metrics["capability_gbps"],
            res.metrics["r_slope"],
        ]
        for hops, res in zip((0, 3, 5, 15), results)
    ]
    print(format_table(["topology", "C (Gb/s)", "R"], rows, title="Table III"))


def _cmd_table4(args: argparse.Namespace) -> None:
    from repro.experiments import Runner
    from repro.experiments import paper_point
    from repro.tech import Technology
    from repro.util import format_table

    options: list[tuple[Technology | None, int]] = [(None, 0)]
    options += [
        (tech, hops)
        for tech in (Technology.ELECTRONIC, Technology.PHOTONIC, Technology.HYPPI)
        for hops in (3, 5, 15)
    ]
    scenarios = [
        paper_point(Technology.ELECTRONIC, tech, hops, seed=args.seed)
        for tech, hops in options
    ]
    results = Runner(jobs=args.jobs).run(scenarios)
    rows = []
    for (tech, hops), res in zip(options, results):
        static_w = res.metrics["router_static_w"] + res.metrics["link_static_w"]
        if tech is None:
            rows.append(["base mesh", "-", static_w])
        else:
            rows.append([tech.value, hops, static_w])
    print(
        format_table(
            ["express tech", "hops", "static power (W)"], rows, title="Table IV"
        )
    )


def _cmd_fig3(args: argparse.Namespace) -> None:
    from repro.core import sweep_link_clear
    from repro.tech import (
        ElectronicLinkModel,
        HyPPILinkModel,
        PhotonicLinkModel,
        PlasmonicLinkModel,
    )
    from repro.util import ascii_xy_plot

    lengths = np.logspace(-6, np.log10(0.05), 60)
    models = {
        "electronic": ElectronicLinkModel(),
        "photonic": PhotonicLinkModel(),
        "plasmonic": PlasmonicLinkModel(),
        "hyppi": HyPPILinkModel(),
    }
    sweeps = {n: sweep_link_clear(m, lengths) for n, m in models.items()}
    print(
        ascii_xy_plot(
            {n: (s.lengths_m, s.clear) for n, s in sweeps.items()},
            logx=True,
            logy=True,
            width=78,
            height=22,
            title="Fig. 3 — link CLEAR vs length (log-log)",
        )
    )


def _cmd_fig5(args: argparse.Namespace) -> None:
    from repro.core import DesignSpaceExplorer
    from repro.util import format_table

    explorer = DesignSpaceExplorer(
        injection_rate=args.injection_rate, seed=args.seed, jobs=args.jobs
    )
    points = explorer.explore(hops_options=args.hops)
    rows = [
        [
            pt.label,
            pt.evaluation.latency_clks,
            pt.evaluation.power.total_w,
            pt.evaluation.area_mm2,
            pt.evaluation.clear,
        ]
        for pt in points
    ]
    print(
        format_table(
            ["design point", "latency (clk)", "power (W)", "area (mm2)", "CLEAR"],
            rows,
            title=f"Fig. 5 (injection rate {explorer.injection_rate})",
        )
    )


def _cmd_fig6(args: argparse.Namespace) -> None:
    from repro.experiments import Runner, scenario_family
    from repro.util import format_table

    hops_options = (0, 3, 5, 15)
    scenarios = scenario_family(
        "npb-kernels",
        kernels=[args.kernel],
        hops_options=hops_options,
        workloads={args.kernel: (args.volume_scale, None)},
    )
    results = Runner(jobs=args.jobs).run(scenarios)
    rows = [
        [
            "mesh" if hops == 0 else f"hops={hops}",
            _fmt_latency(res.metrics["avg_latency"]),
            _fmt_latency(res.metrics["p99_latency"]),
            _status(res.metrics["drained"]),
        ]
        for hops, res in zip(hops_options, results)
    ]
    print(
        format_table(
            ["network", "avg latency (clk)", "p99 (clk)", "status"],
            rows,
            title=f"Fig. 6 — NPB {args.kernel.upper()} "
            f"(volume scale {args.volume_scale:g})",
        )
    )
    if any(not res.metrics["drained"] for res in results):
        print(
            "note: SATURATED rows exhausted the cycle budget before the "
            "trace drained; latencies there cover delivered packets only."
        )


def _cmd_table6(args: argparse.Namespace) -> None:
    from repro.optical import HYPPI_ROUTER, PHOTONIC_ROUTER, optimal_port_assignment
    from repro.util import format_table

    rows = []
    for name, router in (("photonic", PHOTONIC_ROUTER), ("hyppi", HYPPI_ROUTER)):
        lo, hi = router.loss_range_db()
        _, expected = optimal_port_assignment(router)
        rows.append(
            [
                name,
                router.control_energy_fj_per_bit(),
                f"{lo:.2f}-{hi:.2f}",
                router.area_um2(),
                expected,
            ]
        )
    print(
        format_table(
            ["router", "control (fJ/bit)", "loss (dB)", "area (um2)",
             "E[loss|XY] (dB)"],
            rows,
            title="Table VI",
        )
    )


def _cmd_fig8(args: argparse.Namespace) -> None:
    from repro.optical import project_all_optical
    from repro.util import format_table

    cmp = project_all_optical(
        amortization_injection_rate=args.amortization_rate, seed=args.seed
    )
    print(
        format_table(
            ["network", "latency (clk)", "E/bit (fJ)", "area (mm2)"],
            [p.radar_row() for p in cmp.all()],
            title="Fig. 8 — all-optical projections",
        )
    )
    print(
        f"energy ratio electronic/all-HyPPI: "
        f"{cmp.energy_ratio_electronic_over_hyppi:.0f}x"
    )


def _cmd_sweep(args: argparse.Namespace) -> None:
    from repro.experiments import Runner, scenario_family

    rates = np.linspace(args.min_rate, args.max_rate, args.points)
    scenarios = scenario_family(
        "saturation-sweep",
        rates=[float(r) for r in rates],
        hops=args.hops,
        cycles=args.cycles,
        drain_budget=args.drain_budget,
        seed=args.seed,
    )
    _print_load_table(
        Runner(jobs=args.jobs).run(scenarios),
        "",
        "offered load beyond network saturation",
    )


def _print_load_table(results: list, workload: str, note: str) -> None:
    """The latency-vs-offered-load table of ``sweep`` and ``workload
    sweep``; ``workload`` labels the title, and ``note`` says why a
    SATURATED point did not drain."""
    from repro.util import format_table

    rows = [
        [
            res.scenario.traffic.injection_rate,
            _fmt_latency(res.metrics["avg_latency"]),
            _fmt_latency(res.metrics["p99_latency"]),
            _status(res.metrics["drained"]),
        ]
        for res in results
    ]
    topo_name = results[0].metrics["topology_name"] if results else "mesh"
    print(
        format_table(
            ["injection rate", "avg latency", "p99", "status"],
            rows,
            title="latency vs offered load — "
            + (f"{workload} on " if workload else "")
            + topo_name,
        )
    )
    if any(not res.metrics["drained"] for res in results):
        print(f"note: SATURATED points did not drain within the cycle budget ({note}).")


def _parse_params(pairs: Sequence[str]) -> dict[str, object]:
    """Parse repeated ``--param key=value`` flags (values literal-eval'd)."""
    import ast

    out: dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--param expects key=value, got {pair!r}")
        try:
            value: object = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            value = raw
        out[key] = tuple(value) if isinstance(value, list) else value
    return out


def _cmd_workload_list(args: argparse.Namespace) -> int:
    from repro.workloads import SKELETONS, TEMPORAL_MODELS
    from repro.util import format_table

    def doc(fn) -> str:
        return (fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else "-"

    rows = [
        [name, "temporal", doc(fn)] for name, fn in sorted(TEMPORAL_MODELS.items())
    ]
    rows += [
        [name, "skeleton", doc(fn)] for name, fn in sorted(SKELETONS.items())
    ]
    print(format_table(["model", "kind", "description"], rows, title="workloads"))
    return 0


def _workload_spec(args: argparse.Namespace):
    from repro.workloads import WorkloadSpec

    return WorkloadSpec.make(
        args.model,
        injection_rate=args.rate,
        cycles=args.cycles,
        packet_flits=args.packet_flits,
        seed=args.seed,
        traffic=args.traffic,
        **_parse_params(args.param),
    )


def _cmd_workload_gen(args: argparse.Namespace) -> int:
    from repro.topology import build_mesh
    from repro.util import format_table
    from repro.workloads import save_trace_npz, trace_stats

    spec = _workload_spec(args)
    trace = spec.build(build_mesh(args.width, args.height))
    save_trace_npz(trace, args.out, extra={"workload_spec": spec.to_json()})
    stats = trace_stats(trace)
    print(
        format_table(
            ["metric", "value"],
            stats.rows(),
            title=f"{trace.name} -> {args.out}",
        )
    )
    return 0


def _cmd_workload_stats(args: argparse.Namespace) -> int:
    from repro.util import format_table
    from repro.workloads import stats_from_arrays, trace_columns

    import zipfile

    if zipfile.is_zipfile(args.file):
        # npz store: invalid archives must fail loudly (version/format
        # diagnostics), never fall through to the text parser.
        header, cols = trace_columns(args.file)
        n_nodes, name = int(header["n_nodes"]), header["name"]
        time, src, size = cols["time"], cols["src"], cols["size_flits"]
    else:
        # Line-oriented text format (repro.traffic.io).
        from repro.traffic import load_trace

        trace = load_trace(args.file)
        n_nodes, name = trace.n_nodes, trace.name
        cols = trace.columns()
        time, src, size = cols["time"], cols["src"], cols["size_flits"]
    stats = stats_from_arrays(
        n_nodes, time, src, size, window=args.window, gap=args.gap
    )
    print(format_table(["metric", "value"], stats.rows(), title=str(name)))
    return 0


def _cmd_workload_import(args: argparse.Namespace) -> int:
    import pathlib

    from repro.traffic import load_external_trace
    from repro.util import format_table
    from repro.workloads import save_trace_npz, trace_stats

    trace = load_external_trace(
        args.input, n_nodes=args.nodes, name=args.name
    )
    save_trace_npz(
        trace,
        args.out,
        extra={
            "imported_from": pathlib.Path(args.input).name,
            "source_format": "external-text",
        },
    )
    print(
        format_table(
            ["metric", "value"],
            trace_stats(trace).rows(),
            title=f"{trace.name} -> {args.out}",
        )
    )
    return 0


def _telemetry_scenario(args: argparse.Namespace):
    """The single telemetry-profile scenario the run/export commands use."""
    from repro.experiments import scenario_family

    return scenario_family(
        "telemetry-profile",
        rates=[args.rate],
        model=args.model,
        traffic=args.traffic,
        width=args.width,
        height=args.height,
        cycles=args.cycles,
        window=args.window,
        packet_flits=args.packet_flits,
        drain_budget=args.drain_budget,
        seed=args.seed,
        **_parse_params(args.param),
    )[0]


def _save_telemetry(args: argparse.Namespace, scenario, telemetry, power) -> None:
    from repro.telemetry import save_telemetry_npz

    save_telemetry_npz(
        args.out,
        telemetry,
        power,
        extra={"scenario": scenario.to_json()},
    )
    print(f"telemetry written to {args.out} (byte-deterministic)")


def _cmd_telemetry_run(args: argparse.Namespace) -> int:
    from repro.telemetry import profile_scenario, render_report

    scenario = _telemetry_scenario(args)
    stats, telemetry, power, findings = profile_scenario(scenario)
    print(
        render_report(
            telemetry,
            power,
            findings,
            title=scenario.label,
            max_rows=args.max_rows,
        )
    )
    if not stats.drained:
        print(
            "note: the run did not drain within the cycle budget; the "
            "windowed series shows where it degraded."
        )
    if args.out:
        _save_telemetry(args, scenario, telemetry, power)
    return 0


def _cmd_telemetry_export(args: argparse.Namespace) -> int:
    from repro.telemetry import profile_scenario

    scenario = _telemetry_scenario(args)
    _, telemetry, power, findings = profile_scenario(scenario)
    onset = findings.saturation_onset_cycle
    print(
        f"{scenario.label}: {telemetry.n_windows} windows x "
        f"{telemetry.window} cycles, saturation onset: "
        f"{'none' if onset is None else f'cycle {onset}'}"
    )
    _save_telemetry(args, scenario, telemetry, power)
    return 0


def _cmd_telemetry_stats(args: argparse.Namespace) -> int:
    from repro.telemetry import load_telemetry_npz, render_report

    telemetry, power, header = load_telemetry_npz(args.file)
    title = str(
        header.get("extra", {}).get("scenario", {}).get("name") or args.file
    )
    print(render_report(telemetry, power, title=title, max_rows=args.max_rows))
    return 0


def _cmd_telemetry_heatmap(args: argparse.Namespace) -> int:
    from repro.telemetry import load_telemetry_npz, render_link_heatmap

    telemetry, _, _ = load_telemetry_npz(args.file)
    print(render_link_heatmap(telemetry, csv=args.csv, top=args.top))
    return 0


def _control_scenario(args: argparse.Namespace):
    """The single closed-loop/control scenario ``control run`` evaluates."""
    from repro.experiments import scenario_family

    controllers = tuple(
        name for name in (c.strip() for c in args.controllers.split(",")) if name
    )
    return scenario_family(
        "closed-loop-saturation",
        rates=[args.rate],
        window=args.outstanding,
        think_cycles=args.think,
        reply_flits=args.reply_flits,
        model=args.model,
        traffic=args.traffic,
        width=args.width,
        height=args.height,
        cycles=args.cycles,
        packet_flits=args.packet_flits,
        drain_budget=args.drain_budget,
        telemetry_window=args.window,
        controllers=controllers,
        seed=args.seed,
        **_parse_params(args.param),
    )[0]


def _closed_loop_rows(cl) -> list[list[object]]:
    return [
        ["outstanding window", cl.window],
        ["think cycles", cl.think_cycles],
        ["demand (requests wanted)", cl.demand_total],
        ["requests issued / delivered", f"{cl.requests_issued} / {cl.requests_delivered}"],
        ["replies issued / delivered", f"{cl.replies_issued} / {cl.replies_delivered}"],
        ["outstanding at end", cl.outstanding_at_end],
        ["peak outstanding", cl.peak_outstanding],
        ["stalled demand at end", cl.stalled_demand],
        ["mean round trip (cycles)", _fmt_latency(round(cl.mean_round_trip, 2) if cl.replies_delivered else math.nan)],
    ]


def _control_actions_table(trace, title: str = "control actions") -> str:
    """Rendered action log of one ControlTrace (run- and stats-time view)."""
    from repro.util import format_table

    rows = [
        [
            a.window,
            a.cycle,
            a.controller,
            a.kind,
            a.value,
            ",".join(map(str, a.nodes)) or "-",
        ]
        for a in trace.actions
    ]
    return format_table(
        ["window", "cycle", "controller", "action", "value", "nodes"],
        rows,
        title=f"{title} ({trace.n_actions}, final gate period "
        f"{trace.final_throttle_period})",
    )


def _cmd_control_run(args: argparse.Namespace) -> int:
    from repro.experiments import simulate_scenario
    from repro.util import format_table

    scenario = _control_scenario(args)
    topo, stats = simulate_scenario(scenario)
    rows: list[list[object]] = [
        ["topology", topo.name],
        ["status", _status(stats.drained)],
        ["cycles", stats.cycles],
        ["packets delivered", stats.packet_latencies.size],
        ["avg latency (clk)", _fmt_latency(round(stats.avg_latency, 2) if stats.packet_latencies.size else math.nan)],
    ]
    if stats.closed_loop is not None:
        rows += _closed_loop_rows(stats.closed_loop)
    print(format_table(["metric", "value"], rows, title=scenario.label))
    if stats.control is not None:
        print(_control_actions_table(stats.control))
    if not stats.drained:
        print(
            "note: the run did not drain within the cycle budget "
            "(offered demand beyond this operating point)."
        )
    if args.out:
        if stats.telemetry is None:
            print(
                "error: --out needs windowed telemetry; pass --window > 0",
                file=sys.stderr,
            )
            return 2
        from repro.telemetry import power_trace, save_telemetry_npz

        extra: dict[str, object] = {"scenario": scenario.to_json()}
        if stats.closed_loop is not None:
            extra["closed_loop"] = stats.closed_loop.to_json()
        if stats.control is not None:
            extra["control_trace"] = stats.control.to_json()
        save_telemetry_npz(
            args.out, stats.telemetry, power_trace(topo, stats.telemetry), extra=extra
        )
        print(f"control run written to {args.out} (byte-deterministic)")
    return 0


def _cmd_control_stats(args: argparse.Namespace) -> int:
    from repro.control import ClosedLoopStats, ControlTrace
    from repro.telemetry import load_telemetry_npz
    from repro.util import format_table

    _, _, header = load_telemetry_npz(args.file)
    extra = header.get("extra", {})
    closed = extra.get("closed_loop")
    control = extra.get("control_trace")
    if closed is None and control is None:
        print(
            f"error: {args.file} holds no closed-loop/control record "
            "(written by `repro control run --out`?)",
            file=sys.stderr,
        )
        return 2
    title = str(extra.get("scenario", {}).get("name") or args.file)
    if closed is not None:
        cl = ClosedLoopStats.from_json(closed)
        print(
            format_table(
                ["metric", "value"], _closed_loop_rows(cl), title=f"{title} — closed loop"
            )
        )
    if control is not None:
        trace = ControlTrace.from_json(control)
        print(_control_actions_table(trace, title=f"{title} — control actions"))
    return 0


def _cmd_control_knee(args: argparse.Namespace) -> int:
    from repro.control import locate_knee
    from repro.experiments import Runner
    from repro.util import format_table

    result = locate_knee(
        lo=args.lo,
        hi=args.hi,
        tolerance=args.tol,
        runner=Runner(jobs=args.jobs),
        model=args.model,
        traffic=args.traffic,
        width=args.width,
        height=args.height,
        cycles=args.cycles,
        window=args.window,
        packet_flits=args.packet_flits,
        drain_budget=args.drain_budget,
        seed=args.seed,
        **_parse_params(args.param),
    )
    rows = [
        [
            f"{p.rate:g}",
            "SATURATED" if p.saturated else "stable",
            "-" if p.onset_cycle is None else p.onset_cycle,
            "cache" if p.cached else "simulated",
        ]
        for p in result.probes
    ]
    print(
        format_table(
            ["rate", "verdict", "onset cycle", "source"],
            rows,
            title=f"knee search — {args.model}/{args.traffic} "
            f"{args.width}x{args.height}",
        )
    )
    grid_points = math.ceil((args.hi - args.lo) / args.tol) + 1
    print(
        f"knee at r = {result.knee_rate:g} (bracket {result.lo:g}..{result.hi:g}, "
        f"tolerance {result.tolerance:g}) in {result.n_simulations} simulations "
        f"— an equivalent sweep is {grid_points} points."
    )
    return 0


def _cmd_workload_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import Runner, scenario_family

    rates = np.linspace(args.min_rate, args.max_rate, args.points)
    scenarios = scenario_family(
        "workload-saturation",
        rates=[float(r) for r in rates],
        model=args.model,
        traffic=args.traffic,
        hops=args.hops,
        cycles=args.cycles,
        packet_flits=args.packet_flits,
        drain_budget=args.drain_budget,
        seed=args.seed,
        **_parse_params(args.param),
    )
    _print_load_table(
        Runner(jobs=args.jobs).run(scenarios),
        f"{args.model}/{args.traffic}",
        "bursty models saturate at or below the Bernoulli point",
    )
    return 0


def _cmd_bench_list(args: argparse.Namespace) -> int:
    from repro.bench import discover, registered_benchmarks
    from repro.util import format_table

    discover(args.dir)
    benches = registered_benchmarks(tags=args.tag)
    rows = [
        [b.name, ",".join(b.tags) or "-", b.description or "-"] for b in benches
    ]
    print(format_table(["benchmark", "tags", "description"], rows, title="benchmarks"))
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.bench import BenchSuite, discover, registered_benchmarks
    from repro.util import format_table

    discover(args.dir)
    benches = registered_benchmarks(tags=args.tag, names=args.name)
    if not benches:
        print("error: no benchmarks match the given filters", file=sys.stderr)
        return 2
    suite = BenchSuite(args.out, quick=args.quick)
    results = suite.run(benches)
    rows = [
        [
            res.name,
            res.repeats,
            res.median_ns / 1e6,
            res.stdev_ns / 1e6,
            "-" if res.points_per_sec is None else f"{res.points_per_sec:,.1f}",
        ]
        for res in results
    ]
    print(
        format_table(
            ["benchmark", "repeats", "median (ms)", "stdev (ms)", "points/sec"],
            rows,
            title=f"repro bench ({'quick' if args.quick else 'calibrated'} mode)",
        )
    )
    print(f"records written to {suite.results_dir}/BENCH_<name>.json")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench import compare
    from repro.util import format_table

    cmp = compare(args.old, args.new, threshold=args.threshold)
    rows = [
        [
            d.name,
            d.old_median_ns / 1e6,
            d.new_median_ns / 1e6,
            f"{d.ratio:.3f}",
            "REGRESSION"
            if d.ratio > cmp.threshold
            else (
                f"improved {d.speedup:.2f}x"
                if d.ratio < 1.0 / cmp.threshold
                else "ok"
            ),
        ]
        for d in cmp.deltas
    ]
    print(
        format_table(
            ["benchmark", "old median (ms)", "new median (ms)", "new/old", "verdict"],
            rows,
            title=f"bench compare (threshold {cmp.threshold:g}x)",
        )
    )
    for d in cmp.improvements:
        print(
            f"IMPROVED: {d.name} {d.speedup:.2f}x faster "
            f"({d.old_median_ns / 1e6:.2f} ms -> {d.new_median_ns / 1e6:.2f} ms)"
        )
    for name in cmp.missing:
        print(f"MISSING: {name} (in old recording, absent from new)")
    for name in cmp.added:
        print(f"added: {name} (no baseline yet; not gated)")
    if cmp.ok:
        improved = (
            f", {len(cmp.improvements)} improvement(s)"
            if cmp.improvements
            else ""
        )
        print(f"gate: OK ({len(cmp.deltas)} benchmark(s) compared{improved})")
        return 0
    print(
        f"gate: FAIL ({len(cmp.regressions)} regression(s), "
        f"{len(cmp.missing)} missing)"
    )
    return 1


_DEFAULT_SERVICE_URL = "http://127.0.0.1:8032"


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    return serve(
        args.host,
        args.port,
        args.state_dir,
        jobs=args.jobs,
        log_level=args.log_level,
        log_json=args.log_json,
    )


def _service_client(args: argparse.Namespace):
    from repro.service import ServiceClient

    return ServiceClient(args.url, timeout=args.timeout)


def _print_job(job: dict, *, as_json: bool) -> None:
    import json

    if as_json:
        print(json.dumps(job, sort_keys=True))
        return
    extra = ""
    if job.get("duration_s") is not None:
        extra = f" in {job['duration_s']:g}s"
    if job.get("error"):
        extra += f" — {job['error']}"
    print(
        f"{job['job_id']}: {job['state']} "
        f"({job['points_done']}/{job['n_points']} points, "
        f"{job['cache_hits']} cache hits{extra})"
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.service import REQUEST_VERSION, ServiceError

    if args.spec:
        request = json.loads(pathlib.Path(args.spec).read_text())
    else:
        if not args.family:
            print("error: pass --family NAME or --spec FILE", file=sys.stderr)
            return 2
        params = _parse_params(args.param)
        request = {
            "version": REQUEST_VERSION,
            "family": args.family,
            "params": params,
        }
    if args.jobs != 1:
        request["jobs"] = args.jobs
    if args.profile:
        request["profile"] = True
    client = _service_client(args)
    try:
        job = client.submit(request)
        if args.wait:
            job = client.wait(
                job["job_id"], timeout=args.timeout, poll=args.poll_interval
            )
    except ServiceError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return 2
    _print_job(job, as_json=args.json)
    return 0 if job["state"] != "failed" else 1


def _cmd_status(args: argparse.Namespace) -> int:
    import json
    import time as _time

    from repro.service import ServiceError

    if args.poll_interval <= 0:
        print("error: --poll-interval must be > 0 seconds", file=sys.stderr)
        return 2
    client = _service_client(args)
    try:
        if args.watch:
            from repro.obs import render_progress_line

            shown = 0
            while True:
                doc = client.progress(args.job_id)
                if args.json:
                    print(json.dumps(doc, sort_keys=True))
                else:
                    print(render_progress_line(doc))
                shown += 1
                if doc["state"] in ("done", "failed"):
                    return 0 if doc["state"] != "failed" else 1
                if args.watch_count and shown >= args.watch_count:
                    return 0
                try:
                    _time.sleep(args.poll_interval)
                except KeyboardInterrupt:
                    return 0
        if args.wait:
            job = client.wait(
                args.job_id, timeout=args.timeout, poll=args.poll_interval
            )
        else:
            job = client.status(args.job_id)
    except ServiceError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return 2
    _print_job(job, as_json=args.json)
    return 0 if job["state"] != "failed" else 1


def _cmd_fetch(args: argparse.Namespace) -> int:
    import json

    from repro.service import ServiceError

    client = _service_client(args)
    try:
        if args.out:
            payload = client.result_npz(args.job_id, out=args.out)
            print(f"wrote {len(payload)} bytes to {args.out}")
            return 0
        doc = client.result(args.job_id)
    except ServiceError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(doc, sort_keys=True))
        return 0
    from repro.util import format_table

    metric_keys = sorted({k for m in doc["metrics"] for k in m})
    rows = [
        [i] + [_fmt_latency(m.get(k, "-")) for k in metric_keys]
        for i, m in enumerate(doc["metrics"])
    ]
    release = doc["release"]
    print(
        format_table(
            ["point"] + metric_keys,
            rows,
            title=f"{doc['job_id']} — release {release['release']}",
        )
    )
    print(
        f"{doc['n_points']} points, {doc['cache_hits']} cache hits; "
        f"npz export: repro fetch {doc['job_id']} --out results.npz"
    )
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json

    from repro.obs import format_eta
    from repro.service import ServiceError
    from repro.util import format_table

    client = _service_client(args)
    try:
        doc = client.jobs(state=args.state)
    except ServiceError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(doc, sort_keys=True))
        return 0
    rows = []
    for j in doc["jobs"]:
        n = j["n_points"]
        done = j["points_done"]
        pct = 100.0 * done / n if n else 0.0
        progress = j.get("progress") or {}
        if j["state"] == "running":
            eta = format_eta(progress.get("eta_s"))
        elif j["state"] == "done":
            eta = "0s"
        else:
            eta = "-"
        rows.append(
            [
                j["job_id"],
                j["state"],
                f"{done}/{n} ({pct:.0f}%)",
                eta,
                j["cache_hits"],
                "-" if j.get("duration_s") is None else f"{j['duration_s']:g}",
                j.get("resumed", 0) or "-",
            ]
        )
    cache = doc["cache"]
    title = "experiment service jobs"
    if args.state:
        title += f" ({args.state})"
    print(
        format_table(
            [
                "job",
                "state",
                "progress",
                "eta",
                "cache hits",
                "duration (s)",
                "resumed",
            ],
            rows,
            title=title,
        )
    )
    print(
        f"shared cache: {cache['size']} entries "
        f"({cache['hits']} hits / {cache['misses']} misses this run)"
    )
    return 0


def _cmd_obs_metrics(args: argparse.Namespace) -> int:
    import json
    import time as _time

    from repro.service import ServiceError
    from repro.util import format_table

    if args.json and (args.prom or args.watch is not None):
        print(
            "error: --json cannot combine with --prom/--watch",
            file=sys.stderr,
        )
        return 2

    client = _service_client(args)

    def _hist_row(name: str, h: dict) -> list:
        from repro.obs import percentile_from_snapshot

        if h["count"] == 0:
            return ["histogram", name, "n=0"]
        p50 = percentile_from_snapshot(h, 0.50)
        p99 = percentile_from_snapshot(h, 0.99)
        return [
            "histogram",
            name,
            f"n={h['count']} sum={h['sum']:.3f} p50={p50:.3g} p99={p99:.3g}",
        ]

    def _render(clear: bool) -> int:
        try:
            doc = client.metrics()
        except ServiceError as exc:
            print(f"error ({exc.code}): {exc}", file=sys.stderr)
            return 2
        if clear:
            print("\x1b[2J\x1b[H", end="")
        if args.prom:
            # The same formatter the server's root /metrics uses, run
            # client-side over the fetched JSON snapshot.
            from repro.obs import render_prometheus

            print(render_prometheus(doc["metrics"]), end="")
            return 0
        if args.json:
            print(json.dumps(doc, sort_keys=True))
            return 0
        metrics = doc["metrics"]
        rows = [
            ["counter", name, value]
            for name, value in sorted(metrics["counters"].items())
        ]
        rows += [
            ["gauge", name, value]
            for name, value in sorted(metrics["gauges"].items())
        ]
        rows += [
            _hist_row(name, h)
            for name, h in sorted(metrics["histograms"].items())
        ]
        print(
            format_table(["kind", "metric", "value"], rows, title="service metrics")
        )
        cache = doc["cache"]
        print(
            f"shared cache: {cache['size']} entries "
            f"({cache['hits']} hits / {cache['misses']} misses this run)"
        )
        return 0

    if args.watch is None:
        return _render(clear=False)
    if args.watch <= 0:
        print("error: --watch interval must be > 0 seconds", file=sys.stderr)
        return 2
    shown = 0
    while True:
        rc = _render(clear=shown > 0)
        if rc:
            return rc
        shown += 1
        if args.watch_count and shown >= args.watch_count:
            return 0
        try:
            _time.sleep(args.watch)
        except KeyboardInterrupt:
            return 0


def _cmd_obs_top(args: argparse.Namespace) -> int:
    import json
    import time as _time

    from repro.obs import render_top
    from repro.service import ServiceError

    if args.interval <= 0:
        print("error: --interval must be > 0 seconds", file=sys.stderr)
        return 2
    client = _service_client(args)
    shown = 0
    while True:
        try:
            doc = client.jobs()
        except ServiceError as exc:
            print(f"error ({exc.code}): {exc}", file=sys.stderr)
            return 2
        # Flatten each job's live `progress` sub-document into the row
        # shape render_top consumes (the /progress endpoint shape).
        flat = []
        for j in doc["jobs"]:
            merged = dict(j)
            merged.update(j.get("progress") or {})
            flat.append(merged)
        if args.json:
            print(json.dumps({"jobs": flat}, sort_keys=True))
        else:
            if shown:
                print("\x1b[2J\x1b[H", end="")
            print(render_top(flat))
        shown += 1
        if args.count and shown >= args.count:
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_obs_trace(args: argparse.Namespace) -> int:
    import json

    from repro.service import ServiceError

    client = _service_client(args)
    try:
        doc = client.spans(args.job_id, deterministic=args.deterministic)
    except ServiceError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(doc, sort_keys=True))
        return 0
    spans = doc["spans"]
    if not spans:
        print(f"{doc['job_id']}: no spans recorded")
        return 0
    known = {s["span_id"] for s in spans}
    children: dict[str | None, list[dict]] = {}
    for s in spans:
        parent = s["parent_id"] if s["parent_id"] in known else None
        children.setdefault(parent, []).append(s)

    def _walk(parent: str | None, depth: int) -> None:
        for s in children.get(parent, []):
            dur = s.get("duration_ns")
            timing = "" if dur is None else f" [{dur / 1e6:.3f} ms]"
            attrs = " ".join(
                f"{k}={v}" for k, v in sorted(s.get("attrs", {}).items())
            )
            line = f"{'  ' * depth}{s['name']}{timing}"
            print(f"{line} {attrs}" if attrs else line)
            _walk(s["span_id"], depth + 1)

    print(f"{doc['job_id']}: {doc['n_spans']} span(s)")
    _walk(None, 0)
    return 0


def _cmd_obs_profile(args: argparse.Namespace) -> int:
    import json

    from repro.experiments import scenario_family
    from repro.obs import profile_simulation, render_profiles

    if args.job:
        from repro.obs import SweepProfile, render_sweep_profile
        from repro.service import ServiceError

        client = _service_client(args)
        try:
            doc = client.profile(args.job, deterministic=args.deterministic)
        except ServiceError as exc:
            print(f"error ({exc.code}): {exc}", file=sys.stderr)
            return 2
        if args.json or args.deterministic:
            # The deterministic form drops every timing field, so JSON
            # is its only rendering.
            print(json.dumps(doc, sort_keys=True))
            return 0
        print(
            f"sweep profile: {doc['job_id']} "
            f"({doc['state']}, {doc['n_points']} points, "
            f"{doc['n_profiles']} profiled)"
        )
        print(render_sweep_profile(SweepProfile.from_json(doc)))
        return 0

    scenario = scenario_family(
        "saturation-sweep",
        rates=[args.rate],
        hops=args.hops,
        width=args.width,
        height=args.height,
        cycles=args.cycles,
        drain_budget=args.drain_budget,
        seed=args.seed,
    )[0]
    # The CLI's saturation-sweep point is never hooked, so the batched
    # engine can always run it.
    engines = ("interpreter", "batched") if args.engine == "both" else (args.engine,)
    profiles = profile_simulation(scenario, engines)
    if args.json:
        print(
            json.dumps(
                {k: v.to_json() for k, v in profiles.items()}, sort_keys=True
            )
        )
        return 0
    print(f"per-phase engine profile: {scenario.label}")
    print(render_profiles(profiles))
    for engine in sorted(profiles):
        counts = profiles[engine].counts
        rendered = " ".join(f"{k}={counts[k]}" for k in sorted(counts))
        print(f"{engine} counts: {rendered}")
    return 0


def _add_service_client_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--url",
        default=_DEFAULT_SERVICE_URL,
        help=f"service base URL (default {_DEFAULT_SERVICE_URL})",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="request/wait timeout in seconds",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    """The one ``--jobs`` flag of every command that routes through the
    experiment engine, so help text and default stay identical
    everywhere. The runner's planner picks the simulation engine."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the experiment engine (1 = serial; "
        "results are identical either way)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="HyPPI NoC reproduction toolkit"
    )
    parser.add_argument("--seed", type=int, default=0, help="traffic RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p3 = sub.add_parser("table3", help="Table III: capability and R")
    _add_jobs_flag(p3)
    p3.set_defaults(func=_cmd_table3)
    p4 = sub.add_parser("table4", help="Table IV: static power")
    _add_jobs_flag(p4)
    p4.set_defaults(func=_cmd_table4)
    sub.add_parser("fig3", help="Fig. 3: link CLEAR sweep").set_defaults(
        func=_cmd_fig3
    )
    p5 = sub.add_parser("fig5", help="Fig. 5: design-space exploration")
    p5.add_argument("--injection-rate", type=float, default=0.1)
    p5.add_argument(
        "--hops",
        type=int,
        nargs="+",
        default=None,
        help="express hop counts to sweep (default: 3 5 15)",
    )
    _add_jobs_flag(p5)
    p5.set_defaults(func=_cmd_fig5)
    p6 = sub.add_parser("fig6", help="Fig. 6: NPB trace simulation")
    p6.add_argument("--kernel", choices=["FT", "CG", "MG", "LU"], default="CG")
    p6.add_argument("--volume-scale", type=float, default=3e-4)
    _add_jobs_flag(p6)
    p6.set_defaults(func=_cmd_fig6)
    p6t = sub.add_parser("table6", help="Table VI: optical routers")
    p6t.set_defaults(func=_cmd_table6)
    p8 = sub.add_parser("fig8", help="Fig. 8: all-optical projections")
    p8.add_argument("--amortization-rate", type=float, default=0.001)
    p8.set_defaults(func=_cmd_fig8)
    ps = sub.add_parser("sweep", help="latency vs offered load")
    ps.add_argument("--hops", type=int, default=0, choices=[0, 3, 5, 15])
    ps.add_argument("--min-rate", type=float, default=0.02)
    ps.add_argument("--max-rate", type=float, default=0.3)
    ps.add_argument("--points", type=int, default=5)
    ps.add_argument("--cycles", type=int, default=1000)
    ps.add_argument(
        "--drain-budget",
        type=int,
        default=200_000,
        help="post-injection cycles before a point is declared saturated",
    )
    _add_jobs_flag(ps)
    ps.set_defaults(func=_cmd_sweep)

    pw = sub.add_parser(
        "workload", help="workload models & trace files (list/gen/stats/sweep)"
    )
    wsub = pw.add_subparsers(dest="workload_command", required=True)
    pwl = wsub.add_parser("list", help="list registered workload models")
    pwl.set_defaults(func=_cmd_workload_list)

    def _add_model_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--model", default="onoff", help="workload model name (see list)"
        )
        p.add_argument(
            "--traffic",
            default="uniform",
            help="destination matrix generator (temporal models)",
        )
        p.add_argument("--cycles", type=int, default=1000)
        p.add_argument("--packet-flits", type=int, default=1)
        p.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="extra model/traffic parameter (repeatable); values are "
            "Python literals, e.g. --param duty=0.25 "
            "--param hotspot_nodes=[0,119]",
        )

    pwg = wsub.add_parser(
        "gen", help="generate a trace file (byte-deterministic npz format)"
    )
    _add_model_flags(pwg)
    pwg.add_argument("--rate", type=float, default=0.1, help="mean flits/node/cycle")
    pwg.add_argument("--width", type=int, default=16)
    pwg.add_argument("--height", type=int, default=16)
    pwg.add_argument("--out", required=True, help="output trace path (.npz)")
    pwg.set_defaults(func=_cmd_workload_gen)
    pws = wsub.add_parser("stats", help="summarize a stored trace file")
    pws.add_argument("file", help="trace file (npz or text format)")
    pws.add_argument("--window", type=int, default=64, help="burstiness window")
    pws.add_argument("--gap", type=int, default=64, help="phase-gap threshold")
    pws.set_defaults(func=_cmd_workload_stats)
    pwi = wsub.add_parser(
        "import",
        help="import a BookSim/Netrace-style text dump into the npz store",
    )
    pwi.add_argument("input", help="external text trace (cycle src dst [size])")
    pwi.add_argument("--out", required=True, help="output trace path (.npz)")
    pwi.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="node count (default: inferred as max endpoint + 1)",
    )
    pwi.add_argument(
        "--name", default=None, help="trace name (default: input file stem)"
    )
    pwi.set_defaults(func=_cmd_workload_import)
    pww = wsub.add_parser(
        "sweep", help="latency vs offered load for any workload model"
    )
    _add_model_flags(pww)
    pww.add_argument("--hops", type=int, default=0, choices=[0, 3, 5, 15])
    pww.add_argument("--min-rate", type=float, default=0.02)
    pww.add_argument("--max-rate", type=float, default=0.3)
    pww.add_argument("--points", type=int, default=5)
    pww.add_argument("--drain-budget", type=int, default=200_000)
    _add_jobs_flag(pww)
    pww.set_defaults(func=_cmd_workload_sweep)

    pt = sub.add_parser(
        "telemetry",
        help="time-resolved profiling: windowed activity, power, saturation "
        "onset (run/stats/export)",
    )
    tsub = pt.add_subparsers(dest="telemetry_command", required=True)

    def _add_profile_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--model", default="onoff", help="workload model (see workload list)"
        )
        p.add_argument(
            "--traffic", default="uniform", help="destination matrix generator"
        )
        p.add_argument("--rate", type=float, default=0.1, help="mean flits/node/cycle")
        p.add_argument("--width", type=int, default=8)
        p.add_argument("--height", type=int, default=8)
        p.add_argument("--cycles", type=int, default=4000)
        p.add_argument(
            "--window", type=int, default=128, help="telemetry window (cycles)"
        )
        p.add_argument("--packet-flits", type=int, default=1)
        p.add_argument("--drain-budget", type=int, default=200_000)
        p.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="extra model/traffic parameter (repeatable)",
        )
        p.add_argument(
            "--max-rows",
            type=int,
            default=24,
            help="window rows shown before the report elides the middle",
        )

    ptr = tsub.add_parser(
        "run", help="profile one workload run and print the windowed report"
    )
    _add_profile_flags(ptr)
    ptr.add_argument(
        "--out", default=None, help="also save the telemetry npz dump here"
    )
    ptr.set_defaults(func=_cmd_telemetry_run)
    pte = tsub.add_parser(
        "export", help="profile and save a byte-deterministic telemetry npz"
    )
    _add_profile_flags(pte)
    pte.add_argument("--out", required=True, help="output telemetry path (.npz)")
    pte.set_defaults(func=_cmd_telemetry_export)
    pts = tsub.add_parser("stats", help="report a stored telemetry npz file")
    pts.add_argument("file", help="telemetry file written by run/export")
    pts.add_argument("--max-rows", type=int, default=24)
    pts.set_defaults(func=_cmd_telemetry_stats)
    pth = tsub.add_parser(
        "heatmap",
        help="render per-link windowed utilization from a telemetry npz",
    )
    pth.add_argument("file", help="telemetry file written by run/export")
    pth.add_argument(
        "--csv", action="store_true", help="exact CSV values instead of shading"
    )
    pth.add_argument(
        "--top",
        type=int,
        default=None,
        help="only the N busiest links (default: all)",
    )
    pth.set_defaults(func=_cmd_telemetry_heatmap)

    pc = sub.add_parser(
        "control",
        help="closed-loop workloads & adaptive control (run/stats/knee)",
    )
    csub = pc.add_subparsers(dest="control_command", required=True)

    def _add_control_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--model", default="bernoulli", help="demand model (see workload list)"
        )
        p.add_argument(
            "--traffic", default="uniform", help="destination matrix generator"
        )
        p.add_argument("--rate", type=float, default=0.1, help="demand flits/node/cycle")
        p.add_argument("--width", type=int, default=8)
        p.add_argument("--height", type=int, default=8)
        p.add_argument("--cycles", type=int, default=2000)
        p.add_argument("--packet-flits", type=int, default=1)
        p.add_argument("--drain-budget", type=int, default=200_000)
        p.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="extra model/traffic parameter (repeatable)",
        )

    pcr = csub.add_parser(
        "run", help="run one closed-loop / controlled point, print its record"
    )
    _add_control_flags(pcr)
    pcr.add_argument(
        "--outstanding",
        type=int,
        default=4,
        help="per-source outstanding-request window (0 = open loop)",
    )
    pcr.add_argument(
        "--think", type=int, default=0, help="destination think time (cycles)"
    )
    pcr.add_argument("--reply-flits", type=int, default=1)
    pcr.add_argument(
        "--window",
        type=int,
        default=0,
        help="telemetry/control window in cycles (0 = no sampling)",
    )
    pcr.add_argument(
        "--controllers",
        default="",
        help="comma-separated online controllers (throttle, vc-bias); "
        "needs --window > 0",
    )
    pcr.add_argument(
        "--out", default=None, help="save the telemetry+control npz dump here"
    )
    pcr.set_defaults(func=_cmd_control_run)
    pcs = csub.add_parser(
        "stats", help="report a stored closed-loop/control npz file"
    )
    pcs.add_argument("file", help="file written by `control run --out`")
    pcs.set_defaults(func=_cmd_control_stats)
    pck = csub.add_parser(
        "knee",
        help="bisect the saturation knee in O(log) simulations",
    )
    _add_control_flags(pck)
    pck.add_argument("--lo", type=float, default=0.05, help="stable bracket end")
    pck.add_argument("--hi", type=float, default=0.9, help="saturated bracket end")
    pck.add_argument("--tol", type=float, default=0.02, help="rate tolerance")
    pck.add_argument(
        "--window", type=int, default=128, help="telemetry window (cycles)"
    )
    _add_jobs_flag(pck)
    # Knee probes lean on the streaming detector, not budget exhaustion;
    # a modest drain budget keeps saturated probes cheap.
    pck.set_defaults(func=_cmd_control_knee, drain_budget=20_000)

    pb = sub.add_parser("bench", help="benchmark harness (run/list/compare)")
    bench_sub = pb.add_subparsers(dest="bench_command", required=True)
    pbl = bench_sub.add_parser("list", help="list registered benchmarks")
    pbl.add_argument("--dir", default="benchmarks", help="benchmark definitions dir")
    pbl.add_argument("--tag", action="append", default=[], help="filter by tag")
    pbl.set_defaults(func=_cmd_bench_list)
    pbr = bench_sub.add_parser(
        "run", help="run benchmarks, write BENCH_<name>.json records"
    )
    pbr.add_argument("--dir", default="benchmarks", help="benchmark definitions dir")
    pbr.add_argument(
        "--out",
        default="benchmarks/results",
        help="results directory for BENCH_<name>.json + BENCH_SUITE.json",
    )
    pbr.add_argument(
        "--quick",
        action="store_true",
        help="single timed iteration per benchmark (smoke/CI mode)",
    )
    pbr.add_argument(
        "--tag",
        action="append",
        default=[],
        help="only benchmarks carrying all given tags (e.g. --tag smoke)",
    )
    pbr.add_argument(
        "--name", action="append", default=[], help="only the named benchmark(s)"
    )
    pbr.set_defaults(func=_cmd_bench_run)
    pbc = bench_sub.add_parser(
        "compare", help="gate a new recording against a baseline"
    )
    pbc.add_argument("old", help="baseline recording (suite or single record)")
    pbc.add_argument("new", help="new recording to gate")
    pbc.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="allowed slowdown factor before the gate fails (default 1.25)",
    )
    pbc.set_defaults(func=_cmd_bench_compare)

    psv = sub.add_parser(
        "serve", help="run the HTTP/JSON experiment service (repro.service)"
    )
    psv.add_argument("--host", default="127.0.0.1", help="bind address")
    psv.add_argument(
        "--port", type=int, default=8032, help="TCP port (0 picks a free one)"
    )
    psv.add_argument(
        "--state-dir",
        default=".repro-service",
        help="job records, shared cache and npz releases live here; "
        "a restarted service resumes unfinished jobs from it",
    )
    psv.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="structured-log threshold for the repro.* loggers "
        "(access log lines are info; per-request detail is debug)",
    )
    psv.add_argument(
        "--log-json",
        action="store_true",
        help="emit logs as JSON lines instead of key=value text",
    )
    _add_jobs_flag(psv)
    psv.set_defaults(func=_cmd_serve)

    psub = sub.add_parser(
        "submit", help="submit a scenario family (or spec file) to the service"
    )
    psub.add_argument("--family", help="registered scenario family name")
    psub.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="family parameter (repeatable; values are literal-eval'd)",
    )
    psub.add_argument(
        "--spec", help="JSON file holding a full request document instead"
    )
    psub.add_argument(
        "--wait", action="store_true", help="block until the job finishes"
    )
    psub.add_argument(
        "--profile",
        action="store_true",
        help="capture per-point phase profiles server-side (aggregate "
        "with: repro obs profile --job ID)",
    )
    psub.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="base polling interval for --wait (decorrelated jittered "
        "backoff grows it, capped at 5 s)",
    )
    _add_service_client_flags(psub)
    _add_jobs_flag(psub)
    psub.set_defaults(func=_cmd_submit)

    pst = sub.add_parser("status", help="one job's state and progress")
    pst.add_argument("job_id", help="job id returned by submit")
    pst.add_argument(
        "--wait", action="store_true", help="poll until done/failed"
    )
    pst.add_argument(
        "--watch",
        action="store_true",
        help="redraw a live progress line (bar, throughput, ETA) until "
        "the job reaches done/failed",
    )
    pst.add_argument(
        "--watch-count",
        type=int,
        default=0,
        metavar="N",
        help="with --watch, stop after N renders (0 = until terminal)",
    )
    pst.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="polling interval for --wait/--watch (--wait applies "
        "decorrelated jittered backoff, capped at 5 s)",
    )
    _add_service_client_flags(pst)
    pst.set_defaults(func=_cmd_status)

    pf = sub.add_parser(
        "fetch", help="fetch a finished job's metrics (or npz release)"
    )
    pf.add_argument("job_id", help="job id returned by submit")
    pf.add_argument(
        "--out", help="write the byte-deterministic npz release here"
    )
    _add_service_client_flags(pf)
    pf.set_defaults(func=_cmd_fetch)

    pj = sub.add_parser(
        "jobs", help="audit listing: job history plus cache counters"
    )
    pj.add_argument(
        "--state",
        choices=("queued", "running", "done", "failed"),
        help="only jobs in one lifecycle state (server-side filter)",
    )
    _add_service_client_flags(pj)
    pj.set_defaults(func=_cmd_jobs)

    pobs = sub.add_parser(
        "obs",
        help="observability: process metrics, live sweep top, span "
        "traces, profiling",
    )
    obs_sub = pobs.add_subparsers(dest="obs_command", required=True)
    pom = obs_sub.add_parser(
        "metrics", help="running service's process-metrics snapshot"
    )
    pom.add_argument(
        "--prom",
        action="store_true",
        help="print in Prometheus text exposition format (same formatter "
        "as the server's root /metrics)",
    )
    pom.add_argument(
        "--watch",
        type=float,
        metavar="SECONDS",
        help="redraw the snapshot every SECONDS until interrupted",
    )
    pom.add_argument(
        "--watch-count",
        type=int,
        default=0,
        metavar="N",
        help="with --watch, stop after N renders (0 = forever)",
    )
    _add_service_client_flags(pom)
    pom.set_defaults(func=_cmd_obs_metrics)
    ptop = obs_sub.add_parser(
        "top",
        help="live per-job progress screen: bars, in-flight points, "
        "throughput, ETA",
    )
    ptop.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="redraw period (default 2.0)",
    )
    ptop.add_argument(
        "--count",
        type=int,
        default=0,
        metavar="N",
        help="stop after N renders (0 = until interrupted)",
    )
    _add_service_client_flags(ptop)
    ptop.set_defaults(func=_cmd_obs_top)
    pot = obs_sub.add_parser(
        "trace", help="span trace captured while a job executed"
    )
    pot.add_argument("job_id", help="job id returned by submit")
    pot.add_argument(
        "--deterministic",
        action="store_true",
        help="strip timing/pid fields (byte-stable across identical runs)",
    )
    _add_service_client_flags(pot)
    pot.set_defaults(func=_cmd_obs_trace)
    pop = obs_sub.add_parser(
        "profile",
        help="per-phase engine profile: one local point under both "
        "engines, or a service job's aggregated sweep (--job)",
    )
    pop.add_argument(
        "--job",
        metavar="JOB_ID",
        help="aggregate a service job's captured per-point profiles "
        "(requires the job was submitted with --profile)",
    )
    pop.add_argument(
        "--deterministic",
        action="store_true",
        help="with --job: structural JSON only, no timing fields "
        "(byte-stable across runs)",
    )
    pop.add_argument(
        "--url",
        default=_DEFAULT_SERVICE_URL,
        help=f"service base URL for --job (default {_DEFAULT_SERVICE_URL})",
    )
    pop.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="request timeout in seconds for --job",
    )
    pop.add_argument(
        "--rate", type=float, default=0.30, help="injection rate (flits/node/cycle)"
    )
    pop.add_argument("--width", type=int, default=8, help="mesh width")
    pop.add_argument("--height", type=int, default=8, help="mesh height")
    pop.add_argument(
        "--hops", type=int, default=0, help="express-link hop span (0 = plain mesh)"
    )
    pop.add_argument(
        "--cycles", type=int, default=1200, help="warm measurement window"
    )
    pop.add_argument(
        "--drain-budget", type=int, default=20_000, help="drain cycle cap"
    )
    pop.add_argument(
        "--engine",
        choices=("interpreter", "batched", "both"),
        default="both",
        help="which engine(s) to profile (default both)",
    )
    pop.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    pop.set_defaults(func=_cmd_obs_profile)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.func(args)
    except ValueError as exc:
        # Domain validation (bad --jobs, --hops, rates, ...) should read
        # as a usage error, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if rc is None else int(rc)

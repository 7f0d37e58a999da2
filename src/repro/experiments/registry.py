"""Built-in scenario families and a registry for new ones.

A *family* is a callable that expands a few knobs into an ordered list of
:class:`~repro.experiments.spec.Scenario` records — the declarative form
of the paper's sweeps. Built-ins cover the headline artefacts:

* ``"paper-grid"`` — the Fig. 5 design-space grid (plain meshes plus
  base x express x hops, Soteriou traffic at the paper's operating point);
* ``"saturation-sweep"`` — open-loop latency-vs-load simulation points;
* ``"workload-saturation"`` — latency-vs-load for any registered
  :mod:`repro.workloads` temporal model (bursty, self-similar, ...);
* ``"npb-kernels"`` — cycle simulations of the NAS kernels on the mesh
  and the express hybrids (Fig. 6);
* ``"all-optical-projection"`` — the Fig. 8 three-way comparison.

Register additional families with :func:`register_family` to make new
workloads addressable by name from the CLI, benchmarks and reports.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.core.config import PAPER_CONFIG, NocExperimentConfig
from repro.experiments.spec import Scenario, SimSpec, TopologySpec, TrafficSpec
from repro.tech.parameters import Technology
from repro.util.rng import derive_seed
from repro.util.sweep import grid

__all__ = [
    "DEFAULT_NPB_WORKLOADS",
    "family_names",
    "paper_point",
    "register_family",
    "scenario_family",
]

_FAMILIES: dict[str, Callable[..., list[Scenario]]] = {}

#: Per-kernel (volume_scale, iterations) keeping NPB traces within the
#: simulation budget while preserving the paper's latency trends.
DEFAULT_NPB_WORKLOADS: dict[str, tuple[float, int]] = {
    "FT": (3e-3, 1),
    "CG": (3e-4, 1),
    "MG": (5e-3, 1),
    "LU": (1e-2, 2),
}


def register_family(
    name: str,
) -> Callable[[Callable[..., list[Scenario]]], Callable[..., list[Scenario]]]:
    """Decorator: make a scenario-family builder addressable by ``name``."""

    def wrap(fn: Callable[..., list[Scenario]]) -> Callable[..., list[Scenario]]:
        if name in _FAMILIES:
            raise ValueError(f"scenario family {name!r} already registered")
        _FAMILIES[name] = fn
        return fn

    return wrap


def scenario_family(name: str, /, **kwargs: object) -> list[Scenario]:
    """Expand the named family with the given knobs into scenarios; a
    legacy ``engine`` knob is validated and dropped (the runner picks it)."""
    try:
        fn = _FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario family {name!r}; expected one of {family_names()}"
        ) from None
    SimSpec.drop_legacy_engine(kwargs)
    return fn(**kwargs)


def family_names() -> list[str]:
    """All registered family names, sorted."""
    return sorted(_FAMILIES)


def _topology_spec(
    config: NocExperimentConfig,
    base: Technology,
    express: Technology | None,
    hops: int,
) -> TopologySpec:
    if express is None:
        return TopologySpec.plain(
            base,
            width=config.width,
            height=config.height,
            core_spacing_m=config.core_spacing_m,
        )
    return TopologySpec.express(
        base,
        express,
        hops,
        width=config.width,
        height=config.height,
        core_spacing_m=config.core_spacing_m,
    )


def paper_point(
    base: Technology,
    express: Technology | None = None,
    hops: int = 0,
    *,
    config: NocExperimentConfig = PAPER_CONFIG,
    injection_rate: float | None = None,
    seed: int = 0,
) -> Scenario:
    """One analytical design point of the paper grid (a single Fig. 5 bar).

    The single source of truth for how a (base, express, hops) triple maps
    to a scenario — the DSE's ``evaluate_point`` and the ``"paper-grid"``
    family both build points here, so their cache entries interchange.
    """
    rate = config.max_injection_rate if injection_rate is None else injection_rate
    return Scenario(
        kind="analytical",
        topology=_topology_spec(config, base, express, hops if express else 0),
        traffic=TrafficSpec.make(
            "soteriou",
            injection_rate=rate,
            seed=seed,
            p=config.soteriou_p,
            sigma=config.soteriou_sigma,
        ),
        name=(
            f"{base.value}-mesh (plain)"
            if express is None
            else f"{base.value}-base + {express.value} x{hops}"
        ),
    )


@register_family("paper-grid")
def paper_grid(
    *,
    config: NocExperimentConfig = PAPER_CONFIG,
    injection_rate: float | None = None,
    seed: int = 0,
    base_technologies: Sequence[Technology] | None = None,
    express_technologies: Sequence[Technology] | None = None,
    hops_options: Sequence[int] | None = None,
) -> list[Scenario]:
    """The Fig. 5 DSE grid: per base, the plain mesh then express options.

    Point order matches :meth:`repro.core.dse.DesignSpaceExplorer.explore`
    (base -> plain first -> express technology -> hop count), which is
    the layout of the paper's Fig. 5 panels.
    """
    # Imported here, not at module top: repro.core.dse routes back into
    # this package at call time.
    from repro.core.dse import DEFAULT_NETWORK_TECHS

    bases = (
        tuple(DEFAULT_NETWORK_TECHS)
        if base_technologies is None
        else tuple(base_technologies)
    )
    expresses = (
        tuple(DEFAULT_NETWORK_TECHS)
        if express_technologies is None
        else tuple(express_technologies)
    )
    hops_list = (
        tuple(config.express_hops_options)
        if hops_options is None
        else tuple(hops_options)
    )
    scenarios: list[Scenario] = []
    for base in bases:
        points: list[tuple[Technology | None, int]] = [(None, 0)]
        points += [
            (combo["express"], combo["hops"])
            for combo in grid({"express": expresses, "hops": hops_list})
        ]
        for express, hops in points:
            scenarios.append(
                paper_point(
                    base,
                    express,
                    hops,
                    config=config,
                    injection_rate=injection_rate,
                    seed=seed,
                )
            )
    return scenarios


def _hops_topology(
    base: Technology,
    express: Technology,
    hops: int,
    width: int = 16,
    height: int = 16,
) -> TopologySpec:
    """The plain mesh at ``hops == 0``, otherwise the express mesh.

    The rule of the simulation families. :func:`paper_point` keeps its own
    rule (plain when ``express is None``), so that an express point with
    ``hops=0`` is rejected there instead of silently becoming a mesh.
    """
    if hops == 0:
        return TopologySpec.plain(base, width=width, height=height)
    return TopologySpec.express(base, express, hops, width=width, height=height)


def _rate_points(
    rates: Sequence[float],
    seeds: Sequence[int],
    topology: TopologySpec,
    sim: SimSpec,
    prefix: str,
    generator: str,
    /,
    **params: object,
) -> list[Scenario]:
    """One simulation scenario per rate, the rate families' shared expander.

    Point ``i`` offers ``rates[i]`` of ``generator`` traffic (with
    ``params``) under workload seed ``seeds[i]``, and is named
    ``{prefix}-r{rate:g}``.
    """
    return [
        Scenario(
            kind="simulation",
            topology=topology,
            traffic=TrafficSpec.make(
                generator, injection_rate=float(rate), seed=seed, **params
            ),
            sim=sim,
            name=f"{prefix}-r{float(rate):g}",
        )
        for rate, seed in zip(rates, seeds)
    ]


@register_family("saturation-sweep")
def saturation_sweep(
    *,
    rates: Sequence[float],
    hops: int = 0,
    base_technology: Technology = Technology.ELECTRONIC,
    express_technology: Technology = Technology.HYPPI,
    traffic: str = "uniform",
    width: int = 16,
    height: int = 16,
    cycles: int = 1200,
    packet_flits: int = 1,
    drain_budget: int = 200_000,
    seed: int = 0,
) -> list[Scenario]:
    """Open-loop latency-vs-offered-load points, one scenario per rate.

    Each point derives its own workload seed from ``(seed, index)``, so
    a point's trace is identical whether the sweep runs serially, on a
    process pool, or as a single re-evaluated scenario.
    """
    return _rate_points(
        rates,
        [derive_seed(seed, i) for i in range(len(rates))],
        _hops_topology(base_technology, express_technology, hops, width, height),
        SimSpec(cycles=cycles, packet_flits=packet_flits, drain_budget=drain_budget),
        traffic,
        traffic,
    )


@register_family("workload-saturation")
def workload_saturation(
    *,
    rates: Sequence[float],
    model: str = "onoff",
    traffic: str = "uniform",
    hops: int = 0,
    base_technology: Technology = Technology.ELECTRONIC,
    express_technology: Technology = Technology.HYPPI,
    width: int = 16,
    height: int = 16,
    cycles: int = 1200,
    packet_flits: int = 1,
    drain_budget: int = 200_000,
    seed: int = 0,
    **model_params: object,
) -> list[Scenario]:
    """Latency-vs-load points for *any* registered workload model.

    The generalization of ``"saturation-sweep"``: ``model`` names a
    temporal model from :mod:`repro.workloads` (``bernoulli``, ``onoff``,
    ``pareto``, ``modulated``) and ``model_params`` forwards its knobs
    (``duty``, ``burst_len``, ``alpha``, ``hotspot_nodes``, ...; sequence
    values must be tuples so scenarios stay hashable). At equal mean rate
    a bursty model saturates at or below the Bernoulli saturation point —
    comparing the ``drained`` flags across models at the same ``rates``
    locates how much headroom burstiness costs. Per-rate workload seeds
    derive from ``(seed, index)`` exactly like ``"saturation-sweep"``.
    """
    return _rate_points(
        rates,
        [derive_seed(seed, i) for i in range(len(rates))],
        _hops_topology(base_technology, express_technology, hops, width, height),
        SimSpec(cycles=cycles, packet_flits=packet_flits, drain_budget=drain_budget),
        f"{model}-{traffic}",
        "workload",
        model=model,
        traffic=traffic,
        **model_params,
    )


@register_family("telemetry-profile")
def telemetry_profile(
    *,
    rates: Sequence[float] = (0.1,),
    model: str = "onoff",
    traffic: str = "uniform",
    hops: int = 0,
    base_technology: Technology = Technology.ELECTRONIC,
    express_technology: Technology = Technology.HYPPI,
    width: int = 8,
    height: int = 8,
    cycles: int = 4000,
    window: int = 128,
    packet_flits: int = 1,
    drain_budget: int = 200_000,
    seed: int = 0,
    **model_params: object,
) -> list[Scenario]:
    """Time-resolved profiling points: simulation with telemetry sampling.

    The observability companion of ``"workload-saturation"``: identical
    workload knobs, but every run samples windowed activity every
    ``window`` cycles (:mod:`repro.telemetry`), so its metrics include the
    saturation-onset cycle, sustained hotspot routers and windowed power
    figures instead of only the end-of-run SATURATED flag. Defaults to an
    8x8 mesh — profiling runs are longer than sweep points, and transient
    structure (bursts, phases) shows at small scale just as well.
    """
    return _rate_points(
        rates,
        [derive_seed(seed, i) for i in range(len(rates))],
        _hops_topology(base_technology, express_technology, hops, width, height),
        SimSpec(
            cycles=cycles,
            packet_flits=packet_flits,
            drain_budget=drain_budget,
            telemetry_window=window,
        ),
        f"telemetry-{model}-{traffic}",
        "workload",
        model=model,
        traffic=traffic,
        **model_params,
    )


@register_family("closed-loop-saturation")
def closed_loop_saturation(
    *,
    rates: Sequence[float],
    window: int = 4,
    think_cycles: int = 0,
    reply_flits: int = 1,
    model: str = "bernoulli",
    traffic: str = "uniform",
    hops: int = 0,
    base_technology: Technology = Technology.ELECTRONIC,
    express_technology: Technology = Technology.HYPPI,
    width: int = 16,
    height: int = 16,
    cycles: int = 1200,
    packet_flits: int = 1,
    drain_budget: int = 200_000,
    telemetry_window: int = 0,
    controllers: Sequence[str] = (),
    seed: int = 0,
    **model_params: object,
) -> list[Scenario]:
    """Closed-loop request/reply latency-vs-demand points.

    The shape of ``"workload-saturation"`` with the generated traffic
    reinterpreted as *demand*: each source keeps at most ``window``
    requests outstanding, destinations serve replies after
    ``think_cycles``, and offered load self-limits under congestion
    (:mod:`repro.control.sources`). At a demand rate where the open-loop
    equivalent is SATURATED, the windowed points plateau — they drain,
    later, instead of jamming. ``controllers`` additionally attaches
    online adaptive control (requires ``telemetry_window > 0``).
    """
    return _rate_points(
        rates,
        [derive_seed(seed, i) for i in range(len(rates))],
        _hops_topology(base_technology, express_technology, hops, width, height),
        SimSpec(
            cycles=cycles,
            packet_flits=packet_flits,
            drain_budget=drain_budget,
            telemetry_window=telemetry_window,
            closed_loop_window=window,
            think_cycles=think_cycles,
            reply_flits=reply_flits,
            controllers=tuple(controllers),
        ),
        f"closed-{model}-w{window}",
        "workload",
        model=model,
        traffic=traffic,
        **model_params,
    )


@register_family("knee-search")
def knee_search(
    *,
    rates: Sequence[float],
    model: str = "bernoulli",
    traffic: str = "uniform",
    hops: int = 0,
    base_technology: Technology = Technology.ELECTRONIC,
    express_technology: Technology = Technology.HYPPI,
    width: int = 8,
    height: int = 8,
    cycles: int = 2000,
    window: int = 128,
    packet_flits: int = 1,
    drain_budget: int = 20_000,
    seed: int = 0,
    **model_params: object,
) -> list[Scenario]:
    """Telemetry-enabled saturation probes for knee location.

    One scenario per rate, sampled every ``window`` cycles so the
    streaming :class:`~repro.telemetry.detectors.SaturationDetector`
    delivers the stable/saturated verdict
    (:func:`repro.control.probe_is_saturated`). Unlike the sweep
    families, every rate shares the *same* workload seed: a probe at
    rate ``r`` is the identical scenario whether it came from
    :func:`repro.control.locate_knee`'s bisection, a brute-force grid,
    or an earlier search — which is what lets the evaluation cache
    deduplicate across all of them. The default drain budget is modest
    on purpose: the detector, not budget exhaustion, is the verdict.
    """
    return _rate_points(
        rates,
        [seed] * len(rates),
        _hops_topology(base_technology, express_technology, hops, width, height),
        SimSpec(
            cycles=cycles,
            packet_flits=packet_flits,
            drain_budget=drain_budget,
            telemetry_window=window,
        ),
        f"knee-{model}",
        "workload",
        model=model,
        traffic=traffic,
        **model_params,
    )


@register_family("npb-kernels")
def npb_kernels(
    *,
    kernels: Sequence[str] = ("FT", "CG", "MG", "LU"),
    hops_options: Sequence[int] = (0, 3, 5, 15),
    base_technology: Technology = Technology.ELECTRONIC,
    express_technology: Technology = Technology.HYPPI,
    workloads: dict[str, tuple[float, int | None]] | None = None,
    max_cycles: int = 2_000_000,
) -> list[Scenario]:
    """Fig. 6 NPB cycle simulations: kernel outer, topology inner.

    ``hops_options`` may include 0 for the plain mesh. ``workloads`` maps
    kernel -> (volume_scale, iterations), defaulting to
    :data:`DEFAULT_NPB_WORKLOADS`; an iterations of ``None`` keeps the
    kernel builder's own default.
    """
    loads = DEFAULT_NPB_WORKLOADS if workloads is None else workloads
    sim = SimSpec(max_cycles=max_cycles)
    scenarios = []
    for combo in grid({"kernel": list(kernels), "hops": list(hops_options)}):
        kernel = str(combo["kernel"]).upper()
        hops = int(combo["hops"])
        volume_scale, iterations = loads[kernel]
        params: dict[str, object] = {
            "kernel": kernel,
            "volume_scale": volume_scale,
        }
        if iterations is not None:
            params["iterations"] = iterations
        scenarios.append(
            Scenario(
                kind="simulation",
                topology=_hops_topology(base_technology, express_technology, hops),
                traffic=TrafficSpec.make("npb", injection_rate=0.0, **params),
                sim=sim,
                name=f"npb-{kernel.lower()}-{'mesh' if hops == 0 else f'h{hops}'}",
            )
        )
    return scenarios


@register_family("all-optical-projection")
def all_optical_projection(
    *,
    amortization_injection_rate: float = 0.001,
    injection_rate: float = 0.1,
    seed: int = 0,
    width: int = 16,
    height: int = 16,
    core_spacing_m: float = 1e-3,
) -> list[Scenario]:
    """The Fig. 8 three-way all-optical projection as one scenario."""
    return [
        Scenario(
            kind="all_optical",
            topology=TopologySpec.plain(
                Technology.ELECTRONIC,
                width=width,
                height=height,
                core_spacing_m=core_spacing_m,
            ),
            traffic=TrafficSpec.make(
                "soteriou",
                injection_rate=injection_rate,
                seed=seed,
                amortization_injection_rate=amortization_injection_rate,
            ),
            name="all-optical-projection",
        )
    ]

"""Scenario evaluation and the runner that plans, executes and reports sweeps.

:func:`evaluate_scenario` is a *pure* function: every stochastic input
(traffic seed, injection schedule) is named inside the scenario itself,
so evaluating the same scenario in this process, a worker process, or
next week yields identical metrics. That purity is what lets the
:class:`Runner` run its work units inline or on a ``ProcessPoolExecutor``
(``jobs=N``) with bit-identical results, and what makes the
:class:`~repro.experiments.cache.EvaluationCache` sound.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from repro.experiments.cache import EvaluationCache
from repro.experiments.spec import Scenario, TopologySpec, scenario_hash
from repro.obs.logs import get_logger
from repro.obs.metrics import counter
from repro.obs.profile import PhaseProfile
from repro.obs.trace import (
    adopt_parent,
    clear_spans,
    current_span_id,
    merge_exported,
    span,
    take_spans,
)
from repro.topology.graph import Topology
from repro.topology.routing import RoutingTable

__all__ = [
    "Runner",
    "ScenarioResult",
    "SweepHandle",
    "evaluate_scenario",
    "simulate_scenario",
]

#: Least points x nodes at which the planner runs a chunk of one family as
#: one lockstep ``run_batch``, from the crossover in DESIGN.md §3b
#: (``Runner.run`` with trace generation, 2-vCPU VM): batched / interpreter
#: speed at sweep load was 0.96x / 1.18x on 4x4 at 512 / 1024, 1.24x / 1.58x
#: on 8x8 and 1.27x / 1.62x on 16x16, so 1024 is the least work at which all
#: three win. Trace-driven workloads never batch: four NPB kernels on one
#: 16x16 topology (1024) ran 0.88-0.91x.
LOCKSTEP_MIN_WORK = 1024

_POINTS_EVALUATED = counter("runner.points.evaluated")
_POINTS_CACHED = counter("runner.points.cached")

_log = get_logger("experiments.runner")


@lru_cache(maxsize=8)
def _materialize(spec: TopologySpec) -> tuple[Topology, RoutingTable]:
    """Build (topology, routing) once per distinct spec in this process.

    Multi-point sweeps share one topology across many scenarios; reusing
    the routing table keeps its LUT and flat all-pairs path arrays
    instead of rebuilding them per point (the routing-table build is a
    tracked hot path). Sharing is safe: both objects are immutable with
    respect to evaluation, and the lazily built path arrays are
    deterministic.
    """
    topo = spec.build()
    return topo, RoutingTable(topo)


@lru_cache(maxsize=8)
def _materialize_batched(spec: TopologySpec, cfg):
    """One shared :class:`BatchSimulator` per (topology, SimConfig) family.

    The batched engine's family tables (link layout, dateline VC
    ranges) are built once here and amortized across every lockstep
    chunk of the family this process runs.
    """
    from repro.simulation.batch import BatchSimulator

    topo, routing = _materialize(spec)
    return BatchSimulator(topo, routing, cfg)


def evaluate_scenario(
    scenario: Scenario, *, profile: PhaseProfile | None = None
) -> dict[str, Any]:
    """Evaluate one scenario into a flat, JSON-safe metrics dictionary.

    ``profile`` attaches an opt-in per-phase timer to simulation
    scenarios (ignored for analytical/all-optical kinds).
    """
    if scenario.kind == "analytical":
        return _evaluate_analytical(scenario)
    if scenario.kind == "simulation":
        return _evaluate_simulation(scenario, profile=profile)
    return _evaluate_all_optical(scenario)


def _evaluate_analytical(scenario: Scenario) -> dict[str, Any]:
    # Lazy import: analysis pulls in the DSENT substrate (analysis -> core).
    from repro.analysis.network_clear import evaluate_network

    topo, routing = _materialize(scenario.topology)
    tm = scenario.traffic.matrix(topo)
    ev = evaluate_network(
        topo,
        tm,
        injection_rate=scenario.traffic.injection_rate,
        routing=routing,
    )
    return {"kind": "analytical", **ev.to_metrics()}


def simulate_scenario(scenario: Scenario, *, profile: PhaseProfile | None = None):
    """Run a simulation scenario on the interpreter; ``(topology, stats)``.

    The engine's single evaluation recipe — shared per-process topology
    cache, trace generation from the traffic spec, the spec's cycle
    budget, and telemetry sampling when ``SimSpec.telemetry_window`` is
    set. Both the flat-metrics path below and the rich
    :func:`repro.telemetry.report.profile_scenario` view go through
    here, so the CLI's windowed reports are provably the same runs the
    engine caches metrics for.
    """
    from repro.simulation.simulator import Simulator
    from repro.traffic.trace import Trace

    if scenario.kind != "simulation" or scenario.sim is None:
        raise ValueError(f"not a simulation scenario: {scenario.label}")
    sim_spec = scenario.sim
    topo, routing = _materialize(scenario.topology)
    trace = scenario.traffic.trace(topo, sim=sim_spec)
    sim = Simulator(topo, routing, sim_spec.sim_config())
    telemetry_cfg = None
    if sim_spec.telemetry_window > 0:
        from repro.telemetry import TelemetryConfig

        telemetry_cfg = TelemetryConfig(window=sim_spec.telemetry_window)
    closed = None
    if sim_spec.closed_loop_window > 0:
        # The generated trace becomes closed-loop *demand*; the simulator
        # itself injects nothing open-loop.
        from repro.control import ClosedLoopConfig, ClosedLoopSession

        closed = ClosedLoopSession(
            ClosedLoopConfig(
                window=sim_spec.closed_loop_window,
                think_cycles=sim_spec.think_cycles,
                reply_flits=sim_spec.reply_flits,
            ),
            trace,
        )
        trace = Trace(topo.n_nodes, [], name=f"{trace.name}-closed")
    control = None
    if sim_spec.controllers:
        from repro.control import ControlSession, make_controllers

        control = ControlSession(
            make_controllers(sim_spec.controllers, n_vcs=sim_spec.n_vcs),
            window=sim_spec.telemetry_window,
            n_nodes=topo.n_nodes,
            n_vcs=sim_spec.n_vcs,
        )
    stats = sim.run(
        trace,
        max_cycles=sim_spec.cycle_budget(scenario.traffic.trace_based),
        telemetry=telemetry_cfg,
        closed_loop=closed,
        control=control,
        profile=profile,
    )
    return topo, stats


def simulate_lockstep(
    scenarios: Sequence[Scenario], *, profile: PhaseProfile | None = None
):
    """Run a lockstep chunk on the batched engine; ``(topology, [stats])``.

    The batched engine's one evaluation recipe, beside
    :func:`simulate_scenario`: the chunk's points share one topology and
    simulator config (:meth:`Runner._plan` groups them so), their shared
    :class:`~repro.simulation.BatchSimulator` is built once per process,
    and each point brings its own trace and cycle budget. ``profile``
    times the whole lockstep run.
    """
    spec, sim = scenarios[0].topology, scenarios[0].sim
    topo, _ = _materialize(spec)
    traces = [s.traffic.trace(topo, sim=s.sim) for s in scenarios]
    caps = [s.sim.cycle_budget(s.traffic.trace_based) for s in scenarios]
    bsim = _materialize_batched(spec, sim.sim_config())
    return topo, bsim.run_batch(traces, max_cycles=caps, profile=profile)


def _evaluate_simulation(
    scenario: Scenario, *, profile: PhaseProfile | None = None
) -> dict[str, Any]:
    topo, stats = simulate_scenario(scenario, profile=profile)
    return _sim_metrics(scenario, topo, stats)


def _sim_metrics(scenario: Scenario, topo: Topology, stats) -> dict[str, Any]:
    """Flatten one simulation run's stats into the metrics dictionary.

    Shared by the per-scenario path and the batched-group path, so both
    engines report through the identical recipe.
    """
    import math

    def _finite(x: float) -> float | None:
        return None if math.isnan(x) else float(x)

    metrics = {
        "kind": "simulation",
        "topology_name": topo.name,
        "injection_rate": scenario.traffic.injection_rate,
        "n_packets": stats.n_packets,
        "n_flits": stats.n_flits,
        "cycles": stats.cycles,
        "drained": stats.drained,
        "avg_latency": stats.avg_latency,
        "p99_latency": stats.p99_latency,
        "avg_hops": stats.avg_hops,
        "total_link_traversals": int(stats.link_flit_counts.sum()),
        "total_router_traversals": int(stats.router_flit_counts.sum()),
    }
    if stats.telemetry is not None:
        from repro.telemetry import analyze, power_trace

        findings = analyze(stats.telemetry)
        power = power_trace(topo, stats.telemetry)
        metrics.update(
            telemetry_window=stats.telemetry.window,
            telemetry_windows=stats.telemetry.n_windows,
            saturation_onset_cycle=findings.saturation_onset_cycle,
            baseline_latency=_finite(findings.baseline_latency),
            hotspot_nodes=list(findings.hotspot_nodes),
            first_collapse_cycle=findings.first_collapse_cycle,
            static_w=power.static_w,
            peak_dynamic_w=_finite(power.peak_dynamic_w),
            mean_dynamic_w=_finite(power.mean_dynamic_w),
            dynamic_energy_j=power.total.dynamic_j,
        )
    if stats.closed_loop is not None:
        cl = stats.closed_loop
        metrics.update(
            closed_loop_window=cl.window,
            requests_issued=cl.requests_issued,
            replies_delivered=cl.replies_delivered,
            outstanding_at_end=cl.outstanding_at_end,
            peak_outstanding=cl.peak_outstanding,
            stalled_demand=cl.stalled_demand,
            mean_round_trip=_finite(cl.mean_round_trip),
            request_p50_latency=_finite(cl.request_latency_percentile(50)),
            request_p99_latency=_finite(cl.request_latency_percentile(99)),
            reply_p50_latency=_finite(cl.reply_latency_percentile(50)),
            reply_p99_latency=_finite(cl.reply_latency_percentile(99)),
        )
    if stats.control is not None:
        ct = stats.control
        metrics.update(
            control_actions=ct.n_actions,
            final_throttle_period=ct.final_throttle_period,
            restricted_nodes=list(ct.restricted_nodes),
        )
    return metrics


def _evaluate_all_optical(scenario: Scenario) -> dict[str, Any]:
    from repro.optical.projection import project_all_optical

    params = dict(scenario.traffic.params)
    cmp = project_all_optical(
        width=scenario.topology.width,
        height=scenario.topology.height,
        core_spacing_m=scenario.topology.core_spacing_m,
        injection_rate=scenario.traffic.injection_rate,
        amortization_injection_rate=params.get(
            "amortization_injection_rate", 0.001
        ),
        seed=scenario.traffic.seed,
    )
    metrics: dict[str, Any] = {"kind": "all_optical"}
    for proj in cmp.all():
        key = proj.name.replace("-", "_").replace(" ", "_")
        metrics[f"{key}_latency_clks"] = proj.latency_clks
        metrics[f"{key}_energy_per_bit_fj"] = proj.energy_per_bit_fj
        metrics[f"{key}_area_mm2"] = proj.area_mm2
    metrics["energy_ratio_electronic_over_hyppi"] = (
        cmp.energy_ratio_electronic_over_hyppi
    )
    metrics["area_ratio_photonic_over_hyppi"] = cmp.area_ratio_photonic_over_hyppi
    return metrics


@dataclass(frozen=True)
class ScenarioResult:
    """One evaluated scenario: the spec, its metrics, and provenance."""

    scenario: Scenario
    metrics: dict[str, Any]
    cached: bool
    """True if the metrics were served from the cache (including an
    earlier duplicate within the same batch)."""
    profile: PhaseProfile | None = None
    """Per-phase engine profile when the runner captured one
    (``Runner(profile=True)`` and a freshly simulated point)."""


def _run_unit(
    scenarios: list[Scenario], engine: str, want_profile: bool
) -> tuple[list[dict[str, Any]], list[PhaseProfile | None]]:
    """Evaluate one work unit; its metrics and profiles, in point order.

    A batched chunk (points sharing a topology and simulator config) is
    one lockstep :meth:`~repro.simulation.BatchSimulator.run_batch`, so
    the family state is built once and the per-cycle work of its points
    is amortized. Anything else is one point through
    :func:`evaluate_scenario`. Module-level, so the same call runs
    inline and on the pool.
    """
    if engine == "batched":
        with span("runner.batch_group", points=len(scenarios)):
            topo, stats = simulate_lockstep(scenarios)
            metrics = [_sim_metrics(s, topo, st) for s, st in zip(scenarios, stats)]
        return metrics, [None] * len(scenarios)
    [scenario] = scenarios
    prof = PhaseProfile() if want_profile and scenario.kind == "simulation" else None
    with span("runner.point", point=scenario.label):
        metrics = evaluate_scenario(scenario, profile=prof)
    return [metrics], [prof]


def _pool_unit(
    scenarios: list[Scenario], engine: str, want_profile: bool
) -> tuple[tuple, dict[str, Any], list[dict]]:
    """Pool-worker seam: run one unit and ship its spans home.

    Workers inherit the parent's tracing flag (and, under fork, a copy
    of its span buffer, dropped here so only this unit's spans ship).
    Returns the unit's result, the worker's identity for the run ledger
    (pid, start wall time) and the span payloads, whose roots are marked
    ``pool_worker``; the submitting process merges them into its trace
    via :func:`repro.obs.trace.merge_exported`.
    """
    worker = {"worker": os.getpid(), "worker_t": round(time.time(), 6)}
    clear_spans()
    out = _run_unit(scenarios, engine, want_profile)
    recs = take_spans()
    ids = {rec.span_id for rec in recs}
    for rec in recs:
        if rec.parent_id not in ids:
            rec.attrs["pool_worker"] = True
    return out, worker, [rec.to_json() for rec in recs]


@dataclass
class _Unit:
    """One piece of planned work: a lockstep chunk or a single point."""

    points: list[int]
    """Batch indices of the points it evaluates."""
    scenarios: list[Scenario]
    engine: str
    """``"batched"`` for a lockstep chunk, ``"interpreter"`` for a
    simulated point, the scenario kind for any other point."""
    future: Future | None = None
    """The pending pool result, when the unit was submitted to the pool."""
    results: dict[int, ScenarioResult] | None = None
    """Filled when the unit finishes, keyed by batch index."""


class SweepHandle:
    """An in-flight batch submitted via the deprecated :meth:`Runner.submit`.

    A background thread drives the runner's ordered result stream;
    :meth:`poll` drains whatever completed since the previous poll
    without blocking. :meth:`results` blocks until the batch finishes
    and re-raises any evaluation error. Results always arrive in input
    order. Iterating :meth:`Runner.run_iter` gives the same stream on
    the caller's own thread.
    """

    def __init__(self, runner: "Runner", scenarios: Sequence[Scenario]) -> None:
        self.n_points = len(scenarios)
        self._results: list[ScenarioResult] = []
        self._cursor = 0
        self._lock = threading.Lock()
        self._finished = threading.Event()
        self._cancel = threading.Event()
        self._error: BaseException | None = None
        # Threads start with a fresh contextvar context: capture the
        # submitter's span so the drive thread's spans nest under it.
        parent_span = current_span_id()

        def drive() -> None:
            try:
                adopt_parent(parent_span)
                with span(
                    "runner.sweep", points=self.n_points, jobs=runner.jobs
                ):
                    for res in runner.run_iter(scenarios):
                        with self._lock:
                            self._results.append(res)
                        if self._cancel.is_set():
                            break
            except BaseException as exc:  # surfaced via results()/poll()
                self._error = exc
            finally:
                self._finished.set()

        self._thread = threading.Thread(
            target=drive, name="repro-sweep", daemon=True
        )
        self._thread.start()

    @property
    def done(self) -> bool:
        """True once every point completed, failed, or was cancelled."""
        return self._finished.is_set()

    @property
    def completed(self) -> int:
        """Points evaluated so far (monotonic, ``<= n_points``)."""
        with self._lock:
            return len(self._results)

    def poll(self) -> list[ScenarioResult]:
        """Results completed since the last :meth:`poll` (non-blocking).

        Raises the evaluation error, if any, once all prior results
        have been drained.
        """
        with self._lock:
            fresh = self._results[self._cursor:]
            self._cursor = len(self._results)
        if not fresh and self._finished.is_set() and self._error is not None:
            raise self._error
        return fresh

    def cancel(self) -> None:
        """Stop after the point currently evaluating (best effort)."""
        self._cancel.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the batch finishes; True if it did within ``timeout``."""
        return self._finished.wait(timeout)

    def results(self, timeout: float | None = None) -> list[ScenarioResult]:
        """All results in input order, blocking until the batch completes."""
        if not self._finished.wait(timeout):
            raise TimeoutError(
                f"batch still running after {timeout:g}s "
                f"({self.completed}/{self.n_points} points)"
            )
        if self._error is not None:
            raise self._error
        with self._lock:
            return list(self._results)


class Runner:
    """Run batches of scenarios serially or on a process pool.

    Duplicate scenarios within a batch are evaluated once; everything
    flows through the runner's :class:`EvaluationCache` (pass a shared
    cache to amortize across runners, or persist it between processes).
    Results preserve input order regardless of executor, and — because
    evaluation is pure with per-scenario seeds — ``jobs=1`` and
    ``jobs=N`` produce bit-identical metrics.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache: EvaluationCache | None = None,
        observer: Callable[[dict[str, Any]], None] | None = None,
        profile: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache if cache is not None else EvaluationCache()
        self.observer = observer
        self.profile = profile

    def _emit(self, event: str, **fields: Any) -> None:
        """Report one lifecycle event to the point counters and the observer.

        Observer failures must never take the sweep down with them —
        they are logged and swallowed (the ledger is an enrichment, the
        results are the product).
        """
        if event == "point.completed":
            _POINTS_EVALUATED.inc()
            counter(f"runner.points.engine.{fields['engine']}").inc()
        elif event == "point.cached":
            _POINTS_CACHED.inc()
        if self.observer is None:
            return
        try:
            self.observer({"event": event, **fields})
        except Exception:
            _log.exception("progress observer failed on %s", event)

    def run(self, scenarios: Iterable[Scenario]) -> list[ScenarioResult]:
        """Evaluate all scenarios, preserving input order."""
        scenarios = list(scenarios)
        with span("runner.sweep", points=len(scenarios), jobs=self.jobs):
            return list(self.run_iter(scenarios))

    def submit(self, scenarios: Iterable[Scenario]) -> SweepHandle:
        """Start evaluating a batch asynchronously; returns its handle.

        Deprecated: iterate :meth:`run_iter` instead, which streams the
        same results without a background thread. Evaluation proceeds on
        a thread (sharing this runner's cache and executor settings)
        while the caller polls via :meth:`SweepHandle.poll`;
        ``handle.results()`` is equivalent to ``runner.run(scenarios)``
        — same order, same cache flow.
        """
        warnings.warn(
            "Runner.submit is deprecated; iterate Runner.run_iter instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return SweepHandle(self, list(scenarios))

    def run_iter(self, scenarios: Iterable[Scenario]) -> Iterator[ScenarioResult]:
        """Stream results in input order as they become available.

        The batch is planned into cache hits and work units
        (:meth:`_plan`). With ``jobs=1``, or a single unit, a unit runs
        inline when the stream first reaches one of its points, so the
        stream stays lazy; otherwise every unit is submitted to a
        process pool up front. Each point reports ``point.dispatched``,
        ``point.simulating`` and ``point.completed`` (or
        ``point.failed``), or one ``point.cached``. When a pool unit
        raises, the other units are settled (:meth:`_settle`) before
        the error propagates.
        """
        batch = list(scenarios)
        hits, units = self._plan(batch)
        owner = {i: unit for unit in units for i in unit.points}
        pool = None
        if self.jobs > 1 and len(units) > 1:
            pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(units)))
            for unit in units:
                unit.future = pool.submit(
                    _pool_unit, unit.scenarios, unit.engine, self.profile
                )
                self._emit_unit(unit, "point.dispatched", engine=unit.engine)
        try:
            for i, s in enumerate(batch):
                unit = owner.get(i)
                if unit is None:
                    # A cache hit, or a repeat of an earlier point.
                    metrics = hits.pop(i) if i in hits else self.cache.get(s)
                    self._emit("point.cached", point=i)
                    yield ScenarioResult(s, metrics, cached=True)
                    continue
                if unit.results is None:
                    try:
                        self._execute(unit)
                    except Exception:
                        if pool is not None:
                            self._settle(units, failed=unit)
                        raise
                yield unit.results[i]
        finally:
            if pool is not None:
                # An abandoned stream must not join the whole batch:
                # drop queued work and let running units finish alone.
                pool.shutdown(wait=False, cancel_futures=True)

    def _plan(
        self, batch: list[Scenario]
    ) -> tuple[dict[int, dict[str, Any]], list[_Unit]]:
        """Split a batch into cache hits (by index) and work units.

        Each distinct point is looked up in the cache once, at its first
        occurrence; a repeat is left for the stream to serve from the
        cache. The planner picks each miss's engine. Misses on synthetic
        traffic that can run in lockstep (:attr:`SimSpec.can_lockstep`)
        are grouped by (topology, simulator config), and each group is
        split into ``min(jobs, len(group))`` strided chunks, so that
        every chunk gets a share of the slow high-rate points. A chunk
        of at least two points whose points x nodes reaches
        :data:`LOCKSTEP_MIN_WORK` is one batched unit; every other miss
        is an interpreter unit of its own. A profiled sweep does not
        group: lockstep time cannot be split per point.
        """
        hits: dict[int, dict[str, Any]] = {}
        units: list[_Unit] = []
        groups: dict[tuple, list[int]] = {}
        seen: set[str] = set()
        for i, s in enumerate(batch):
            h = scenario_hash(s)
            if h in seen:
                continue
            seen.add(h)
            metrics = self.cache.get(s)
            if metrics is not None:
                hits[i] = metrics
            elif s.kind != "simulation":
                units.append(_Unit([i], [s], s.kind))
            elif s.sim.can_lockstep and not (s.traffic.trace_based or self.profile):
                groups.setdefault((s.topology, s.sim.sim_config()), []).append(i)
            else:
                units.append(_Unit([i], [s], "interpreter"))
        for (topo, _), members in groups.items():
            n = min(self.jobs, len(members))
            for k in range(n):
                chunk = members[k::n]
                work = len(chunk) * topo.width * topo.height
                if len(chunk) >= 2 and work >= LOCKSTEP_MIN_WORK:
                    units.append(_Unit(chunk, [batch[i] for i in chunk], "batched"))
                else:
                    units += [_Unit([i], [batch[i]], "interpreter") for i in chunk]
        units.sort(key=lambda unit: unit.points[0])
        return hits, units

    def _execute(self, unit: _Unit) -> None:
        """Run ``unit`` inline, or collect it from the pool, and report it.

        The unit's results go into the cache before its points report
        ``point.completed``. If it raises, each of its points reports
        ``point.failed`` and the error propagates. A pool unit reports
        ``point.simulating`` when its result names the worker that ran
        it, so a pool unit that raises goes from dispatched to failed.
        """
        try:
            if unit.future is None:
                worker = {"worker": os.getpid(), "worker_t": round(time.time(), 6)}
                self._emit_unit(unit, "point.dispatched", engine=unit.engine)
                self._emit_unit(unit, "point.simulating", engine=unit.engine, **worker)
                metrics, profiles = _run_unit(unit.scenarios, unit.engine, self.profile)
            else:
                (metrics, profiles), worker, spans = unit.future.result()
                merge_exported(spans, parent_id=current_span_id())
                self._emit_unit(unit, "point.simulating", engine=unit.engine, **worker)
        except Exception as exc:
            self._emit_unit(unit, "point.failed", error=f"{type(exc).__name__}: {exc}")
            raise
        unit.results = {}
        for i, s, m, prof in zip(unit.points, unit.scenarios, metrics, profiles):
            self.cache.put(s, m)
            unit.results[i] = ScenarioResult(s, m, cached=False, profile=prof)
        self._emit_unit(
            unit,
            "point.completed",
            worker=worker["worker"],
            engine=unit.engine,
            cached=False,
        )

    def _settle(self, units: list[_Unit], failed: _Unit) -> None:
        """End every other pool unit after ``failed`` raised.

        Queued units are cancelled; running and finished ones are
        collected, so their points are cached and report
        ``point.completed``. Cancelled units and units that raise report
        ``point.failed``: every point ends in exactly one terminal event.
        """
        pending = [u for u in units if u.results is None and u is not failed]
        for unit in pending:
            unit.future.cancel()
        for unit in pending:
            try:
                self._execute(unit)
            except Exception:
                pass  # reported as point.failed by _execute

    def _emit_unit(self, unit: _Unit, event: str, **fields: Any) -> None:
        """Report ``event`` once for each point of ``unit``."""
        for i in unit.points:
            self._emit(event, point=i, **fields)

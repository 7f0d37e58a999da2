"""Stable public facade for driving the repro experiment engine.

Everything an external caller (scripts, notebooks, the benchmark suite,
the experiment service) needs lives here under one flat namespace, so
downstream code never reaches into submodule paths that are free to move
between releases:

* **describe** a design point — :class:`Scenario`, :class:`SimSpec`,
  :class:`TopologySpec`, :class:`TrafficSpec`, the named families
  (:func:`scenario_family`, :func:`paper_point`), and the stable
  content hash / JSON codec (:func:`scenario_hash`,
  :func:`scenario_to_json`, :func:`scenario_from_json`);
* **run** it — :class:`Runner` (serial / process pool, results streamed
  by ``Runner.run_iter``; the deprecated ``Runner.submit`` still returns
  a :class:`SweepHandle`), :func:`evaluate_scenario`,
  :func:`simulate_scenario`, the :func:`run_batch` convenience, and
  :class:`EvaluationCache` for cross-run reuse;
* **persist** results — the byte-deterministic npz archive primitives
  (:func:`write_npz_archive`, :func:`open_npz_archive`) plus the trace
  and telemetry stores built on them;
* **serve** it — :func:`serve` / :func:`make_server` boot the HTTP/JSON
  experiment service and :class:`ServiceClient` talks to one;
* **observe** the stack — :func:`span` tracing with
  :func:`enable_tracing` / :func:`export_trace`, the process-metrics
  snapshot (:func:`metrics_snapshot`), structured logging
  (:func:`setup_logging`), and per-phase engine profiling
  (:func:`profile_simulation` / :func:`render_profiles` /
  :class:`PhaseProfile`). Not to be confused with
  :func:`profile_scenario`, which samples the *simulated network's*
  telemetry rather than the stack's own performance. Sweep
  introspection rides on the same layer: the durable run ledger
  (:class:`RunLedger`, :func:`load_ledger`, :func:`replay_ledger`,
  :func:`export_ledger`), whose fold feeds the live progress screen
  (:func:`render_top`), and sweep-level profile aggregation
  (:func:`merge_profiles`, :class:`SweepProfile`,
  :func:`render_sweep_profile`);
* **operate** it — Prometheus text exposition (:func:`render_prometheus`)
  of the metrics a scraper keeps history of and alerts on.

The deep modules stay importable (nothing here is a wrapper — every name
is a re-export), but this module is the compatibility surface: names
listed in ``__all__`` below are the ones the project promises to keep.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.experiments import (
    EvaluationCache,
    Runner,
    Scenario,
    ScenarioResult,
    SimSpec,
    SweepHandle,
    TopologySpec,
    TrafficSpec,
    evaluate_scenario,
    family_names,
    paper_point,
    register_family,
    scenario_family,
    scenario_from_json,
    scenario_hash,
    scenario_to_json,
    simulate_scenario,
)
from repro.obs import (
    PhaseProfile,
    RunLedger,
    SweepProfile,
    enable_tracing,
    export_ledger,
    export_trace,
    load_ledger,
    merge_profiles,
    metrics_snapshot,
    profile_simulation,
    render_profiles,
    render_prometheus,
    render_sweep_profile,
    render_top,
    replay_ledger,
    setup_logging,
    span,
)
from repro.service import ServiceClient, make_server, serve
from repro.telemetry import (
    load_telemetry_npz,
    profile_scenario,
    save_telemetry_npz,
)
from repro.workloads import (
    load_trace_npz,
    open_npz_archive,
    save_trace_npz,
    write_npz_archive,
)

__all__ = [
    "EvaluationCache",
    "PhaseProfile",
    "RunLedger",
    "Runner",
    "Scenario",
    "ScenarioResult",
    "ServiceClient",
    "SimSpec",
    "SweepHandle",
    "SweepProfile",
    "TopologySpec",
    "TrafficSpec",
    "enable_tracing",
    "evaluate_scenario",
    "export_ledger",
    "export_trace",
    "family_names",
    "load_ledger",
    "load_telemetry_npz",
    "load_trace_npz",
    "make_server",
    "merge_profiles",
    "metrics_snapshot",
    "open_npz_archive",
    "paper_point",
    "profile_scenario",
    "profile_simulation",
    "register_family",
    "render_profiles",
    "render_prometheus",
    "render_sweep_profile",
    "render_top",
    "replay_ledger",
    "run_batch",
    "save_telemetry_npz",
    "save_trace_npz",
    "scenario_family",
    "scenario_from_json",
    "scenario_hash",
    "scenario_to_json",
    "serve",
    "setup_logging",
    "simulate_scenario",
    "span",
    "write_npz_archive",
]


def run_batch(
    scenarios: Iterable[Scenario],
    *,
    jobs: int = 1,
    cache: EvaluationCache | None = None,
) -> list[ScenarioResult]:
    """Evaluate ``scenarios`` and return ordered results.

    The one-call entry point: builds a :class:`Runner` (serial for
    ``jobs=1``, a process pool otherwise — results are bit-identical
    either way) and runs the batch through it. Pass a shared
    :class:`EvaluationCache` to reuse evaluations across calls.
    """
    return Runner(jobs=jobs, cache=cache).run(list(scenarios))

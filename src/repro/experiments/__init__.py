"""Unified parallel experiment engine.

Every paper artefact is a Cartesian sweep over {topology x technology x
hops x traffic x injection rate}; this package gives those sweeps one
home instead of a hand-rolled serial loop per layer:

* :mod:`repro.experiments.spec` — declarative, hashable, JSON-serializable
  :class:`Scenario` records naming one design point each;
* :mod:`repro.experiments.registry` — named scenario *families* (the
  paper's Fig. 5 grid, saturation sweeps, NPB kernels, the all-optical
  projection) plus a hook for registering new ones;
* :mod:`repro.experiments.runner` — a :class:`Runner` with serial and
  process-pool executors; per-scenario seeds make serial and parallel
  runs bit-identical;
* :mod:`repro.experiments.cache` — an :class:`EvaluationCache` keyed on
  the scenario's stable content hash, persisted as an append-only log.

The DSE (:mod:`repro.core.dse`), the CLI (``--jobs``) and the benchmark
suite all route their evaluation loops through this engine.
"""

from repro.experiments.cache import EvaluationCache
from repro.experiments.registry import (
    family_names,
    paper_point,
    register_family,
    scenario_family,
)
from repro.experiments.runner import (
    Runner,
    ScenarioResult,
    SweepHandle,
    evaluate_scenario,
    simulate_scenario,
)
from repro.experiments.spec import (
    Scenario,
    SimSpec,
    TopologySpec,
    TrafficSpec,
    scenario_from_json,
    scenario_hash,
    scenario_to_json,
)

__all__ = [
    "EvaluationCache",
    "family_names",
    "paper_point",
    "register_family",
    "scenario_family",
    "Runner",
    "ScenarioResult",
    "SweepHandle",
    "evaluate_scenario",
    "simulate_scenario",
    "Scenario",
    "SimSpec",
    "TopologySpec",
    "TrafficSpec",
    "scenario_from_json",
    "scenario_hash",
    "scenario_to_json",
]

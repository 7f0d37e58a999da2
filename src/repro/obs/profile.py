"""Opt-in per-phase profiling for both simulation engines.

The engines' cycle loops decompose into named phases (flit arrivals,
injection, VC allocation, switch allocation, drain/fast-forward for the
interpreter; vectorized arrivals/injection/alloc-traversal plus the
scalar-replay fallback for the batched engine). A :class:`PhaseProfile`
handed to ``Simulator.run(profile=...)`` or
``BatchSimulator.run_batch(profile=...)`` accumulates ``perf_counter_ns``
deltas per phase via chained timestamps, so the phase sum tracks the
loop's wall time closely (pinned within 10% by integration test).

Cost model matches the telemetry sampler and :mod:`repro.obs.trace`:
disabled (``profile=None``, the default) the loop pays one ``if prof:``
falsy check per phase boundary — no clock reads, no allocation — and the
golden-SimStats tests stay bit-identical.

:func:`profile_simulation` is the one-call helper behind
``repro obs profile``: evaluate one scenario under each engine asked
for and return the populated profiles; :func:`render_profiles` renders them as
an aligned per-phase table with percent-of-total columns.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "PhaseProfile",
    "profile_simulation",
    "render_profiles",
    "INTERPRETER_PHASES",
    "BATCH_PHASES",
]

#: Phase display order for the interpreter engine.
INTERPRETER_PHASES = (
    "setup",
    "arrivals",
    "injection",
    "vc_alloc",
    "switch_alloc",
    "drain",
    "finalize",
)

#: Phase display order for the batched engine.
BATCH_PHASES = (
    "setup",
    "arrivals",
    "injection",
    "alloc_traversal",
    "scalar_replay",
    "clock",
    "finalize",
)

_PHASE_ORDER = {
    "interpreter": INTERPRETER_PHASES,
    "batched": BATCH_PHASES,
}


@dataclass
class PhaseProfile:
    """Accumulated per-phase nanoseconds plus event counts for one run.

    Mutable accumulator: the engine calls :meth:`add` at phase
    boundaries and :meth:`bump` for occurrence counts (cycles executed,
    scalar-replay cycles). ``total_ns`` is the engine's own
    entry-to-exit wall time; ``sum(phases.values())`` should land within
    a few percent of it because the timestamps chain (each phase's end
    is the next phase's start).
    """

    engine: str = "interpreter"
    phases: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    total_ns: int = 0

    def add(self, phase: str, ns: int) -> None:
        self.phases[phase] = self.phases.get(phase, 0) + ns

    def bump(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @property
    def phase_sum_ns(self) -> int:
        return sum(self.phases.values())

    def to_json(self) -> dict[str, Any]:
        order = _PHASE_ORDER.get(self.engine, ())
        ordered = [p for p in order if p in self.phases]
        ordered += sorted(p for p in self.phases if p not in order)
        return {
            "engine": self.engine,
            "total_ns": self.total_ns,
            "phase_sum_ns": self.phase_sum_ns,
            "phases": {p: self.phases[p] for p in ordered},
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
        }


def profile_simulation(
    scenario: Any, engines: Sequence[str] = ("interpreter", "batched")
) -> dict[str, PhaseProfile]:
    """Run ``scenario`` under each of ``engines`` with profiling enabled.

    Returns ``{engine: PhaseProfile}``, by default for both engines.
    Each entry is the run the runner evaluates on that engine:
    :func:`~repro.experiments.runner.simulate_scenario` (telemetry,
    closed-loop and controller hooks included) and a one-point
    :func:`~repro.experiments.runner.simulate_lockstep` chunk. The
    batched entry is omitted where ``SimSpec.can_lockstep`` is false, as
    in the runner's planner. An engine not asked for is not run. Imports
    lazily so :mod:`repro.obs` never drags the simulation stack in at
    import time (and stays cycle-free).
    """
    from repro.experiments.runner import simulate_lockstep, simulate_scenario

    unknown = sorted(set(engines) - set(_PHASE_ORDER))
    if unknown:
        raise ValueError(f"unknown engine(s) {unknown}; choose from {sorted(_PHASE_ORDER)}")
    out: dict[str, PhaseProfile] = {}
    if "interpreter" in engines:
        out["interpreter"] = PhaseProfile(engine="interpreter")
        simulate_scenario(scenario, profile=out["interpreter"])
    if "batched" in engines and scenario.sim.can_lockstep:
        out["batched"] = PhaseProfile(engine="batched")
        simulate_lockstep([scenario], profile=out["batched"])
    return out


def render_profiles(profiles: dict[str, PhaseProfile]) -> str:
    """Aligned per-phase table for one or more engine profiles."""
    from repro.util import format_table

    rows = []
    for engine in sorted(profiles):
        prof = profiles[engine]
        total = prof.total_ns or 1
        order = _PHASE_ORDER.get(prof.engine, ())
        ordered = [p for p in order if p in prof.phases]
        ordered += sorted(p for p in prof.phases if p not in order)
        for phase in ordered:
            ns = prof.phases[phase]
            rows.append(
                [
                    engine,
                    phase,
                    f"{ns / 1e6:.3f}",
                    f"{100.0 * ns / total:.1f}%",
                ]
            )
        rows.append(
            [
                engine,
                "(total)",
                f"{prof.total_ns / 1e6:.3f}",
                f"{100.0 * prof.phase_sum_ns / total:.1f}% covered",
            ]
        )
    return format_table(["engine", "phase", "ms", "of total"], rows)

"""Declarative experiment scenarios (the engine's unit of work).

A :class:`Scenario` names one design point — topology construction,
technologies, traffic generation, injection rate, simulator
microarchitecture and seed — as a frozen, hashable, JSON-serializable
record. Because a scenario is *data*, it can be deduplicated, cached by
content hash, shipped to a worker process, and persisted next to its
results; the evaluation itself (:func:`repro.experiments.runner
.evaluate_scenario`) is a pure function of the scenario, which is what
makes serial and parallel runs bit-identical.

Three kinds of scenario cover the paper's artefacts:

* ``"analytical"`` — the CLEAR evaluation pipeline (Fig. 5, Tables III/IV);
* ``"simulation"`` — a cycle-accurate run of a synthetic or NPB trace
  (Fig. 6, saturation sweeps);
* ``"all_optical"`` — the Fig. 8 three-way all-optical projection.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.simulation.simulator import SimConfig
from repro.tech.parameters import Technology
from repro.topology.graph import Topology
from repro.topology.mesh import build_express_mesh, build_mesh
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.npb import NPB_KERNELS
from repro.traffic.trace import Trace

__all__ = [
    "KINDS",
    "Scenario",
    "SimSpec",
    "TopologySpec",
    "TrafficSpec",
    "scenario_from_json",
    "scenario_hash",
    "scenario_to_json",
]

KINDS = ("analytical", "simulation", "all_optical")


def _matrix_generator_names() -> list[str]:
    """Matrix generators a :class:`TrafficSpec` may name (the registry is
    owned by :mod:`repro.workloads.spec`; imported lazily to keep import
    time low)."""
    from repro.workloads.spec import matrix_generator_names

    return matrix_generator_names()


def _params_tuple(params: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    """Hashable params view (shared normalization with WorkloadSpec)."""
    from repro.workloads.spec import params_tuple

    return params_tuple(params)


@dataclass(frozen=True)
class TopologySpec:
    """How to build the network of one design point."""

    builder: str = "mesh"
    """``"mesh"`` or ``"express_mesh"``."""
    width: int = 16
    height: int = 16
    base_technology: Technology = Technology.ELECTRONIC
    express_technology: Technology | None = None
    hops: int = 0
    core_spacing_m: float = 1e-3

    def __post_init__(self) -> None:
        if self.builder not in ("mesh", "express_mesh"):
            raise ValueError(f"unknown topology builder {self.builder!r}")
        if self.builder == "express_mesh":
            if self.express_technology is None:
                raise ValueError("express_mesh needs an express technology")
            if self.hops < 2:
                raise ValueError(f"express hops must be >= 2, got {self.hops}")
        elif self.express_technology is not None or self.hops != 0:
            raise ValueError("plain mesh takes no express technology / hops")

    @classmethod
    def plain(
        cls,
        technology: Technology,
        *,
        width: int = 16,
        height: int = 16,
        core_spacing_m: float = 1e-3,
    ) -> "TopologySpec":
        return cls(
            builder="mesh",
            width=width,
            height=height,
            base_technology=technology,
            core_spacing_m=core_spacing_m,
        )

    @classmethod
    def express(
        cls,
        base_technology: Technology,
        express_technology: Technology,
        hops: int,
        *,
        width: int = 16,
        height: int = 16,
        core_spacing_m: float = 1e-3,
    ) -> "TopologySpec":
        return cls(
            builder="express_mesh",
            width=width,
            height=height,
            base_technology=base_technology,
            express_technology=express_technology,
            hops=hops,
            core_spacing_m=core_spacing_m,
        )

    def build(self) -> Topology:
        """Materialize the topology."""
        if self.builder == "mesh":
            return build_mesh(
                self.width,
                self.height,
                link_technology=self.base_technology,
                core_spacing_m=self.core_spacing_m,
            )
        return build_express_mesh(
            self.width,
            self.height,
            hops=self.hops,
            base_technology=self.base_technology,
            express_technology=self.express_technology,
            core_spacing_m=self.core_spacing_m,
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "builder": self.builder,
            "width": self.width,
            "height": self.height,
            "base_technology": self.base_technology.value,
            "express_technology": (
                None
                if self.express_technology is None
                else self.express_technology.value
            ),
            "hops": self.hops,
            "core_spacing_m": self.core_spacing_m,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "TopologySpec":
        return cls(
            builder=data["builder"],
            width=data["width"],
            height=data["height"],
            base_technology=Technology(data["base_technology"]),
            express_technology=(
                None
                if data["express_technology"] is None
                else Technology(data["express_technology"])
            ),
            hops=data["hops"],
            core_spacing_m=data["core_spacing_m"],
        )


@dataclass(frozen=True)
class TrafficSpec:
    """How to generate the offered traffic of one design point.

    ``generator`` is a traffic-matrix generator name (soteriou, uniform,
    transpose, ...), ``"npb"`` for the synthetic NAS kernels, or
    ``"workload"`` for a :class:`repro.workloads.WorkloadSpec` model (a
    ``"model"`` param names the temporal model or application skeleton,
    an optional ``"traffic"`` param its destination matrix); extra
    generator keywords live in ``params`` as a sorted tuple of
    ``(key, value)`` pairs so the spec stays hashable.
    """

    generator: str = "soteriou"
    injection_rate: float = 0.1
    seed: int = 0
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if (
            self.generator not in ("npb", "workload")
            and self.generator not in _matrix_generator_names()
        ):
            raise ValueError(
                f"unknown traffic generator {self.generator!r}; expected "
                f"'npb', 'workload' or one of {_matrix_generator_names()}"
            )
        if self.injection_rate < 0:
            raise ValueError(
                f"injection rate must be >= 0, got {self.injection_rate}"
            )
        if self.generator == "npb" and "kernel" not in dict(self.params):
            raise ValueError("npb traffic needs a 'kernel' param")
        if self.generator == "workload" and "model" not in dict(self.params):
            raise ValueError("workload traffic needs a 'model' param")

    @classmethod
    def make(
        cls,
        generator: str,
        *,
        injection_rate: float = 0.1,
        seed: int = 0,
        **params: Any,
    ) -> "TrafficSpec":
        """Build a spec from keyword generator parameters."""
        return cls(
            generator=generator,
            injection_rate=injection_rate,
            seed=seed,
            params=_params_tuple(params),
        )

    @property
    def trace_based(self) -> bool:
        """True when the workload fixes its own injection schedule (NPB
        kernels and application skeletons), so the simulator should use
        the hard ``max_cycles`` cap instead of the open-loop
        cycles + drain budget."""
        if self.generator == "npb":
            return True
        if self.generator == "workload":
            from repro.workloads import SKELETONS

            return dict(self.params)["model"] in SKELETONS
        return False

    def matrix(self, topo: Topology) -> TrafficMatrix:
        """Generate the traffic matrix (matrix generators only)."""
        if self.generator in ("npb", "workload"):
            raise ValueError(
                f"{self.generator} traffic is trace-based; use trace()"
            )
        from repro.workloads.spec import build_traffic_matrix

        return build_traffic_matrix(
            self.generator,
            topo,
            injection_rate=self.injection_rate,
            seed=self.seed,
            **dict(self.params),
        )

    def trace(self, topo: Topology, *, sim: "SimSpec") -> Trace:
        """Generate the workload trace for a simulation scenario."""
        if self.generator == "npb":
            kwargs = dict(self.params)
            kernel = kwargs.pop("kernel")
            builder = NPB_KERNELS.get(str(kernel).upper())
            if builder is None:
                raise ValueError(f"unknown NPB kernel {kernel!r}")
            return builder(**kwargs)
        if self.generator == "workload":
            from repro.workloads import WorkloadSpec

            kwargs = dict(self.params)
            model = str(kwargs.pop("model"))
            return WorkloadSpec.make(
                model,
                injection_rate=self.injection_rate,
                cycles=sim.cycles,
                packet_flits=sim.packet_flits,
                seed=self.seed,
                traffic=str(kwargs.pop("traffic", "uniform")),
                **kwargs,
            ).build(topo)
        from repro.simulation.workload import synthetic_trace

        return synthetic_trace(
            self.matrix(topo),
            injection_rate=self.injection_rate,
            cycles=sim.cycles,
            packet_flits=sim.packet_flits,
            seed=self.seed,
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "generator": self.generator,
            "injection_rate": self.injection_rate,
            "seed": self.seed,
            "params": [[k, v] for k, v in self.params],
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "TrafficSpec":
        return cls(
            generator=data["generator"],
            injection_rate=data["injection_rate"],
            seed=data["seed"],
            params=tuple((k, v) for k, v in data["params"]),
        )


@dataclass(frozen=True)
class SimSpec:
    """Simulator microarchitecture + workload window for one scenario."""

    n_vcs: int = 4
    vc_depth: int = 8
    router_pipeline: int = 3
    electronic_link_cycles: int = 1
    optical_link_cycles: int = 2
    cycles: int = 1000
    """Injection window for synthetic open-loop traffic."""
    packet_flits: int = 1
    drain_budget: int = 200_000
    """Post-injection drain allowance for synthetic traffic."""
    max_cycles: int = 2_000_000
    """Hard cycle cap for trace workloads (NPB)."""
    telemetry_window: int = 0
    """Windowed-telemetry sampling period in cycles (0 = disabled; see
    :mod:`repro.telemetry`). Enabled runs additionally report saturation
    onset, hotspots and windowed power in their metrics."""
    closed_loop_window: int = 0
    """Per-source outstanding-request window (0 = open loop; see
    :mod:`repro.control.sources`). Closed-loop scenarios reinterpret the
    generated traffic as *demand*: requests are released only while fewer
    than this many are in flight, and each delivered request generates a
    reply that returns the credit."""
    think_cycles: int = 0
    """Destination service time before a closed-loop reply is offered."""
    reply_flits: int = 1
    """Closed-loop reply packet size in flits."""
    controllers: tuple[Any, ...] = ()
    """Online controllers acting at telemetry window boundaries.
    Entries are controller names (from
    :func:`repro.control.controller_names`) or ``{"name": ...,
    "params": {...}}`` dicts carrying factory keywords; dict entries are
    normalized to hashable ``(name, ((key, value), ...))`` pairs.
    Requires ``telemetry_window > 0``."""

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles}")
        if self.drain_budget < 1 or self.max_cycles < 1:
            raise ValueError(f"cycle budgets must be >= 1: {self}")
        if self.telemetry_window < 0:
            raise ValueError(
                f"telemetry window must be >= 0, got {self.telemetry_window}"
            )
        if self.closed_loop_window < 0 or self.think_cycles < 0:
            raise ValueError(f"closed-loop knobs must be >= 0: {self}")
        if self.reply_flits < 1:
            raise ValueError(
                f"reply size must be >= 1 flit, got {self.reply_flits}"
            )
        if self.controllers:
            from repro.control.controllers import (
                controller_entry,
                controller_names,
            )

            if self.telemetry_window < 1:
                raise ValueError(
                    "controllers act on telemetry windows; set "
                    "telemetry_window > 0"
                )
            norm: list[Any] = []
            for raw in self.controllers:
                name, params = controller_entry(raw)
                if name not in controller_names():
                    raise ValueError(
                        f"unknown controller {name!r}; one of "
                        f"{controller_names()}"
                    )
                norm.append(name if not params else (name, _params_tuple(params)))
            object.__setattr__(self, "controllers", tuple(norm))
        else:
            object.__setattr__(self, "controllers", tuple(self.controllers))

    def sim_config(self) -> SimConfig:
        return SimConfig(
            n_vcs=self.n_vcs,
            vc_depth=self.vc_depth,
            router_pipeline=self.router_pipeline,
            electronic_link_cycles=self.electronic_link_cycles,
            optical_link_cycles=self.optical_link_cycles,
        )

    @property
    def can_lockstep(self) -> bool:
        """Whether the lockstep batched engine can run this spec: not when
        telemetry sampling, a closed-loop session or controllers are on,
        which hook every packet in sequence."""
        return not (self.telemetry_window or self.closed_loop_window or self.controllers)

    def cycle_budget(self, trace_based: bool) -> int:
        """Simulation cycle cap for this workload style."""
        return self.max_cycles if trace_based else self.cycles + self.drain_budget

    def to_json(self) -> dict[str, Any]:
        return {
            "n_vcs": self.n_vcs,
            "vc_depth": self.vc_depth,
            "router_pipeline": self.router_pipeline,
            "electronic_link_cycles": self.electronic_link_cycles,
            "optical_link_cycles": self.optical_link_cycles,
            "cycles": self.cycles,
            "packet_flits": self.packet_flits,
            "drain_budget": self.drain_budget,
            "max_cycles": self.max_cycles,
            "telemetry_window": self.telemetry_window,
            "closed_loop_window": self.closed_loop_window,
            "think_cycles": self.think_cycles,
            "reply_flits": self.reply_flits,
            "controllers": [
                c
                if isinstance(c, str)
                else {"name": c[0], "params": dict(c[1])}
                for c in self.controllers
            ],
            # The engine is the runner's choice, not part of the spec; the
            # constant keeps every content hash, sweep hash and release
            # byte what it was when specs named an engine.
            "engine": "interpreter",
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "SimSpec":
        data = dict(data)
        cls.drop_legacy_engine(data)
        data["controllers"] = tuple(data.get("controllers", ()))
        return cls(**data)

    @staticmethod
    def drop_legacy_engine(params: dict[str, Any]) -> None:
        """Pop the ``"engine"`` that specs and family params once named:
        either old value means the same point, anything else raises."""
        engine = params.pop("engine", "interpreter")
        if engine not in ("interpreter", "batched"):
            raise ValueError(
                f"unknown engine {engine!r}; one of ('interpreter', 'batched')"
            )


@dataclass(frozen=True)
class Scenario:
    """One named design point. The engine's unit of work.

    ``name`` is a display label and is *excluded* from the content hash:
    two scenarios that describe the same experiment share cache entries
    no matter what they are called.
    """

    kind: str
    topology: TopologySpec
    traffic: TrafficSpec
    sim: SimSpec | None = None
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}; one of {KINDS}")
        if self.kind == "simulation" and self.sim is None:
            raise ValueError("simulation scenarios need a SimSpec")

    @property
    def label(self) -> str:
        """Display label (falls back to a content summary)."""
        if self.name:
            return self.name
        t = self.topology
        topo = (
            f"{t.base_technology.value}-mesh"
            if t.builder == "mesh"
            else f"{t.base_technology.value}+{t.express_technology.value}"
            f"x{t.hops}"
        )
        return f"{self.kind}:{topo}:{self.traffic.generator}"

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "topology": self.topology.to_json(),
            "traffic": self.traffic.to_json(),
            "sim": None if self.sim is None else self.sim.to_json(),
        }


def scenario_to_json(scenario: Scenario) -> dict[str, Any]:
    """Serialize a scenario to JSON-safe data."""
    return scenario.to_json()


def scenario_from_json(data: dict[str, Any]) -> Scenario:
    """Rebuild a scenario from :func:`scenario_to_json` output."""
    return Scenario(
        kind=data["kind"],
        name=data.get("name", ""),
        topology=TopologySpec.from_json(data["topology"]),
        traffic=TrafficSpec.from_json(data["traffic"]),
        sim=None if data["sim"] is None else SimSpec.from_json(data["sim"]),
    )


def scenario_hash(scenario: Scenario) -> str:
    """Stable content hash of a scenario (cache key).

    Canonical-JSON SHA-256 over everything except the display name, so
    the hash survives process boundaries, interpreter restarts and JSON
    round-trips — unlike Python's salted ``hash()``.
    """
    payload = scenario.to_json()
    del payload["name"]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

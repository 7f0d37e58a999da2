"""Network power, energy and area roll-ups (Tables IV and V).

"Based on the injection rate information obtained for each link, the power
consumption was computed based on the static power and dynamic energy per
flit numbers from DSENT ... across all network components, the links and
routers" (paper, Section III-B).

Static power sums every router and link-direction model; dynamic power
multiplies per-flit energies by per-component flit rates from the flow
assignment. For trace energy (Table V) the same machinery runs on flit
*counts* instead of rates.

The per-component evaluation API — :func:`evaluate_router`,
:func:`evaluate_link`, :func:`link_config_for`, :func:`per_flit_energies`
and :func:`dynamic_energy_from_counts` — is public: the simulation energy
accounting (:mod:`repro.simulation.energy`) and the telemetry power
traces (:mod:`repro.telemetry.power_trace`) consume the *same* cached
DSENT figures this module's roll-ups use, which is what makes simulated,
windowed and analytical energies directly comparable (and, for the
telemetry conservation invariant, bit-identical).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.analysis.flows import assign_flows
from repro.dsent.link_model import LinkFigures, NocLinkConfig, NocLinkModel
from repro.dsent.router_model import RouterConfig, RouterPowerArea
from repro.topology.graph import LinkKind, Topology
from repro.topology.routing import RoutingTable
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.trace import Trace

__all__ = [
    "NetworkPower",
    "NetworkEnergy",
    "RouterFigures",
    "dynamic_energy_from_counts",
    "evaluate_link",
    "evaluate_router",
    "link_config_for",
    "network_static_power_w",
    "network_power",
    "network_area_m2",
    "per_flit_energies",
    "trace_dynamic_energy_j",
    "router_config_for_node",
]

#: The paper's core clock (Table II).
CORE_CLOCK_HZ = 0.78125e9


def router_config_for_node(topo: Topology, node: int) -> RouterConfig:
    """Router configuration at ``node``: 5 base ports plus one express port
    per distinct express neighbour (paper: 5 base / 7 hybrid)."""
    express_neighbors = {
        l.dst for l in topo.out_links(node) if l.kind is LinkKind.EXPRESS
    }
    return RouterConfig(base_ports=5, express_ports=len(express_neighbors))


@dataclass(frozen=True)
class RouterFigures:
    """Cached DSENT router figures: the per-component evaluation result."""

    static_w: float
    dynamic_j_per_flit: float
    area_m2: float


@lru_cache(maxsize=None)
def evaluate_router(config: RouterConfig) -> RouterFigures:
    """DSENT figures for one router configuration (process-wide cache)."""
    r = RouterPowerArea(config).evaluate()
    return RouterFigures(
        static_w=r.static_w,
        dynamic_j_per_flit=r.dynamic_j_per_event,
        area_m2=r.area_m2,
    )


@lru_cache(maxsize=None)
def evaluate_link(config: NocLinkConfig) -> LinkFigures:
    """DSENT figures for one link configuration (process-wide cache)."""
    return NocLinkModel(config).evaluate()


def link_config_for(topo: Topology, link_id: int) -> NocLinkConfig:
    """Link-model configuration of ``topo``'s link ``link_id``."""
    link = topo.links[link_id]
    return NocLinkConfig(
        technology=link.technology,
        length_m=link.length_m,
        express=link.kind is LinkKind.EXPRESS,
    )


class _FigureColumns(NamedTuple):
    """Every component's cached DSENT figures as float64 columns.

    Router columns are indexed by node id, link columns by link id.
    """

    router_static_w: np.ndarray
    router_dynamic_j: np.ndarray
    router_area_m2: np.ndarray
    link_static_w: np.ndarray
    link_dynamic_j: np.ndarray
    link_area_m2: np.ndarray


_FIGURES = ("static_w", "dynamic_j_per_flit", "area_m2")


def _classes(keys: list) -> tuple[list[int], np.ndarray]:
    """The first position of each distinct key, and every position's class."""
    first: dict = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    number = {key: c for c, key in enumerate(first)}
    return list(first.values()), np.fromiter(
        map(number.__getitem__, keys), dtype=np.intp, count=len(keys)
    )


def _figure_columns(topo: Topology) -> _FigureColumns:
    """``topo``'s figure columns, one DSENT evaluation per component class.

    A router's configuration depends only on its count of distinct
    express neighbours, and a link's only on ``(technology, length_m,
    kind)``. Each class is evaluated once, for its first member, and the
    figures are broadcast to every component (a uniform express mesh has
    two link classes and at most three router classes).
    """
    express = LinkKind.EXPRESS
    neighbours = {(l.src, l.dst) for l in topo.links if l.kind is express}
    express_ports = np.bincount(
        np.fromiter((src for src, _ in neighbours), dtype=np.intp),
        minlength=topo.n_nodes,
    )
    router_reps, router_class = _classes(express_ports.tolist())
    link_reps, link_class = _classes(
        [(l.technology, l.length_m, l.kind) for l in topo.links]
    )
    router_figs = [
        evaluate_router(router_config_for_node(topo, node)) for node in router_reps
    ]
    link_figs = [evaluate_link(link_config_for(topo, i)) for i in link_reps]

    def column(figs: list, cls: np.ndarray, name: str) -> np.ndarray:
        return np.array([getattr(f, name) for f in figs], dtype=np.float64)[cls]

    return _FigureColumns(
        *(column(router_figs, router_class, name) for name in _FIGURES),
        *(column(link_figs, link_class, name) for name in _FIGURES),
    )


def _ordered_sum(terms: np.ndarray) -> np.float64:
    """``0.0 + terms[0] + terms[1] + ...`` left to right, as a loop adds.

    ``np.sum`` adds pairwise and can differ in the last bit; the running
    sum of ``np.cumsum`` keeps every roll-up bit-identical to the
    per-component loop it replaced.
    """
    return np.cumsum(terms)[-1] if terms.size else np.float64(0.0)


def per_flit_energies(topo: Topology) -> tuple[np.ndarray, np.ndarray]:
    """``(router_j_per_flit, link_j_per_flit)`` vectors over ``topo``.

    The vectorized view of the cached DSENT evaluations — one dynamic
    energy per node (indexed by node id) and per link direction (indexed
    by link id). Telemetry converts windowed flit counts into energy
    series with a single matrix product against these.
    """
    cols = _figure_columns(topo)
    return cols.router_dynamic_j, cols.link_dynamic_j


def dynamic_energy_from_counts(
    topo: Topology,
    router_counts,
    link_counts,
) -> "NetworkEnergy":
    """Dynamic energy of measured per-component flit counts.

    The single accumulation path shared by the simulator's whole-run
    energy (:func:`repro.simulation.energy.sim_dynamic_energy_j`) and the
    telemetry power trace's conservation total: both sum
    ``count * E_per_flit`` in component order, so a telemetry trace whose
    summed window counts equal the run totals yields a **bit-identical**
    energy figure.
    """
    cols = _figure_columns(topo)
    router_j = np.asarray(router_counts, dtype=np.float64) * cols.router_dynamic_j
    link_j = np.asarray(link_counts, dtype=np.float64) * cols.link_dynamic_j
    return NetworkEnergy(
        router_dynamic_j=float(_ordered_sum(router_j)),
        link_dynamic_j=float(_ordered_sum(link_j)),
    )


@dataclass(frozen=True)
class NetworkPower:
    """Power breakdown of one network at one operating point, watts."""

    router_static_w: float
    link_static_w: float
    router_dynamic_w: float
    link_dynamic_w: float

    @property
    def static_w(self) -> float:
        """Total static power."""
        return self.router_static_w + self.link_static_w

    @property
    def dynamic_w(self) -> float:
        """Total dynamic power."""
        return self.router_dynamic_w + self.link_dynamic_w

    @property
    def total_w(self) -> float:
        """Static + dynamic."""
        return self.static_w + self.dynamic_w


@dataclass(frozen=True)
class NetworkEnergy:
    """Energy breakdown for a finite workload (trace), joules."""

    router_dynamic_j: float
    link_dynamic_j: float

    @property
    def dynamic_j(self) -> float:
        """Total dynamic energy (the paper's Table V quantity)."""
        return self.router_dynamic_j + self.link_dynamic_j


def network_static_power_w(topo: Topology) -> float:
    """Total static power of routers + all link directions (Table IV)."""
    cols = _figure_columns(topo)
    return float(
        _ordered_sum(np.concatenate((cols.router_static_w, cols.link_static_w)))
    )


def network_power(
    topo: Topology,
    traffic: TrafficMatrix,
    routing: RoutingTable | None = None,
    *,
    clock_hz: float = CORE_CLOCK_HZ,
) -> NetworkPower:
    """Static + dynamic power with ``traffic`` in flits/cycle.

    Dynamic power converts per-flit energies to watts via the clock:
    ``P = flow(flits/cycle) * f(cycles/s) * E(J/flit)``.
    """
    if clock_hz <= 0:
        raise ValueError(f"clock must be > 0, got {clock_hz}")
    flows = assign_flows(topo, traffic, routing)
    cols = _figure_columns(topo)
    return NetworkPower(
        router_static_w=float(_ordered_sum(cols.router_static_w)),
        link_static_w=float(_ordered_sum(cols.link_static_w)),
        router_dynamic_w=_ordered_sum(
            flows.router_flow * clock_hz * cols.router_dynamic_j
        ),
        link_dynamic_w=_ordered_sum(flows.link_flow * clock_hz * cols.link_dynamic_j),
    )


def network_area_m2(topo: Topology) -> float:
    """Total layout area: routers + all link directions, m²."""
    cols = _figure_columns(topo)
    return float(
        _ordered_sum(np.concatenate((cols.router_area_m2, cols.link_area_m2)))
    )


def trace_dynamic_energy_j(
    topo: Topology,
    trace: Trace | TrafficMatrix,
    routing: RoutingTable | None = None,
) -> NetworkEnergy:
    """Total dynamic energy to deliver a trace's flits (Table V).

    "we obtain the dynamic energy consumption per flit from our modified
    DSENT, and use it to compute the total dynamic energy based on the
    communication volume and the network paths taken by the flits."

    Accepts either a :class:`Trace` (its flit-count matrix is used) or a
    flit-count :class:`TrafficMatrix` directly.
    """
    counts = trace.flit_count_matrix() if isinstance(trace, Trace) else trace
    flows = assign_flows(topo, counts, routing)
    cols = _figure_columns(topo)
    return NetworkEnergy(
        router_dynamic_j=_ordered_sum(flows.router_flow * cols.router_dynamic_j),
        link_dynamic_j=_ordered_sum(flows.link_flow * cols.link_dynamic_j),
    )

"""Per-link flow assignment from a traffic matrix and routing table.

"After setting up the traffic, each network was then analyzed in order to
compute the resulting injection rate across every link in the network"
(paper, Section III-B). This module performs exactly that step: push every
(src, dst) pair's rate along its deterministic path and accumulate per-link
and per-router flows.

Flows are unit-agnostic: feed rates (flits/cycle) to get link loads, feed
flit *counts* (trace volumes) to get per-link traversal totals for energy
accounting (Table V).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.topology.graph import Topology
from repro.topology.routing import RoutingTable
from repro.traffic.matrix import TrafficMatrix

__all__ = ["FlowAssignment", "assign_flows"]


@dataclass
class FlowAssignment:
    """Result of routing a traffic matrix over a topology.

    Attributes:
        topology: the network the flows live on.
        link_flow: per-link accumulated traffic, shape ``(n_links,)``;
            same units as the traffic matrix entries.
        router_flow: per-router accumulated traffic, shape ``(n_nodes,)``.
            Every flit visits ``hops + 1`` routers (source router included,
            so pairs with zero hops never occur — the diagonal is zero).
        mean_hops: traffic-weighted mean link traversals per flit.
        total_traffic: sum of all matrix entries.
    """

    topology: Topology
    link_flow: np.ndarray
    router_flow: np.ndarray
    mean_hops: float
    total_traffic: float

    def __post_init__(self) -> None:
        if self.link_flow.shape != (self.topology.n_links,):
            raise ValueError(
                f"link_flow shape {self.link_flow.shape} != "
                f"({self.topology.n_links},)"
            )
        if self.router_flow.shape != (self.topology.n_nodes,):
            raise ValueError(
                f"router_flow shape {self.router_flow.shape} != "
                f"({self.topology.n_nodes},)"
            )

    def scaled(self, factor: float) -> "FlowAssignment":
        """Linearly rescale all flows (flows are linear in injection)."""
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        return FlowAssignment(
            topology=self.topology,
            link_flow=self.link_flow * factor,
            router_flow=self.router_flow * factor,
            mean_hops=self.mean_hops,
            total_traffic=self.total_traffic * factor,
        )


def assign_flows(
    topo: Topology,
    traffic: TrafficMatrix,
    routing: RoutingTable | None = None,
) -> FlowAssignment:
    """Route ``traffic`` over ``topo`` and accumulate per-link/router flows.

    Args:
        topo: target topology.
        traffic: N x N rates or counts; N must equal ``topo.n_nodes``.
        routing: optional prebuilt routing table (reuse across calls —
            building all-pairs paths is the expensive part).
    """
    if traffic.n_nodes != topo.n_nodes:
        raise ValueError(
            f"traffic has {traffic.n_nodes} nodes, topology has {topo.n_nodes}"
        )
    rt = routing if routing is not None else RoutingTable(topo)
    if rt.topology is not topo:
        raise ValueError("routing table belongs to a different topology")

    # Vectorized accumulation over the table's flat all-pairs paths
    # (pair-major, hop-minor): two np.bincount passes over per-hop rates.
    flat = rt.flat_paths
    n = topo.n_nodes
    m = traffic.matrix
    rates = m.reshape(-1)  # pair index = s * n + d

    pair_rates = rates[flat.pair]
    link_flow = np.bincount(flat.link, weights=pair_rates, minlength=topo.n_links)
    # Routers: every link arrival enters links[l].dst, plus the source
    # router once per pair.
    router_flow = np.bincount(
        rt.link_dst[flat.link], weights=pair_rates, minlength=n
    )
    router_flow += m.sum(axis=1)

    total = float(m.sum())
    mean_hops = float((flat.length * rates).sum() / total) if total > 0 else 0.0
    return FlowAssignment(
        topology=topo,
        link_flow=link_flow,
        router_flow=router_flow,
        mean_hops=mean_hops,
        total_traffic=total,
    )


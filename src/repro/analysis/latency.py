"""Analytical (zero-load) latency estimation.

"The average latency is also estimated based on the shortest paths, using
the individual latency values for the links and routers" (paper,
Section III-B). Per traversed hop the cost is the router pipeline (3
cycles, Table II) plus the link latency (1 cycle electronic, 2 cycles
optical — the extra cycle is the O-E conversion at the receiver).

Optionally the serialization delay of a multi-flit packet (``size - 1``
cycles) can be added; the paper's design-space exploration works at flit
granularity so it is off by default.
"""

from __future__ import annotations

import numpy as np

from repro.dsent.router_model import RouterConfig
from repro.tech.parameters import Technology
from repro.topology.graph import Topology
from repro.topology.routing import RoutingTable
from repro.traffic.matrix import TrafficMatrix

__all__ = ["link_latency_cycles", "path_latency_cycles", "average_latency_cycles"]


def link_latency_cycles(technology: Technology) -> int:
    """Paper Table II: "1 clk Elec., else 2 clks"."""
    return 1 if technology is Technology.ELECTRONIC else 2


def path_latency_cycles(
    topo: Topology,
    src: int,
    dst: int,
    routing: RoutingTable,
    *,
    router_pipeline: int = RouterConfig().pipeline_stages,
    packet_flits: int = 1,
) -> int:
    """Zero-load latency of one packet from ``src`` to ``dst``, cycles."""
    if packet_flits < 1:
        raise ValueError(f"packet size must be >= 1 flit, got {packet_flits}")
    path = routing.path(src, dst)
    cycles = 0
    for link in path:
        cycles += router_pipeline + link_latency_cycles(link.technology)
    # Ejection through the destination router.
    cycles += router_pipeline
    # Serialization: the tail flit leaves (size - 1) cycles after the head.
    cycles += packet_flits - 1
    return cycles


def average_latency_cycles(
    topo: Topology,
    traffic: TrafficMatrix,
    routing: RoutingTable | None = None,
    *,
    router_pipeline: int = RouterConfig().pipeline_stages,
    packet_flits: int = 1,
) -> float:
    """Traffic-weighted mean zero-load latency, cycles.

    Args:
        topo: network under evaluation.
        traffic: N x N weights (rates or counts — only ratios matter).
        routing: optional prebuilt routing table.
        router_pipeline: router traversal cycles (paper: 3).
        packet_flits: packet length for serialization accounting.
    """
    if traffic.n_nodes != topo.n_nodes:
        raise ValueError(
            f"traffic has {traffic.n_nodes} nodes, topology has {topo.n_nodes}"
        )
    rt = routing if routing is not None else RoutingTable(topo)
    m = traffic.matrix
    total = m.sum()
    if total == 0:
        raise ValueError("cannot average latency over zero traffic")
    if packet_flits < 1:
        raise ValueError(f"packet size must be >= 1 flit, got {packet_flits}")
    # Per-pair latency: one (router + link) cost per hop, then ejection
    # and serialization — path_latency_cycles for every pair at once.
    hop_cost = np.fromiter(
        (router_pipeline + link_latency_cycles(l.technology) for l in topo.links),
        dtype=np.float64,
        count=topo.n_links,
    )
    flat = rt.flat_paths
    pair_latency = np.bincount(
        flat.pair, weights=hop_cost[flat.link], minlength=topo.n_nodes**2
    )
    pair_latency += router_pipeline + packet_flits - 1
    # A sequential left-to-right sum (not numpy's pairwise one) keeps the
    # traffic-weighted total bit-identical to the per-pair loop.
    weighted = np.cumsum(m.ravel() * pair_latency)[-1]
    return float(weighted / total)

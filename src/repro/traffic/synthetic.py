"""Synthetic statistical traffic (Soteriou et al.) and classic patterns.

The paper's design-space exploration drives every network with the
statistical traffic model of Soteriou, Wang and Peh (MASCOTS 2006),
parameterized by:

* ``p`` — per-hop flit acceptance probability, "captures the spatial hop
  distribution. Low p implies longer hops": the probability a flit's
  journey ends at each successive candidate node, i.e. hop distance is
  geometric with success probability ``p``, truncated to the mesh diameter
  and spread uniformly over the nodes at each distance;
* ``sigma`` — relative standard deviation of the per-node injection rates,
  which "follow a gaussian distribution; a larger value implies more nodes
  are injecting traffic".

The paper uses ``p = 0.02, sigma = 0.4`` with a maximum mean injection rate
of 0.1 flits/node/cycle.
"""

from __future__ import annotations

import numpy as np

from repro.topology.graph import Topology
from repro.traffic.matrix import TrafficMatrix
from repro.util.rng import SeedLike, ensure_rng

__all__ = [
    "soteriou_traffic",
    "uniform_traffic",
    "transpose_traffic",
    "bit_complement_traffic",
    "neighbor_traffic",
    "distance_matrix",
]


def distance_matrix(topo: Topology) -> np.ndarray:
    """Pairwise base-mesh Manhattan distances, shape (N, N)."""
    n = topo.n_nodes
    xs = np.arange(n) % topo.width
    ys = np.arange(n) // topo.width
    return np.abs(xs[:, None] - xs[None, :]) + np.abs(ys[:, None] - ys[None, :])


def _geometric_destination_weights(topo: Topology, p: float) -> np.ndarray:
    """P(dest | src) under the geometric hop-distance model, shape (N, N)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"acceptance probability p must be in (0, 1), got {p}")
    dist = distance_matrix(topo)
    weights = np.where(dist > 0, p * (1.0 - p) ** (dist - 1.0), 0.0)
    # At each distance d there are several candidate nodes; the geometric
    # "journey" terminates at ONE node of that ring, so the per-node weight
    # divides by the ring population.
    # counts[s, d]: nodes at distance d from s, tallied for every source
    # in one bincount over (source, distance) bins.
    n, rings = topo.n_nodes, int(dist.max()) + 1
    counts = np.bincount(
        (np.arange(n)[:, None] * rings + dist).ravel(), minlength=n * rings
    ).reshape(n, rings)
    ring_sizes = np.take_along_axis(counts, dist, axis=1).astype(np.float64)
    weights = np.divide(weights, ring_sizes, out=np.zeros_like(weights), where=ring_sizes > 0)
    row_sums = weights.sum(axis=1, keepdims=True)
    return weights / row_sums


def soteriou_traffic(
    topo: Topology,
    *,
    p: float = 0.02,
    sigma: float = 0.4,
    injection_rate: float = 0.1,
    seed: SeedLike = 0,
) -> TrafficMatrix:
    """Statistical traffic matrix in flits/cycle (Soteriou et al. model).

    Args:
        topo: target topology (for node geometry).
        p: flit acceptance probability; hop distance ~ Geometric(p),
            truncated at the mesh diameter.
        sigma: relative std-dev of per-node injection weights
            (Gaussian, clipped at zero).
        injection_rate: mean flits/node/cycle after scaling (paper max: 0.1).
        seed: RNG seed for the Gaussian injection weights.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    rng = ensure_rng(seed)
    n = topo.n_nodes
    dest_probs = _geometric_destination_weights(topo, p)
    weights = np.clip(rng.normal(1.0, sigma, size=n), 0.0, None)
    if weights.sum() == 0:  # pathological draw; retry deterministically
        weights = np.ones(n)
    matrix = weights[:, None] * dest_probs
    tm = TrafficMatrix(matrix, name=f"soteriou-p{p}-s{sigma}")
    return tm.scaled_to_injection_rate(injection_rate)


def uniform_traffic(topo: Topology, *, injection_rate: float = 0.1) -> TrafficMatrix:
    """Uniform-random traffic: every other node equally likely."""
    n = topo.n_nodes
    matrix = np.full((n, n), 1.0 / (n - 1))
    np.fill_diagonal(matrix, 0.0)
    tm = TrafficMatrix(matrix, name="uniform")
    return tm.scaled_to_injection_rate(injection_rate)


def transpose_traffic(topo: Topology, *, injection_rate: float = 0.1) -> TrafficMatrix:
    """Matrix-transpose traffic: (x, y) -> (y, x). Grid must be square."""
    if topo.width != topo.height:
        raise ValueError("transpose traffic needs a square grid")
    n = topo.n_nodes
    matrix = np.zeros((n, n))
    for s in range(n):
        x, y = topo.coords(s)
        d = topo.node_id(y, x)
        if d != s:
            matrix[s, d] = 1.0
    tm = TrafficMatrix(matrix, name="transpose")
    return tm.scaled_to_injection_rate(injection_rate)


def bit_complement_traffic(
    topo: Topology, *, injection_rate: float = 0.1
) -> TrafficMatrix:
    """Bit-complement traffic: node i -> node (N-1-i)."""
    n = topo.n_nodes
    matrix = np.zeros((n, n))
    for s in range(n):
        d = n - 1 - s
        if d != s:
            matrix[s, d] = 1.0
    tm = TrafficMatrix(matrix, name="bit-complement")
    return tm.scaled_to_injection_rate(injection_rate)


def neighbor_traffic(topo: Topology, *, injection_rate: float = 0.1) -> TrafficMatrix:
    """Nearest-neighbour traffic: uniform over the 2-4 mesh neighbours."""
    n = topo.n_nodes
    matrix = np.zeros((n, n))
    for s in range(n):
        x, y = topo.coords(s)
        neighbors = []
        if x > 0:
            neighbors.append(topo.node_id(x - 1, y))
        if x + 1 < topo.width:
            neighbors.append(topo.node_id(x + 1, y))
        if y > 0:
            neighbors.append(topo.node_id(x, y - 1))
        if y + 1 < topo.height:
            neighbors.append(topo.node_id(x, y + 1))
        for d in neighbors:
            matrix[s, d] = 1.0 / len(neighbors)
    tm = TrafficMatrix(matrix, name="neighbor")
    return tm.scaled_to_injection_rate(injection_rate)

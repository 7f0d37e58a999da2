"""Open-loop synthetic workloads for the cycle simulator.

Besides trace mode (the paper's Section IV), NoC evaluations classically
sweep an *open-loop* injection process: every node injects packets as a
Bernoulli process at a target rate, destinations drawn from a traffic
matrix. This module synthesizes such workloads as finite traces (with a
measurement window long enough for steady state) and provides the
latency-vs-offered-load sweep used to locate network saturation — the
regime the paper argues optical links are built for ("Optical links ...
typically show good performance at high injection rates").
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.simulation.simulator import SimConfig, Simulator
from repro.topology.graph import Topology
from repro.topology.routing import RoutingTable
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.trace import MAX_PACKET_FLITS, Trace
from repro.util.rng import SeedLike, ensure_rng

__all__ = ["synthetic_trace", "LoadPoint", "latency_throughput_sweep"]


def synthetic_trace(
    traffic: TrafficMatrix,
    *,
    injection_rate: float,
    cycles: int,
    packet_flits: int = 1,
    seed: SeedLike = 0,
    name: str | None = None,
) -> Trace:
    """Bernoulli open-loop injection trace.

    Each cycle, node ``s`` starts a new packet with probability
    ``injection_rate * weight_s / packet_flits`` (so the *flit* injection
    rate matches ``injection_rate``), destination drawn from the node's row
    of ``traffic``.

    Args:
        traffic: destination distribution (per-row weights; absolute scale
            sets relative per-node injection shares).
        injection_rate: mean flits/node/cycle (the paper's r).
        cycles: injection window length.
        packet_flits: packet size (1 or up to 32 to match the paper).
        seed: RNG seed.
        name: optional trace name.
    """
    if not 0 < injection_rate <= 1:
        raise ValueError(f"injection rate must be in (0, 1], got {injection_rate}")
    if cycles < 1:
        raise ValueError(f"need >= 1 cycle, got {cycles}")
    if not 1 <= packet_flits <= MAX_PACKET_FLITS:
        raise ValueError(
            f"packet size must be 1..{MAX_PACKET_FLITS}, got {packet_flits}"
        )
    rng = ensure_rng(seed)
    n = traffic.n_nodes
    tm = traffic.scaled_to_injection_rate(injection_rate)
    rates = tm.injection_rates() / packet_flits  # packets/node/cycle
    if (rates > 1.0).any():
        raise ValueError(
            "per-node packet rate exceeds 1/cycle; lower the injection rate"
        )
    row_sums = tm.matrix.sum(axis=1, keepdims=True)
    dest_probs = np.divide(
        tm.matrix, row_sums, out=np.zeros_like(tm.matrix), where=row_sums > 0
    )

    # Generator.choice(n, p=row) draws one rng.random() and bisects the
    # row's normalized cumulative sum (side="right"); doing the same with
    # bisect_right over that CDF keeps the random stream and skips
    # choice's per-call validation. Geometric inter-arrival sampling is
    # O(packets), not O(cycles).
    cdfs = dest_probs.cumsum(axis=1)
    last = cdfs[:, -1:]
    cdfs = np.divide(cdfs, last, out=cdfs, where=last > 0).tolist()
    geometric = rng.geometric
    uniform = rng.random
    times: list[int] = []
    dsts: list[int] = []
    per_source = [0] * n
    for s, rate in enumerate(rates.tolist()):
        if rate <= 0:
            continue
        p = min(1.0, rate)
        cdf = cdfs[s]
        first = len(times)
        t = geometric(p) - 1
        while t < cycles:
            # No self-draw filtering needed: TrafficMatrix enforces a zero
            # diagonal, so dest_probs[s][s] == 0 and every draw is a real
            # injection — the effective rate matches the requested one.
            times.append(t)
            dsts.append(bisect_right(cdf, uniform()))
            t += geometric(p)
        per_source[s] = len(times) - first
    return Trace.from_columns(
        n,
        times,
        np.repeat(np.arange(n), per_source),
        dsts,
        np.full(len(times), packet_flits),
        name=name or f"synthetic-r{injection_rate:g}-p{packet_flits}",
    )


@dataclass(frozen=True)
class LoadPoint:
    """One point of a latency-throughput sweep."""

    injection_rate: float
    avg_latency: float
    p99_latency: float
    drained: bool
    """False once the cycle budget is exhausted — past saturation."""


def latency_throughput_sweep(
    topo: Topology,
    traffic: TrafficMatrix,
    injection_rates: np.ndarray,
    *,
    cycles: int = 2000,
    packet_flits: int = 1,
    config: SimConfig = SimConfig(),
    routing: RoutingTable | None = None,
    seed: SeedLike = 0,
    drain_budget: int = 200_000,
) -> list[LoadPoint]:
    """Average latency vs offered load (the classic NoC saturation curve).

    Each rate gets an independent Bernoulli workload over ``cycles``
    injection cycles; the network then drains within ``drain_budget``
    cycles or the point is marked saturated (``drained=False``).
    """
    rates = np.asarray(injection_rates, dtype=np.float64)
    if rates.ndim != 1 or rates.size == 0:
        raise ValueError("injection_rates must be a non-empty 1-D array")
    rt = routing if routing is not None else RoutingTable(topo)
    sim = Simulator(topo, rt, config)
    points: list[LoadPoint] = []
    rng = ensure_rng(seed)
    for rate in rates:
        trace = synthetic_trace(
            traffic,
            injection_rate=float(rate),
            cycles=cycles,
            packet_flits=packet_flits,
            seed=rng,
        )
        stats = sim.run(trace, max_cycles=cycles + drain_budget)
        points.append(
            LoadPoint(
                injection_rate=float(rate),
                avg_latency=stats.avg_latency,
                p99_latency=stats.p99_latency,
                drained=stats.drained,
            )
        )
    return points

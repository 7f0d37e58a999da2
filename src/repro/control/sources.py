"""Closed-loop request/reply sources with outstanding-request windows.

The paper's sweeps are *open-loop*: every source injects a fixed offered
schedule no matter what the network does, so past saturation the source
queues grow without bound and every saturation result needs a full rate
sweep. Real endpoints are closed-loop — a client with ``W`` requests in
flight stalls until a reply comes back — which bounds the in-network
population at ``W x n_sources`` packets and makes the network *plateau*
at its capacity instead of jamming.

This module reinterprets any open-loop :class:`~repro.traffic.trace.Trace`
as **demand**: each record is a request the source *wants* to issue at its
recorded cycle. A :class:`ClosedLoopSession` releases demand subject to a
per-source credit window (at most :attr:`ClosedLoopConfig.window`
outstanding requests), generates a reply at the destination when a
request ejects (after :attr:`ClosedLoopConfig.think_cycles` of service
time), and returns the source's credit when the reply ejects — releasing
the next stalled request at ``max(demand_time, now)``. Because demand is
an ordinary trace, every registered workload model (Bernoulli, ON/OFF,
Pareto, mixes, ...) works closed-loop unchanged, and a session with
``window = infinity`` would reproduce the open-loop schedule exactly.

The session is driven by :meth:`repro.simulation.Simulator.run` through
two hooks (``begin`` once, ``on_delivered`` per ejected packet) and keeps
exact accounting: ``requests_issued == replies_delivered + outstanding``
holds at every instant, and per-source outstanding never exceeds the
window — the closed-loop conservation laws the property tests pin.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.simulation.flit import Packet
from repro.traffic.trace import MAX_PACKET_FLITS, Trace

__all__ = ["ClosedLoopConfig", "ClosedLoopSession", "ClosedLoopStats"]

_REQUEST = 0
_REPLY = 1


@dataclass(frozen=True)
class ClosedLoopConfig:
    """Credit semantics of one closed-loop run.

    ``window`` is the per-source outstanding-request cap (requests issued
    and not yet acknowledged by a delivered reply); ``think_cycles`` is
    the destination's service time before its reply is offered;
    ``reply_flits`` sizes the reply packets.
    """

    window: int = 4
    think_cycles: int = 0
    reply_flits: int = 1

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"outstanding window must be >= 1, got {self.window}")
        if self.think_cycles < 0:
            raise ValueError(
                f"think time must be >= 0 cycles, got {self.think_cycles}"
            )
        if not 1 <= self.reply_flits <= MAX_PACKET_FLITS:
            raise ValueError(
                f"reply size must be 1..{MAX_PACKET_FLITS} flits, "
                f"got {self.reply_flits}"
            )

    def to_json(self) -> dict[str, Any]:
        return {
            "window": self.window,
            "think_cycles": self.think_cycles,
            "reply_flits": self.reply_flits,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ClosedLoopConfig":
        return cls(**data)


@dataclass(frozen=True)
class ClosedLoopStats:
    """Final request/reply accounting of one closed-loop run.

    The conservation law ``requests_issued == replies_delivered +
    outstanding_at_end`` holds by construction; ``peak_outstanding``
    never exceeds the configured window. ``stalled_demand`` counts
    requests the sources still *wanted* to issue when the run ended
    (nonzero only for cycle-capped runs — a drained run has consumed all
    demand and retired every reply).
    """

    window: int
    think_cycles: int
    reply_flits: int
    demand_total: int
    requests_issued: int
    requests_delivered: int
    replies_issued: int
    replies_delivered: int
    outstanding_at_end: int
    peak_outstanding: int
    stalled_demand: int
    round_trip_sum: int
    """Sum over completed request/reply pairs of (reply ejection cycle -
    request release cycle)."""
    request_latencies: tuple[int, ...] = ()
    """Per-delivered-request network latency (ejection - injection
    cycle), in delivery order. Empty on records predating this field."""
    reply_latencies: tuple[int, ...] = ()
    """Per-delivered-reply network latency, in delivery order."""

    @property
    def completed(self) -> int:
        """Request/reply round trips fully retired."""
        return self.replies_delivered

    @property
    def mean_round_trip(self) -> float:
        """Mean request-release-to-reply-ejection latency, cycles."""
        if self.replies_delivered == 0:
            return float("nan")
        return self.round_trip_sum / self.replies_delivered

    def request_latency_percentile(self, q: float) -> float:
        """``q``-th percentile request network latency (nan if none)."""
        return _latency_percentile(self.request_latencies, q)

    def reply_latency_percentile(self, q: float) -> float:
        """``q``-th percentile reply network latency (nan if none)."""
        return _latency_percentile(self.reply_latencies, q)

    def to_json(self) -> dict[str, Any]:
        return {
            "window": self.window,
            "think_cycles": self.think_cycles,
            "reply_flits": self.reply_flits,
            "demand_total": self.demand_total,
            "requests_issued": self.requests_issued,
            "requests_delivered": self.requests_delivered,
            "replies_issued": self.replies_issued,
            "replies_delivered": self.replies_delivered,
            "outstanding_at_end": self.outstanding_at_end,
            "peak_outstanding": self.peak_outstanding,
            "stalled_demand": self.stalled_demand,
            "round_trip_sum": self.round_trip_sum,
            "request_latencies": list(self.request_latencies),
            "reply_latencies": list(self.reply_latencies),
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ClosedLoopStats":
        data = dict(data)
        data["request_latencies"] = tuple(data.get("request_latencies", ()))
        data["reply_latencies"] = tuple(data.get("reply_latencies", ()))
        return cls(**data)


def _latency_percentile(values: tuple[int, ...], q: float) -> float:
    """Linear-interpolation percentile matching ``np.percentile``."""
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.int64), q))


class ClosedLoopSession:
    """Windowed request/reply state machine the simulator drives.

    One session covers one run. The simulator calls :meth:`begin` once
    (releasing each source's first credit window of requests) and
    :meth:`on_delivered` for every ejected tail packet; both return new
    :class:`~repro.simulation.flit.Packet` records the simulator admits
    into its source queues. Packets the session did not create (open-loop
    background traffic sharing the run) are ignored.
    """

    def __init__(self, config: ClosedLoopConfig, demand: Trace) -> None:
        self.config = config
        self.n_nodes = demand.n_nodes
        self.demand_total = demand.n_packets
        # Per-source demand queues of packet indices into the demand
        # columns; a trace is (time, src, dst) sorted, so each queue is in
        # demand-time order.
        self._time = demand.time.tolist()
        self._dst = demand.dst.tolist()
        self._size = demand.size_flits.tolist()
        self._pending: list[deque[int]] = [deque() for _ in range(demand.n_nodes)]
        for i, src in enumerate(demand.src.tolist()):
            self._pending[src].append(i)
        self._outstanding = [0] * demand.n_nodes
        self._peak = 0
        # packet_id -> (role, source, request release cycle).
        self._roles: dict[int, tuple[int, int, int]] = {}
        self._next_id: int | None = None
        self.requests_issued = 0
        self.requests_delivered = 0
        self.replies_issued = 0
        self.replies_delivered = 0
        self.round_trip_sum = 0
        self._request_latencies: list[int] = []
        self._reply_latencies: list[int] = []

    @property
    def outstanding(self) -> list[int]:
        """Per-source in-flight request counts (issued, reply not seen)."""
        return list(self._outstanding)

    @property
    def peak_outstanding(self) -> int:
        """Largest per-source outstanding count observed so far."""
        return self._peak

    @property
    def idle(self) -> bool:
        """True when all demand is consumed and every reply retired."""
        return self.replies_delivered == self.requests_issued and not any(
            self._pending
        )

    def _issue_request(self, src: int, release_cycle: int) -> Packet:
        """Release ``src``'s next pending demand packet."""
        i = self._pending[src].popleft()
        pid = self._next_id
        self._next_id = pid + 1
        inject = max(self._time[i], release_cycle)
        self._roles[pid] = (_REQUEST, src, inject)
        self._outstanding[src] += 1
        if self._outstanding[src] > self._peak:
            self._peak = self._outstanding[src]
        self.requests_issued += 1
        return Packet(
            packet_id=pid,
            src=src,
            dst=self._dst[i],
            size_flits=self._size[i],
            inject_time=inject,
        )

    def begin(self, first_id: int, n_nodes: int) -> list[Packet]:
        """Release each source's first ``window`` requests; ids start at
        ``first_id`` (the simulator's count of open-loop trace packets)."""
        if n_nodes != self.n_nodes:
            raise ValueError(
                f"demand trace has {self.n_nodes} nodes, "
                f"simulation has {n_nodes}"
            )
        if self._next_id is not None:
            raise RuntimeError("closed-loop session already started")
        self._next_id = first_id
        window = self.config.window
        released: list[Packet] = []
        for src in range(self.n_nodes):
            while self._pending[src] and self._outstanding[src] < window:
                released.append(self._issue_request(src, 0))
        return released

    def on_delivered(self, packet: Packet, eject_cycle: int) -> list[Packet]:
        """React to one ejected packet; returns newly released packets.

        A delivered *request* spawns its reply at the destination after
        ``think_cycles``; a delivered *reply* retires the round trip and
        releases the source's next stalled request, if any.
        """
        role = self._roles.pop(packet.packet_id, None)
        if role is None:
            return []  # open-loop background packet: not ours
        kind, source, released_at = role
        if kind == _REQUEST:
            self.requests_delivered += 1
            self._request_latencies.append(eject_cycle - packet.inject_time)
            pid = self._next_id
            self._next_id = pid + 1
            self._roles[pid] = (_REPLY, source, released_at)
            self.replies_issued += 1
            return [
                Packet(
                    packet_id=pid,
                    src=packet.dst,
                    dst=source,
                    size_flits=self.config.reply_flits,
                    inject_time=eject_cycle + self.config.think_cycles,
                )
            ]
        self.replies_delivered += 1
        self._reply_latencies.append(eject_cycle - packet.inject_time)
        self.round_trip_sum += eject_cycle - released_at
        self._outstanding[source] -= 1
        if self._pending[source]:
            return [self._issue_request(source, eject_cycle)]
        return []

    def finalize(self, cycles: int) -> ClosedLoopStats:
        """Assemble the final accounting after the run loop."""
        del cycles  # symmetry with the other session finalizers
        return ClosedLoopStats(
            window=self.config.window,
            think_cycles=self.config.think_cycles,
            reply_flits=self.config.reply_flits,
            demand_total=self.demand_total,
            requests_issued=self.requests_issued,
            requests_delivered=self.requests_delivered,
            replies_issued=self.replies_issued,
            replies_delivered=self.replies_delivered,
            outstanding_at_end=self.requests_issued - self.replies_delivered,
            peak_outstanding=self._peak,
            stalled_demand=sum(len(q) for q in self._pending),
            round_trip_sum=self.round_trip_sum,
            request_latencies=tuple(self._request_latencies),
            reply_latencies=tuple(self._reply_latencies),
        )

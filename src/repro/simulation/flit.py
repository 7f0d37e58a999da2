"""Packet and flit primitives for the cycle-accurate simulator.

The simulator is flit-granular: a :class:`Packet` of ``size_flits`` flits
travels as a wormhole — head flit (index 0) allocates VCs, body flits
follow, the tail flit (index ``size_flits - 1``) releases them. These
records are the packet/flit vocabulary of the public API and of the
closed-loop session hooks (:mod:`repro.control.sources` releases
:class:`Packet` objects); inside a run the interpreter keeps per-packet
state in flat lists read from the trace's columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Packet", "Flit"]


@dataclass
class Packet:
    """One in-flight packet."""

    packet_id: int
    src: int
    dst: int
    size_flits: int
    inject_time: int
    """Cycle the packet entered its source queue."""
    eject_time: int = -1
    """Cycle the tail flit left the network (-1 while in flight)."""
    vc_class: int = 0
    """Dateline VC class for *row* (X-phase) links: 0 until the packet
    crosses a row express link, 1 afterwards. Express detour routes
    (Hops=15 behaves like a torus) create cyclic channel dependencies;
    partitioning VCs by dateline class breaks the cycle, the standard torus
    deadlock-avoidance scheme."""
    vc_class_y: int = 0
    """Dateline VC class for *column* (Y-phase) links; only full tori have
    column express (wrap) links. Tracked separately from the row class so a
    row-dateline crossing cannot leak restrictions into the column rings."""

    def __post_init__(self) -> None:
        if self.size_flits < 1:
            raise ValueError(f"packet needs >= 1 flit, got {self.size_flits}")
        if self.src == self.dst:
            raise ValueError(f"packet to self at node {self.src}")
        if self.inject_time < 0:
            raise ValueError(f"inject time must be >= 0, got {self.inject_time}")

    @property
    def latency(self) -> int:
        """Injection-to-tail-ejection latency, cycles.

        Raises:
            ValueError: if the packet has not been ejected yet.
        """
        if self.eject_time < 0:
            raise ValueError(f"packet {self.packet_id} still in flight")
        return self.eject_time - self.inject_time


@dataclass
class Flit:
    """One flit of a packet, as stored in VC buffers."""

    packet: Packet
    index: int
    ready_time: int = 0
    """Earliest cycle this flit may compete for switch allocation at its
    current router (arrival time + router pipeline)."""

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.packet.size_flits:
            raise ValueError(
                f"flit index {self.index} outside packet of "
                f"{self.packet.size_flits} flits"
            )

    @property
    def is_head(self) -> bool:
        """True for the packet's first flit (does VC allocation)."""
        return self.index == 0

    @property
    def is_tail(self) -> bool:
        """True for the packet's last flit (releases VCs)."""
        return self.index == self.packet.size_flits - 1

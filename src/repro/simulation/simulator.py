"""Cycle-accurate trace-driven NoC simulator (BookSim-2.0-class substrate).

Implements the microarchitecture of the paper's Table II on any
:class:`~repro.topology.graph.Topology`:

* wormhole switching with 4 virtual channels x 8-flit buffers per input
  port and credit-based backpressure;
* a 3-stage router pipeline, charged as a fixed delay between a flit's
  arrival and its eligibility for switch allocation;
* per-cycle round-robin VC allocation (head flits) and switch allocation
  (one flit per output port and per input port per cycle);
* link latencies of 1 cycle (electronic) / 2 cycles (optical, the extra
  cycle being the receiver's O-E conversion) — exactly the paper's values;
* deterministic oblivious X-Y + express routing shared with the analytical
  pipeline via :class:`~repro.topology.routing.RoutingTable`;
* trace mode: packets injected at their recorded cycles from unbounded
  source queues, as BookSim's trace mode does.

Simplifications relative to BookSim (documented, load-insensitive at the
paper's operating points): credits return instantly rather than after a
1-cycle credit delay, and the 3 pipeline stages are not individually
stallable — contention is resolved at the switch-allocation point.

Performance notes (per the HPC guides: measure, then optimize the loop that
matters — ``repro bench run --name simulator_run`` is the measurement): the
state of a run is a handful of flat Python lists over one
:class:`SlotLayout` — per input-VC slot a flit FIFO and the allocated route,
per output VC its credits and busy flag, per output port two round-robin
pointers, per packet its destination, size, injection cycle and dateline
classes (read straight from the trace's columns) — and the VC/switch
allocators and the credit protocol are inlined statements of one loop, not
method calls on per-router objects. The batched engine
(:mod:`repro.simulation.batch`) reads the same layout. Per cycle the loop
touches only VCs whose head flit has left the router pipeline (one
ready bitmask per router, set from per-cycle readiness buckets), minus the
heads parked on a credit-starved output port: a head whose VC request
fails while every VC of its class range has zero credits is not scanned
again until a credit return lifts one of that port's VCs from 0 to 1, and
the round-robin advances its skipped requests would have made are counted
arithmetically. Only sources with injection work are visited, so cost
scales with in-flight flits rather than network size; link flights are
per-cycle buckets too, statistics are plain-int counters converted to
numpy once at the end, and event-free stretches of the clock (nothing
buffered, parked heads included) are fast-forwarded. All of this is observably
identical to the straightforward loop — scan order, round-robin state and
link-arrival order are preserved bit-for-bit
(``tests/unit/test_simulator_golden.py`` and
``tests/unit/test_hooked_golden.py`` pin that).
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import insort
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.tech.parameters import Technology
from repro.topology.graph import LinkKind, Topology
from repro.topology.routing import RoutingTable
from repro.traffic.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (telemetry -> sim)
    from repro.control.controllers import ControlSession, ControlTrace
    from repro.control.sources import ClosedLoopSession, ClosedLoopStats
    from repro.obs.profile import PhaseProfile
    from repro.simulation.flit import Packet
    from repro.telemetry.sampler import TelemetryConfig, TelemetryTrace

__all__ = ["LOCAL_PORT", "SimConfig", "SimStats", "SlotLayout", "Simulator"]

#: Port key of the node-local injection/ejection port (link ids key the rest).
LOCAL_PORT = -1


@dataclass(frozen=True)
class SimConfig:
    """Simulator microarchitecture parameters (defaults: paper Table II)."""

    n_vcs: int = 4
    vc_depth: int = 8
    router_pipeline: int = 3
    electronic_link_cycles: int = 1
    optical_link_cycles: int = 2

    def __post_init__(self) -> None:
        if self.n_vcs < 1 or self.vc_depth < 1:
            raise ValueError(f"VC config must be >= 1: {self}")
        if self.router_pipeline < 1:
            raise ValueError(f"pipeline must be >= 1, got {self.router_pipeline}")
        if self.electronic_link_cycles < 1 or self.optical_link_cycles < 1:
            raise ValueError(f"link latencies must be >= 1: {self}")

    def link_cycles(self, technology: Technology) -> int:
        """Traversal cycles for a link of ``technology``."""
        if technology is Technology.ELECTRONIC:
            return self.electronic_link_cycles
        return self.optical_link_cycles


@dataclass
class SimStats:
    """Results of one simulation run."""

    n_packets: int
    n_flits: int
    cycles: int
    packet_latencies: np.ndarray
    """Per-packet injection-to-tail-ejection latency, cycles."""
    link_flit_counts: np.ndarray
    """Flit traversals per link (for energy accounting)."""
    router_flit_counts: np.ndarray
    """Flit traversals per router."""
    drained: bool
    """True if every injected packet was delivered before the cycle limit."""
    telemetry: "TelemetryTrace | None" = None
    """Windowed activity samples (only when the run requested telemetry)."""
    closed_loop: "ClosedLoopStats | None" = None
    """Request/reply accounting (only for closed-loop runs)."""
    control: "ControlTrace | None" = None
    """Recorded controller actions (only when a control session ran)."""

    @property
    def avg_latency(self) -> float:
        """Mean packet latency, cycles (the paper's Fig. 6 metric).

        ``nan`` when no packet was delivered (a fully saturated or empty
        run) so sweeps past saturation report rather than crash; check
        :attr:`drained` to distinguish saturation from success.
        """
        if self.packet_latencies.size == 0:
            return math.nan
        return float(self.packet_latencies.mean())

    @property
    def p99_latency(self) -> float:
        """99th-percentile packet latency, cycles (``nan`` if none
        delivered, as for :attr:`avg_latency`)."""
        if self.packet_latencies.size == 0:
            return math.nan
        return float(np.percentile(self.packet_latencies, 99))

    @property
    def avg_hops(self) -> float:
        """Mean link traversals per flit."""
        if self.n_flits == 0:
            return 0.0
        return float(self.link_flit_counts.sum() / self.n_flits)


class SlotLayout(NamedTuple):
    """Slot and output-port layout of one ``(topology, SimConfig)``.

    Input-VC *slots* are numbered router by router; within a router the
    order is the defined scan order of both engines: the LOCAL port first,
    then in-links in link-id order, times VC index. Every input port owns
    ``n_vcs`` consecutive slots, so a slot's input port is
    ``slot // n_vcs`` (``(slot - slot_lo[node]) // n_vcs`` within its
    router). *Output port* ``p < n_links`` is link ``p`` (the routing
    LUT's next-link id is the output port); port ``n_links + node`` is
    ``node``'s ejection sink. Output VC ``vc`` of port ``p`` is
    ``p * n_vcs + vc``.
    """

    slot_lo: list[int]
    """Per node, its first slot; ``slot_lo[n_nodes]`` is the slot count."""
    slot_up: list[int]
    """Per slot, the upstream output VC its pops credit (-1: LOCAL port)."""
    link_slot: list[int]
    """Per link, the destination router's slot for VC 0."""
    link_dst: list[int]
    link_cycles: list[int]
    link_express: list[bool]
    link_row: list[bool]
    """Row (X-phase) link, as opposed to a column (Y-phase) link."""
    port_vc_lo: tuple[list[int], list[int]]
    """Per dateline class, per output port: first allocatable VC."""
    port_vc_span: tuple[list[int], list[int]]
    """Per dateline class, per output port: allocatable VC count."""


class _Flit:
    """One buffered flit: flit ``index`` of packet ``pid``."""

    __slots__ = ("pid", "index", "ready_time")

    def __init__(self, pid: int, index: int, ready_time: int) -> None:
        self.pid = pid
        self.index = index
        self.ready_time = ready_time
        """Earliest cycle the flit may compete for switch allocation at
        its current router (arrival + router pipeline)."""


class _RunState(NamedTuple):
    """Mutable state of one run over a :class:`SlotLayout`."""

    fifos: list[deque[_Flit]]
    """Per slot, the buffered flits."""
    route: list[int]
    """Per slot, the output port allocated to its packet (-1: none)."""
    route_vc: list[int]
    """Per slot, the output VC (``port * n_vcs + vc``) allocated to its packet."""
    credits: list[int]
    """Per output VC, free slots in the downstream buffer."""
    busy: list[bool]
    """Per output VC, allocated to an in-flight packet."""
    vc_rr: list[int]
    """Per output port, the VC-allocation round-robin pointer."""
    sa_rr: list[int]
    """Per output port, the switch-allocation round-robin pointer."""


class Simulator:
    """Trace-driven cycle simulator over one topology."""

    def __init__(
        self,
        topo: Topology,
        routing: RoutingTable | None = None,
        config: SimConfig = SimConfig(),
    ) -> None:
        self.topology = topo
        self.routing = routing if routing is not None else RoutingTable(topo)
        if self.routing.topology is not topo:
            raise ValueError("routing table belongs to a different topology")
        self.config = config
        links = topo.links
        # Row (X-phase) vs column (Y-phase) links: torus-like dependency
        # cycles live within one dimension's line graphs, so the dateline
        # scheme partitions each dimension independently and only when that
        # dimension actually has express links.
        self._is_row_link = [
            topo.coords(l.src)[1] == topo.coords(l.dst)[1] for l in links
        ]
        express = [l.kind is LinkKind.EXPRESS for l in links]
        self._row_has_express = any(
            e and r for e, r in zip(express, self._is_row_link)
        )
        self._col_has_express = any(
            e and not r for e, r in zip(express, self._is_row_link)
        )

        v = config.n_vcs
        in_links: list[list[int]] = [[] for _ in range(topo.n_nodes)]
        for link in links:
            in_links[link.dst].append(link.link_id)
        slot_lo: list[int] = []
        slot_up: list[int] = []
        link_slot = [0] * topo.n_links
        for node in range(topo.n_nodes):
            slot_lo.append(len(slot_up))
            slot_up.extend([-1] * v)  # the LOCAL port
            for link_id in in_links[node]:
                link_slot[link_id] = len(slot_up)
                slot_up.extend(range(link_id * v, link_id * v + v))
        slot_lo.append(len(slot_up))
        ranges = [
            [self._vc_range(cls, key) or (0, v) for key in range(topo.n_links)]
            + [(0, v)] * topo.n_nodes
            for cls in (0, 1)
        ]
        self.layout = SlotLayout(
            slot_lo=slot_lo,
            slot_up=slot_up,
            link_slot=link_slot,
            link_dst=[l.dst for l in links],
            link_cycles=[config.link_cycles(l.technology) for l in links],
            link_express=express,
            link_row=self._is_row_link,
            port_vc_lo=tuple([lo for lo, _ in r] for r in ranges),
            port_vc_span=tuple([hi - lo for lo, hi in r] for r in ranges),
        )
        # The routing table's next-link LUT as one 1-D memoryview per
        # router: indexing a row by destination yields a plain int without
        # copying the n x n array.
        self._route_rows = [memoryview(row) for row in self.routing.route_lut]
        # Per slot, its router and its bit in that router's ready mask.
        self._slot_node = [
            node
            for node in range(topo.n_nodes)
            for _ in range(slot_lo[node], slot_lo[node + 1])
        ]
        self._slot_bit = [
            1 << (s - slot_lo[node]) for s, node in enumerate(self._slot_node)
        ]
        # Per dateline class and output port, the first allocatable
        # output VC; per output VC of a link, the downstream slot its
        # flits land in.
        self._vc_first = tuple(
            [p * v + lo for p, lo in enumerate(los)] for los in self.layout.port_vc_lo
        )
        self._vc_land = [link_slot[vc // v] + vc % v for vc in range(topo.n_links * v)]
        # Per link (output port), the router that scans its requests.
        self._port_owner = [l.src for l in links]

    def _fresh_state(self) -> _RunState:
        """Pristine run state (run() starts from a cold network)."""
        n_slots = self.layout.slot_lo[-1]
        n_ports = self.topology.n_links + self.topology.n_nodes
        n_out_vcs = n_ports * self.config.n_vcs
        return _RunState(
            fifos=[deque() for _ in range(n_slots)],
            route=[-1] * n_slots,
            route_vc=[0] * n_slots,
            credits=[self.config.vc_depth] * n_out_vcs,
            busy=[False] * n_out_vcs,
            vc_rr=[0] * n_ports,
            sa_rr=[0] * n_ports,
        )

    def _occupied(self, fifos: list[deque[_Flit]]) -> list[int]:
        """Per router, its input VCs holding flits (telemetry snapshots)."""
        lo = self.layout.slot_lo
        return [
            sum(1 for fifo in fifos[lo[node] : lo[node + 1]] if fifo)
            for node in range(self.topology.n_nodes)
        ]

    def _vc_range(self, vc_class: int, out_key: int) -> tuple[int, int] | None:
        """Dateline VC partition for a packet class (None = all VCs).

        Express shortest-path detours create torus-like cyclic channel
        dependencies, but each cycle lives entirely within one dimension's
        line graph (X-Y routing has no Y->X turns, so a row cycle cannot
        thread through column links and vice versa). Hence: links of a
        dimension that has express links are partitioned half/half by that
        dimension's dateline class; everything else (ejection, the other
        dimension) keeps all VCs. Plain meshes route monotonically and are
        never partitioned. With fewer than 2 VCs there is nothing to
        partition (accepted theoretical risk, as in BookSim's own torus
        configurations).
        """
        n = self.config.n_vcs
        if n < 2 or out_key == LOCAL_PORT:
            return None
        if self._is_row_link[out_key]:
            if not self._row_has_express:
                return None
        elif not self._col_has_express:
            return None
        half = n // 2
        return (0, half) if vc_class == 0 else (half, n)

    def run(
        self,
        trace: Trace,
        *,
        max_cycles: int = 2_000_000,
        telemetry: "TelemetryConfig | None" = None,
        closed_loop: "ClosedLoopSession | None" = None,
        control: "ControlSession | None" = None,
        profile: "PhaseProfile | None" = None,
    ) -> SimStats:
        """Simulate a trace until drained or ``max_cycles`` is reached.

        With ``telemetry`` set, windowed activity samples are collected
        (see :mod:`repro.telemetry.sampler`) and attached to the returned
        :attr:`SimStats.telemetry`. Sampling never changes simulation
        behaviour — all counters, schedules and round-robin state are
        identical with or without it — and costs O(network size) per
        *window*, not per cycle; disabled, it reduces to one integer
        comparison per cycle against an unreachable sentinel.

        ``closed_loop`` attaches a request/reply session
        (:class:`repro.control.ClosedLoopSession`): its demand packets are
        released subject to the per-source outstanding-request window, a
        delivered request generates a reply at the destination, and a
        delivered reply returns the source's credit. ``trace`` packets
        still inject open-loop alongside (pass an empty trace for a pure
        closed-loop run).

        ``control`` attaches an online controller session
        (:class:`repro.control.ControlSession`) observing the telemetry
        windows as they close and actuating the injection throttle gate
        and per-node injection-VC limits at window boundaries. Telemetry
        is implied (a session with the controller's window is created
        when ``telemetry`` is None; an explicit window must match).

        ``profile`` attaches an opt-in per-phase timer
        (:class:`repro.obs.profile.PhaseProfile`): chained
        ``perf_counter_ns`` timestamps charge each stretch of the cycle
        loop to its phase (arrivals / injection / vc_alloc /
        switch_alloc / drain), so the phase sum tracks the run's wall
        time. Profiling never touches simulation state — outputs stay
        bit-identical — and disabled it costs one ``is not None`` check
        per phase boundary.

        With everything disabled (the default), outputs are bit-identical
        to a plain run — the golden tests pin that.
        """
        if trace.n_nodes != self.topology.n_nodes:
            raise ValueError(
                f"trace has {trace.n_nodes} nodes, topology has "
                f"{self.topology.n_nodes}"
            )
        if max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
        prof = profile
        if prof is not None:
            prof.engine = "interpreter"
            _pns = time.perf_counter_ns
            _run_start = _pns()
            _ph_arr = _ph_inj = _ph_vc = _ph_sw = _ph_drain = 0
            _iters = _parked_scans = 0
        if control is not None and telemetry is None:
            from repro.telemetry.sampler import TelemetryConfig

            telemetry = TelemetryConfig(window=control.window)
        if telemetry is not None:
            from repro.telemetry.sampler import TelemetrySession

            if control is not None and control.window != telemetry.window:
                raise ValueError(
                    f"control window {control.window} != telemetry window "
                    f"{telemetry.window}; controllers act on the sampled grid"
                )
            session = TelemetrySession(
                telemetry,
                self.topology.n_nodes,
                self.topology.n_links,
                observer=None if control is None else control.observe,
            )
            telem_next = session.next_boundary
        else:
            session = None
            telem_next = max_cycles + 1  # unreachable sentinel: never flushes

        cfg = self.config
        pipeline = cfg.router_pipeline
        n_vcs = cfg.n_vcs
        vc_depth = cfg.vc_depth
        n_nodes = self.topology.n_nodes
        n_links = self.topology.n_links
        # Statistics as plain ints in the loop; one numpy conversion at the
        # end (per-element ndarray increments cost ~10x a list index).
        link_counts = [0] * n_links
        router_counts = [0] * n_nodes

        # Hot-loop locals: every name below is looked up once, not per cycle.
        lay = self.layout
        slot_lo = lay.slot_lo
        slot_up = lay.slot_up
        link_slot = lay.link_slot
        link_cycles = lay.link_cycles
        link_express = lay.link_express
        link_row = lay.link_row
        vc_first = self._vc_first
        vc_span = lay.port_vc_span
        slot_node = self._slot_node
        slot_bit = self._slot_bit
        route_rows = self._route_rows
        vc_land = self._vc_land
        port_owner = self._port_owner
        heappush = heapq.heappush
        heappop = heapq.heappop
        fifos, route, route_vc, credits, busy, vc_rr, sa_rr = self._fresh_state()
        # Readiness: bit i of ready_mask[node] is set while the router's
        # i-th slot holds a head flit that has left the router pipeline,
        # so the per-cycle scan walks only ready heads — ascending bit
        # order is the scan order. A flit that becomes a slot's head
        # before its ready cycle is entered in that cycle's bucket of
        # ready_at (cycle -> slots), which sets the bit when the cycle
        # arrives. input_slots[i] is the mask of the slots sharing the
        # router's i-th slot's input port (the switch allocator grants
        # one flit per input port).
        ready_mask = [0] * n_nodes
        ready_routers: set[int] = set()
        ready_at: defaultdict[int, list[int]] = defaultdict(list)
        input_slots = [
            ((1 << n_vcs) - 1) << (i - i % n_vcs)
            for i in range(max(b - a for a, b in zip(slot_lo, slot_lo[1:])))
        ]
        # Parking: a head whose VC request fails while every VC of its
        # class range has zero credits fails every cycle until a credit
        # return lifts one of that port's VCs from 0 to 1, so its bit
        # moves from ready_mask to parked[port] and the scan skips it
        # until such a return wakes it. Each skipped scan would still have
        # advanced vc_rr[port]: vc_rr[port] includes the parked heads'
        # requests through cycle park_sync[port], a live requester at
        # slot i adds the parked heads below i, and every change of the
        # parked set syncs the count first (DESIGN §3b).
        parked = [0] * n_links
        park_sync = [0] * n_links
        n_parked = 0

        # Per-packet state, indexed by packet id: trace packets in trace
        # order, then closed-loop packets in release order.
        p_time = trace.time.tolist()
        p_dst = trace.dst.tolist()
        p_size = trace.size_flits.tolist()
        n_packets = len(p_time)
        n_flits = trace.total_flits
        # Dateline VC classes for row and column links (see
        # Packet.vc_class), and the latency filled at ejection (-1: in
        # flight).
        cls_x = [0] * n_packets
        cls_y = [0] * n_packets
        lat_of = [-1] * n_packets
        # Per-source injection queues of packet ids: the trace is
        # (time, src, dst) sorted, so a stable split by source keeps each
        # queue in time order.
        by_src = np.argsort(trace.src, kind="stable")
        q_ends = np.cumsum(np.bincount(trace.src, minlength=n_nodes))
        source_queues: list[list[int]] = [
            q.tolist() for q in np.split(by_src, q_ends[:-1])
        ]
        session_packets: dict[int, Packet] = {}

        def add_packet(pkt: Packet) -> None:
            """Add a session-released packet (request or reply)."""
            nonlocal n_packets, n_flits
            if pkt.packet_id != n_packets:  # pragma: no cover - invariant
                raise RuntimeError("closed-loop packet ids must be sequential")
            n_packets += 1
            n_flits += pkt.size_flits
            p_time.append(pkt.inject_time)
            p_dst.append(pkt.dst)
            p_size.append(pkt.size_flits)
            cls_x.append(0)
            cls_y.append(0)
            lat_of.append(-1)
            session_packets[pkt.packet_id] = pkt

        if closed_loop is not None:
            # The session releases each source's first window of requests
            # up front; later releases arrive from the delivery hook.
            for pkt in closed_loop.begin(n_packets, n_nodes):
                add_packet(pkt)
                source_queues[pkt.src].append(pkt.packet_id)
            # Closed-loop releases interleave with any open-loop packets;
            # per-source queues must stay time-sorted (stable, so the
            # open-loop-only order is untouched).
            for q in source_queues:
                q.sort(key=p_time.__getitem__)
        # Per source: queue position, the packet whose flits it is
        # injecting (-1: none), that packet's next flit and its VC.
        src_pos = [0] * n_nodes
        pending_pid = [-1] * n_nodes
        pending_idx = [0] * n_nodes
        pending_vc = [0] * n_nodes

        # Injection wake-ups: (time, node) events to (re)activate sources.
        wakeups: list[tuple[int, int]] = sorted(
            (p_time[q[0]], n) for n, q in enumerate(source_queues) if q
        )
        inj_active: set[int] = set()

        def register_packet(pkt: Packet) -> None:
            """Admit a session-released packet mid-run."""
            add_packet(pkt)
            node = pkt.src
            # Keep the unconsumed queue suffix time-sorted: a release at
            # cycle t may precede an already-queued future injection.
            insort(
                source_queues[node],
                pkt.packet_id,
                lo=src_pos[node],
                key=p_time.__getitem__,
            )
            if node not in inj_active:
                heappush(wakeups, (pkt.inject_time, node))

        # Control actuator state (constants when no control session runs):
        # throttle_period gates *new-packet* starts to every Nth cycle,
        # vc_limits restricts the injection VCs usable per node.
        throttle_period = 1
        vc_limits: list[int] | None = None
        if control is not None:
            throttle_period = control.throttle_period
            vc_limits = control.vc_limits

        # Link pipeline: per arrival cycle, the (flit, destination slot)
        # pairs in send order.
        flight: defaultdict[int, list[tuple[_Flit, int]]] = defaultdict(list)
        n_flight = 0
        delivered = 0
        lat_sum = 0
        t = 0

        if prof is not None:
            _setup_done = _pns()

        while t < max_cycles:
            if prof is not None:
                _t = _pns()
                _iters += 1
            # ---- 1. link arrivals and readiness -------------------------------
            landing = flight.pop(t, None)
            if landing is not None:
                n_flight -= len(landing)
                ready = t + pipeline
                for flit, s in landing:
                    fifo = fifos[s]
                    if len(fifo) >= vc_depth:
                        raise OverflowError("VC buffer overflow: credit protocol violated")
                    flit.ready_time = ready
                    if not fifo:
                        ready_at[ready].append(s)
                    fifo.append(flit)
            due = ready_at.pop(t, None)
            if due is not None:
                for s in due:
                    node = slot_node[s]
                    ready_mask[node] |= slot_bit[s]
                    ready_routers.add(node)
            if prof is not None:
                _t2 = _pns()
                _ph_arr += _t2 - _t
                _t = _t2

            # ---- 2. injection -------------------------------------------------
            while wakeups and wakeups[0][0] <= t:
                inj_active.add(heappop(wakeups)[1])
            done_nodes: list[int] = []
            # Throttle gate: new packets may only *start* on admitted
            # cycles (period 1 == always, the untouched default); flits of
            # packets already mid-injection always continue.
            admit = throttle_period == 1 or t % throttle_period == 0
            for node in inj_active:
                base = slot_lo[node]  # the LOCAL port's VCs come first
                pid = pending_pid[node]
                queue = source_queues[node]
                pos = src_pos[node]
                if admit and pid < 0 and pos < len(queue) and p_time[queue[pos]] <= t:
                    # A new packet takes an idle injection VC (empty, no
                    # route), round-robin from the last one used; a control
                    # session's limit confines it to VCs 0..limit-1.
                    start = pending_vc[node]
                    usable = n_vcs
                    if vc_limits is not None and vc_limits[node] < n_vcs:
                        usable = vc_limits[node]
                    for i in range(usable):
                        vc_idx = (start + i) % usable
                        if not fifos[base + vc_idx] and route[base + vc_idx] < 0:
                            pending_vc[node] = vc_idx
                            pid = queue[pos]
                            pending_idx[node] = 0
                            src_pos[node] = pos = pos + 1
                            break
                if pid >= 0:
                    s = base + pending_vc[node]
                    fifo = fifos[s]
                    if len(fifo) < vc_depth:
                        ready = t + pipeline
                        if not fifo:
                            ready_at[ready].append(s)
                        index = pending_idx[node]
                        fifo.append(_Flit(pid, index, ready))
                        if index == p_size[pid] - 1:
                            pid = -1
                        else:
                            pending_idx[node] = index + 1
                    # else: stalled; the flit retries next cycle
                    pending_pid[node] = pid
                if pid < 0:
                    if pos >= len(queue):
                        done_nodes.append(node)
                    elif p_time[queue[pos]] > t:
                        heappush(wakeups, (p_time[queue[pos]], node))
                        done_nodes.append(node)
            for node in done_nodes:
                inj_active.discard(node)
            if prof is not None:
                _t2 = _pns()
                _ph_inj += _t2 - _t
                _t = _t2

            # ---- 3. allocation & traversal ----------------------------------
            # Routers are visited in ascending node order. This is the
            # *defined* scan semantics shared with the batched engine
            # (repro.simulation.batch): the only cross-router interaction
            # inside one cycle is the instant credit return below, so the
            # visit order is observable and must be pinned for the two
            # engines to agree bit-for-bit. A head still in the router
            # pipeline never had a side effect in the scan, so walking
            # only ready heads changes nothing observable; a parked head's
            # side effect is accounted arithmetically. A credit return that
            # wakes a higher-numbered router's parked heads inserts that
            # router into this cycle's visit order.
            visit = sorted(ready_routers)
            for node in visit:
                m = ready_mask[node]
                base = slot_lo[node]
                lut_row = route_rows[node]

                # VC allocation for ready head flits without a route; every
                # ready flit with a route and downstream space requests its
                # output port (requests: port -> mask of the router's slots).
                requests: dict[int, int] = {}
                while m:
                    low = m & -m
                    m ^= low
                    s = base + low.bit_length() - 1
                    port = route[s]
                    if port < 0:
                        head = fifos[s][0]
                        if head.index != 0:  # pragma: no cover - invariant
                            raise RuntimeError("body flit without VC allocation")
                        pid = head.pid
                        dst = p_dst[pid]
                        if node == dst:
                            port = n_links + node  # the ejection sink
                            out_vc = port * n_vcs
                        else:
                            port = lut_row[dst]
                            # Dateline promotion happens when *requesting*
                            # the VC behind an express link, so the express
                            # input buffer itself is already a class-1
                            # resource. Row and column datelines are
                            # independent.
                            if link_express[port]:
                                cls = 1
                            elif link_row[port]:
                                cls = cls_x[pid]
                            else:
                                cls = cls_y[pid]
                            k = vc_first[cls][port]
                            span = vc_span[cls][port]
                            rr = vc_rr[port]
                            pk = parked[port]
                            if pk:
                                # Sync the parked heads' requests through
                                # t - 1; this cycle's, from parked heads
                                # below this slot, come before this one.
                                c = (t - 1 - park_sync[port]) * pk.bit_count()
                                if c:
                                    rr += c
                                    park_sync[port] = t - 1
                                    if prof is not None:
                                        _parked_scans += c
                                vc_rr[port] = (rr + 1) % n_vcs
                                rr = (rr + (pk & (low - 1)).bit_count()) % n_vcs
                            else:
                                vc_rr[port] = (rr + 1) % n_vcs
                            for off in range(span):
                                out_vc = k + (rr + off) % span
                                if credits[out_vc] > 0 and not busy[out_vc]:
                                    busy[out_vc] = True
                                    break
                            else:
                                # Every VC busy or out of credits. With no
                                # credit in the class range, park: the
                                # parked account counts this cycle's
                                # request from here on, so undo its +1.
                                if not credits[k] and not any(credits[k : k + span]):
                                    vc_rr[port] = (vc_rr[port] - 1) % n_vcs
                                    park_sync[port] = t - 1
                                    parked[port] = pk | low
                                    ready_mask[node] ^= low
                                    n_parked += 1
                                    if prof is not None:
                                        _parked_scans -= 1
                                continue
                        route[s] = port
                        route_vc[s] = out_vc
                    elif credits[route_vc[s]] <= 0:
                        # No downstream space (an ejection sink never
                        # spends credits, so its counters stay full).
                        continue
                    requests[port] = requests.get(port, 0) | low
                if prof is not None:
                    _t2 = _pns()
                    _ph_vc += _t2 - _t
                    _t = _t2

                # Switch allocation: one flit per output, one per input
                # port; the pick is the (sa_rr % n)-th requesting slot.
                used = 0
                for port, cands in requests.items():
                    if used:
                        cands &= ~used
                        if not cands:
                            continue
                    n_cands = cands.bit_count()
                    pick = sa_rr[port] % n_cands
                    sa_rr[port] = (pick + 1) % n_cands
                    while pick:
                        cands &= cands - 1
                        pick -= 1
                    i = (cands & -cands).bit_length() - 1
                    used |= input_slots[i]
                    s = base + i
                    fifo = fifos[s]
                    flit = fifo.popleft()
                    if not fifo:
                        ready_mask[node] &= ~(1 << i)
                    elif fifo[0].ready_time > t + 1:
                        # The next flit becomes head still in the pipeline.
                        ready_mask[node] &= ~(1 << i)
                        ready_at[fifo[0].ready_time].append(s)
                    out_vc = route_vc[s]
                    pid = flit.pid
                    is_tail = flit.index == p_size[pid] - 1
                    if is_tail:
                        route[s] = -1  # the tail releases the route
                    router_counts[node] += 1
                    up = slot_up[s]
                    if up >= 0:
                        # Instant credit return to the upstream router.
                        cr = credits[up]
                        if cr >= vc_depth:
                            raise RuntimeError("credit overflow: flow-control bug")
                        credits[up] = cr + 1
                        if not cr:
                            up_port = up // n_vcs
                            pk = parked[up_port]
                            if pk:
                                # 0 -> 1: wake the port's parked heads. Their
                                # owner scans after this router in this cycle
                                # (sync through t - 1, visit it) or scanned
                                # them already (sync through t).
                                n_woken = pk.bit_count()
                                owner = port_owner[up_port]
                                now = t - 1 if node < owner else t
                                c = (now - park_sync[up_port]) * n_woken
                                vc_rr[up_port] = (vc_rr[up_port] + c) % n_vcs
                                if prof is not None:
                                    _parked_scans += c
                                parked[up_port] = 0
                                n_parked -= n_woken
                                ready_mask[owner] |= pk
                                if owner not in ready_routers:
                                    ready_routers.add(owner)
                                    if node < owner:
                                        insort(visit, owner)
                    if port >= n_links:  # ejection
                        if is_tail:
                            lat = t + 1 - p_time[pid]
                            lat_of[pid] = lat
                            lat_sum += lat
                            delivered += 1
                            if session_packets:
                                pkt = session_packets.pop(pid, None)
                                if pkt is not None:
                                    # A delivered request spawns its reply;
                                    # a delivered reply returns the
                                    # source's credit, releasing stalled
                                    # demand.
                                    pkt.eject_time = t + 1
                                    for new_pkt in closed_loop.on_delivered(
                                        pkt, t + 1
                                    ):
                                        register_packet(new_pkt)
                    else:
                        if credits[out_vc] <= 0:
                            raise RuntimeError("sent without credit: flow-control bug")
                        credits[out_vc] -= 1
                        if is_tail:
                            busy[out_vc] = False  # free for the next packet
                        link_counts[port] += 1
                        if link_express[port]:
                            # Dateline: express crossings promote the packet
                            # to VC class 1 within the crossed dimension.
                            if link_row[port]:
                                cls_x[pid] = 1
                            else:
                                cls_y[pid] = 1
                        flight[t + link_cycles[port]].append((flit, vc_land[out_vc]))
                        n_flight += 1
                if not ready_mask[node]:
                    ready_routers.discard(node)
                if prof is not None:
                    _t2 = _pns()
                    _ph_sw += _t2 - _t
                    _t = _t2

            # ---- 4. termination ------------------------------------------------
            t += 1
            if delivered == n_packets and not inj_active and not wakeups:
                if prof is not None:
                    _ph_drain += _pns() - _t
                break
            if not ready_routers and not ready_at and not inj_active and not n_parked:
                # Nothing buffered (a buffered head is ready, parked or due
                # in ready_at) and no source mid-packet: every cycle until
                # the next link arrival or injection wake-up is a no-op,
                # so fast-forward the clock to it (clamped to the budget).
                # Cycle accounting is unchanged — the skipped cycles would
                # have done exactly nothing.
                nxt = max_cycles
                if flight:
                    nxt = min(nxt, min(flight))
                if wakeups and wakeups[0][0] < nxt:
                    nxt = wakeups[0][0]
                if nxt > t:
                    t = nxt
            # ---- 5. telemetry flush (no-op sentinel when disabled) -----------
            if t >= telem_next:
                telem_next = session.flush_to(
                    t, router_counts, link_counts, self._occupied(fifos),
                    n_flight, delivered, lat_sum,
                )
                if control is not None:
                    # Controllers acted inside the flush (via the window
                    # observer); refresh the actuator locals they own.
                    throttle_period = control.throttle_period
                    vc_limits = control.vc_limits
            if prof is not None:
                _ph_drain += _pns() - _t

        if prof is not None:
            _final_start = _pns()
        # Heads still parked at the cycle cap: settle their requests
        # through the last cycle run, so vc_rr ends as a full scan leaves it.
        for port, pk in enumerate(parked):
            if pk:
                c = (t - 1 - park_sync[port]) * pk.bit_count()
                vc_rr[port] = (vc_rr[port] + c) % n_vcs
                if prof is not None:
                    _parked_scans += c
        latencies = np.asarray(lat_of, dtype=np.int64)
        latencies = latencies[latencies >= 0]
        telemetry_trace = None
        if session is not None:
            telemetry_trace = session.finalize(
                t, router_counts, link_counts, self._occupied(fifos), n_flight,
                delivered, lat_sum,
            )
        stats = SimStats(
            n_packets=n_packets,
            n_flits=n_flits,
            cycles=t,
            packet_latencies=latencies,
            link_flit_counts=np.asarray(link_counts, dtype=np.int64),
            router_flit_counts=np.asarray(router_counts, dtype=np.int64),
            drained=delivered == n_packets,
            telemetry=telemetry_trace,
            closed_loop=None if closed_loop is None else closed_loop.finalize(t),
            control=None if control is None else control.finalize(t),
        )
        if prof is not None:
            _end = _pns()
            prof.add("setup", _setup_done - _run_start)
            prof.add("arrivals", _ph_arr)
            prof.add("injection", _ph_inj)
            prof.add("vc_alloc", _ph_vc)
            prof.add("switch_alloc", _ph_sw)
            prof.add("drain", _ph_drain)
            prof.add("finalize", _end - _final_start)
            prof.total_ns += _end - _run_start
            prof.bump("loop_iterations", _iters)
            prof.bump("sim_cycles", t)
            prof.bump("parked_scans", _parked_scans)
        return stats

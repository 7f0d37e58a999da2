"""Batched, vectorized execution engine for the cycle simulator.

:class:`BatchSimulator` is the second execution engine next to the
reference interpreter (:class:`repro.simulation.simulator.Simulator`).
It evaluates a *batch* of independent runs — same topology and
:class:`~repro.simulation.simulator.SimConfig`, different traces — in
lockstep, holding all router state as flat numpy arrays and executing
the per-cycle hot loop as array operations instead of per-flit Python
dispatch.

Equivalence contract
--------------------

Both engines implement the same defined semantics: within one cycle,
routers perform allocation & traversal *sequentially in ascending node
order*, and a popped flit's credit returns to its upstream router
*instantly* (visible to routers not yet visited this cycle). The
interpreter realizes this literally (``for node in sorted(active)``);
this engine realizes it as a snapshot-credit vectorized pass plus an
exact fallback, and the two are **bit-identical** on every
:class:`~repro.simulation.simulator.SimStats` field — the golden
fixtures and the Hypothesis differential tests pin that.

How the vectorized pass stays exact:

* **Shared family state.** The interpreter's slot and output-port
  layout (:class:`~repro.simulation.simulator.SlotLayout`: slot order,
  upstream credit targets, dateline VC ranges, link tables) and the
  routing table's next-link LUT are turned into arrays once per
  (topology, config) *family* and shared by every run in every batch.
* **Batch lockstep.** Per-(run, router, port, VC) state lives in arrays
  of shape ``(B, slots)``; one pass over those arrays advances all runs
  by one cycle. Runs keep independent clocks (idle stretches are
  fast-forwarded per run) and retire independently.
* **Round-robin as rotated masks.** VC allocation rotates the free-VC
  mask of each output port by its round-robin pointer and takes the
  first set bit (argmax), reproducing the interpreter's scan order and
  tie-breaks exactly; same-cycle requesters of one output port are
  resolved in scan order by a short rank-loop. Switch allocation
  processes each router's output-port groups rank-by-rank in
  first-requester order with a segmented prefix-sum pick, so the
  interpreter's ``input_used`` filtering (a granted input port drops
  out of later candidate lists) is reproduced exactly in array ops.
* **Exactness guard.** One structure remains order-sensitive and rare:
  a cycle in which a credit return *enables* a later router (0 -> 1
  credits flowing to a higher-numbered node) falls back to a scalar
  replay of that run-cycle from pristine state. Drained
  (pre-saturation) sweep points measurably never hit this fallback,
  which is why the amortized sweep benchmark holds its speedup.

What stays interpreter-only: telemetry sampling, closed-loop sessions
and online controllers (their packet registration and window hooks are
inherently sequential); the experiment runner routes such scenarios to
the interpreter regardless of the requested engine.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.simulation.simulator import SimConfig, SimStats, Simulator
from repro.topology.graph import Topology
from repro.topology.routing import RoutingTable
from repro.traffic.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> sim)
    from repro.obs.profile import PhaseProfile

__all__ = ["BatchSimulator"]

_INF = np.int64(2**62)


class _Family:
    """Immutable per-(topology, config) tables shared by all batches."""

    def __init__(self, topo: Topology, routing: RoutingTable, cfg: SimConfig):
        # The interpreter's slot / output-port layout, as arrays: both
        # engines read one layout (see SlotLayout for the numbering).
        lay = Simulator(topo, routing, cfg).layout
        n, v = topo.n_nodes, cfg.n_vcs
        self.n_nodes = n
        self.n_vcs = v
        self.vc_depth = cfg.vc_depth
        self.pipeline = cfg.router_pipeline
        self.n_links = topo.n_links

        self.link_express = np.asarray(lay.link_express, dtype=bool)
        self.link_row = np.asarray(lay.link_row, dtype=bool)
        self.link_cyc = np.asarray(lay.link_cycles, dtype=np.int64)
        self.dest_slot = np.asarray(lay.link_slot, dtype=np.int64)

        self.slot_lo = np.asarray(lay.slot_lo, dtype=np.int64)
        self.n_slots = int(self.slot_lo[n])
        self.slot_router = np.repeat(np.arange(n), np.diff(self.slot_lo))
        self.slot_port = np.arange(self.n_slots) // v  # global input port
        self.n_ports = self.n_slots // v

        # Output port p < n_links is link p; n_links + node is the sink.
        self.n_ops = self.n_links + n
        self.op_sink = np.arange(self.n_ops) >= self.n_links
        self.vr_lo = np.asarray(lay.port_vc_lo, dtype=np.int64)
        self.vr_span = np.asarray(lay.port_vc_span, dtype=np.int64)

        # Per-slot upstream credit target (-1: LOCAL port).
        up = np.asarray(lay.slot_up, dtype=np.int64)
        self.up_oslot = up
        self.up_safe = np.where(up >= 0, up, 0)
        up_router = np.full(self.n_slots, -1, dtype=np.int64)
        has_up = up >= 0
        link_src = np.asarray([link.src for link in topo.links], dtype=np.int64)
        up_router[has_up] = link_src[up[has_up] // v]
        # Slots whose instant credit return could *enable* a later router
        # (upstream node numbered higher than this one) — the exactness
        # guard only has to inspect these.
        self.up_enab = up_router > self.slot_router

        # The routing table's dense next-link LUT, shared by every run.
        self.route_lut = routing.route_lut


class _BatchState:
    """Mutable per-batch state: (B, ...) arrays over the family layout."""

    def __init__(self, fam: _Family, traces: Sequence[Trace], caps: np.ndarray):
        b, s, d, n = len(traces), fam.n_slots, fam.vc_depth, fam.n_nodes
        v = fam.n_vcs
        self.caps = caps
        # Flat packet tables: run r owns global ids [pkt_lo[r], pkt_lo[r+1]).
        self.pkt_lo = np.zeros(b + 1, dtype=np.int64)
        src_l: list[np.ndarray] = []
        dst_l: list[np.ndarray] = []
        size_l: list[np.ndarray] = []
        time_l: list[np.ndarray] = []
        self.n_pkts = np.zeros(b, dtype=np.int64)
        self.n_flits = np.zeros(b, dtype=np.int64)
        for r, trace in enumerate(traces):
            cols = trace.columns()
            self.pkt_lo[r + 1] = self.pkt_lo[r] + cols["src"].size
            self.n_pkts[r] = cols["src"].size
            self.n_flits[r] = int(cols["size_flits"].sum())
            src_l.append(cols["src"])
            dst_l.append(cols["dst"])
            size_l.append(cols["size_flits"])
            time_l.append(cols["time"])
        self.p_src = _cat(src_l)
        self.p_dst = _cat(dst_l)
        self.p_size = _cat(size_l)
        self.p_time = _cat(time_l)
        total = int(self.pkt_lo[b])
        self.cls_x = np.zeros(total, dtype=np.int64)
        self.cls_y = np.zeros(total, dtype=np.int64)
        self.lat = np.full(total, -1, dtype=np.int64)

        # Per-(run, source) injection queues in trace order: a stable sort
        # by source groups each run's packet ids without reordering within
        # a source (the interpreter's per-source FIFO order).
        q_parts: list[np.ndarray] = []
        self.q_lo = np.zeros((b, n), dtype=np.int64)
        self.q_hi = np.zeros((b, n), dtype=np.int64)
        off = 0
        for r in range(b):
            lo, hi = int(self.pkt_lo[r]), int(self.pkt_lo[r + 1])
            src_r = self.p_src[lo:hi]
            q_parts.append(lo + np.argsort(src_r, kind="stable"))
            counts = np.bincount(src_r, minlength=n)
            ends = off + np.cumsum(counts)
            self.q_lo[r] = ends - counts
            self.q_hi[r] = ends
            off += hi - lo
        self.q_pkt = _cat(q_parts)
        self.src_pos = self.q_lo.copy()
        self.next_q_time = np.full((b, n), _INF, dtype=np.int64)
        has = self.q_lo < self.q_hi
        self.next_q_time[has] = self.p_time[self.q_pkt[self.q_lo[has]]]

        self.pend_pkt = np.full((b, n), -1, dtype=np.int64)
        self.pend_fidx = np.zeros((b, n), dtype=np.int64)
        self.pend_vc = np.zeros((b, n), dtype=np.int64)

        self.buf_pkt = np.zeros((b, s, d), dtype=np.int64)
        self.buf_fidx = np.zeros((b, s, d), dtype=np.int64)
        self.buf_ready = np.zeros((b, s, d), dtype=np.int64)
        self.buf_head = np.zeros((b, s), dtype=np.int64)
        self.buf_cnt = np.zeros((b, s), dtype=np.int64)
        self.vc_out_op = np.full((b, s), -1, dtype=np.int64)
        self.vc_out_vc = np.zeros((b, s), dtype=np.int64)

        self.credits = np.full((b, fam.n_ops * v), d, dtype=np.int64)
        self.busy = np.zeros((b, fam.n_ops * v), dtype=bool)
        self.vc_rr = np.zeros((b, fam.n_ops), dtype=np.int64)
        self.sa_rr = np.zeros((b, fam.n_ops), dtype=np.int64)

        self.link_counts = np.zeros((b, fam.n_links), dtype=np.int64)
        self.router_counts = np.zeros((b, n), dtype=np.int64)
        self.delivered = np.zeros(b, dtype=np.int64)
        self.t = np.zeros(b, dtype=np.int64)
        self.alive = np.ones(b, dtype=bool)
        self.cycles_out = np.zeros(b, dtype=np.int64)
        # Link pipeline: per run, arrival cycle -> list of (k, 4) row
        # chunks [dest slot, packet, flit index, ready time]; next_arr
        # caches each run's earliest key so the per-cycle check is one
        # array compare instead of a dict probe per run.
        self.arrivals: list[dict[int, list[np.ndarray]]] = [
            {} for _ in range(b)
        ]
        self.next_arr = np.full(b, _INF, dtype=np.int64)
        # Switch-allocation scratch: (run, input port) -> used this cycle.
        self.used_scratch = np.zeros(b * fam.n_ports, dtype=bool)
        # Opt-in phase profiler (set by run_batch; None = disabled).
        self.profile = None

    def push(self, b, s, pkt, fidx, ready) -> None:
        """Vectorized buffer push (targets are unique per cycle)."""
        if np.size(s) == 0:
            return
        d = self.buf_pkt.shape[2]
        pos = (self.buf_head[b, s] + self.buf_cnt[b, s]) % d
        self.buf_pkt[b, s, pos] = pkt
        self.buf_fidx[b, s, pos] = fidx
        self.buf_ready[b, s, pos] = ready
        self.buf_cnt[b, s] += 1
        if self.buf_cnt[b, s].max() > d:
            raise OverflowError("VC buffer overflow: credit protocol violated")


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    if not parts:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


class BatchSimulator:
    """Batched vectorized engine over one (topology, config) family.

    Construction turns the interpreter's layout into the family tables
    and borrows the routing table's LUT; :meth:`run_batch` then
    evaluates many traces through the shared state, and :meth:`run` is the
    drop-in single-run equivalent of
    :meth:`repro.simulation.Simulator.run` (same ``SimStats``,
    bit-for-bit).
    """

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
        self.family = _Family(topo, self.routing, config)

    # -- public API ----------------------------------------------------

    def run(
        self,
        trace: Trace,
        *,
        max_cycles: int = 2_000_000,
        profile: "PhaseProfile | None" = None,
    ) -> SimStats:
        """Simulate one trace (batch of one)."""
        return self.run_batch([trace], max_cycles=max_cycles, profile=profile)[0]

    def run_batch(
        self,
        traces: Sequence[Trace],
        *,
        max_cycles: int | Sequence[int] = 2_000_000,
        profile: "PhaseProfile | None" = None,
    ) -> list[SimStats]:
        """Simulate every trace; returns one ``SimStats`` per trace.

        ``max_cycles`` may be a single cap or one per trace. Runs are
        advanced in lockstep but terminate (and fast-forward idle
        stretches) independently, so mixing drained and capped runs in
        one batch is fine.

        ``profile`` attaches an opt-in per-phase timer
        (:class:`repro.obs.profile.PhaseProfile`); the lockstep phases
        are timed per iteration and the exactness-guard scalar replay
        is charged to its own ``scalar_replay`` phase, so the profile
        shows what fraction of the batched run fell back to sequential
        execution. Profiling never touches simulation state (outputs
        stay bit-identical); disabled it costs one ``is not None``
        check per phase boundary.
        """
        traces = list(traces)
        if not traces:
            return []
        for trace in traces:
            if trace.n_nodes != self.topology.n_nodes:
                raise ValueError(
                    f"trace has {trace.n_nodes} nodes, topology has "
                    f"{self.topology.n_nodes}"
                )
        if isinstance(max_cycles, int):
            caps = np.full(len(traces), max_cycles, dtype=np.int64)
        else:
            caps = np.asarray(list(max_cycles), dtype=np.int64)
            if caps.shape != (len(traces),):
                raise ValueError("need one max_cycles per trace")
        if (caps < 1).any():
            raise ValueError(f"max_cycles must be >= 1, got {caps.min()}")

        prof = profile
        if prof is not None:
            prof.engine = "batched"
            _pns = time.perf_counter_ns
            _run_start = _pns()
            _ph_arr = _ph_inj = _ph_alloc = _ph_clock = 0
            _iters = 0
            _run_cycles = 0

        fam = self.family
        st = _BatchState(fam, traces, caps)
        st.profile = prof
        if prof is not None:
            _setup_done = _pns()
        while st.alive.any():
            if prof is not None:
                _t = _pns()
                _iters += 1
                _run_cycles += int(st.alive.sum())
            self._phase_arrivals(st)
            if prof is not None:
                _t2 = _pns()
                _ph_arr += _t2 - _t
                _t = _t2
            self._phase_injection(st)
            if prof is not None:
                _t2 = _pns()
                _ph_inj += _t2 - _t
                _t = _t2
            self._phase_alloc_traversal(st)
            if prof is not None:
                _t2 = _pns()
                _ph_alloc += _t2 - _t
                _t = _t2
            self._advance_clock(st)
            if prof is not None:
                _ph_clock += _pns() - _t

        if prof is not None:
            _final_start = _pns()
        out: list[SimStats] = []
        for r, trace in enumerate(traces):
            lo, hi = int(st.pkt_lo[r]), int(st.pkt_lo[r + 1])
            lat = st.lat[lo:hi]
            out.append(
                SimStats(
                    n_packets=int(st.n_pkts[r]),
                    n_flits=int(st.n_flits[r]),
                    cycles=int(st.cycles_out[r]),
                    packet_latencies=lat[lat >= 0].copy(),
                    link_flit_counts=st.link_counts[r].copy(),
                    router_flit_counts=st.router_counts[r].copy(),
                    drained=bool(st.delivered[r] == st.n_pkts[r]),
                )
            )
        if prof is not None:
            _end = _pns()
            # The scalar-replay fallback timed itself inside the alloc
            # phase window; subtract so the two phases partition it.
            _scalar = prof.phases.get("scalar_replay", 0)
            prof.add("setup", _setup_done - _run_start)
            prof.add("arrivals", _ph_arr)
            prof.add("injection", _ph_inj)
            prof.add("alloc_traversal", _ph_alloc - _scalar)
            prof.add("scalar_replay", 0)  # ensure the phase always reports
            prof.add("clock", _ph_clock)
            prof.add("finalize", _end - _final_start)
            prof.total_ns += _end - _run_start
            prof.bump("lockstep_iterations", _iters)
            prof.bump("run_cycles", _run_cycles)
        return out

    # -- phase 1: link arrivals ---------------------------------------

    def _phase_arrivals(self, st: _BatchState) -> None:
        hits = np.nonzero(st.alive & (st.next_arr <= st.t))[0]
        if hits.size == 0:
            return
        parts: list[np.ndarray] = []
        bparts: list[np.ndarray] = []
        for b in hits:
            bi = int(b)
            chunks = st.arrivals[bi].pop(int(st.t[bi]))
            st.next_arr[bi] = min(st.arrivals[bi], default=_INF)
            rows = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            parts.append(rows)
            bparts.append(np.full(rows.shape[0], b, dtype=np.int64))
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
        bb = _cat(bparts)
        st.push(bb, rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3])

    # -- phase 2: injection -------------------------------------------

    def _phase_injection(self, st: _BatchState) -> None:
        fam = self.family
        v = fam.n_vcs
        t_col = st.t[:, None]
        live = st.alive[:, None]
        can_start = (
            live & (st.pend_pkt < 0) & (st.next_q_time <= t_col)
        )
        if can_start.any():
            bb, nn = np.nonzero(can_start)
            base = fam.slot_lo[nn]
            # Idle-VC scan (free_vc): rotate by the node's last-used VC
            # and take the first idle one.
            cols = (st.pend_vc[bb, nn][:, None] + np.arange(v)[None, :]) % v
            slots = base[:, None] + cols
            idle = (st.buf_cnt[bb[:, None], slots] == 0) & (
                st.vc_out_op[bb[:, None], slots] < 0
            )
            first = np.argmax(idle, axis=1)
            ok = idle[np.arange(bb.size), first]
            if ok.any():
                bb, nn, first = bb[ok], nn[ok], first[ok]
                vc = (st.pend_vc[bb, nn] + first) % v
                pos = st.src_pos[bb, nn]
                st.pend_pkt[bb, nn] = st.q_pkt[pos]
                st.pend_fidx[bb, nn] = 0
                st.pend_vc[bb, nn] = vc
                st.src_pos[bb, nn] = pos + 1
                nxt = pos + 1
                more = nxt < st.q_hi[bb, nn]
                tnew = np.full(bb.size, _INF, dtype=np.int64)
                tnew[more] = st.p_time[st.q_pkt[nxt[more]]]
                st.next_q_time[bb, nn] = tnew
        pend = live & (st.pend_pkt >= 0)
        if pend.any():
            pb, pn = np.nonzero(pend)
            tgt = fam.slot_lo[pn] + st.pend_vc[pb, pn]
            space = st.buf_cnt[pb, tgt] < fam.vc_depth
            pb, pn, tgt = pb[space], pn[space], tgt[space]
            pkt = st.pend_pkt[pb, pn]
            fidx = st.pend_fidx[pb, pn]
            st.push(pb, tgt, pkt, fidx, st.t[pb] + fam.pipeline)
            done = fidx == st.p_size[pkt] - 1
            st.pend_pkt[pb[done], pn[done]] = -1
            st.pend_fidx[pb[~done], pn[~done]] = fidx[~done] + 1

    # -- phase 3: allocation & traversal ------------------------------

    def _phase_alloc_traversal(self, st: _BatchState) -> None:
        fam = self.family
        v, n_ops = fam.n_vcs, fam.n_ops
        ob, os_ = np.nonzero((st.buf_cnt > 0) & st.alive[:, None])
        if ob.size == 0:
            return
        h = st.buf_head[ob, os_]
        ready = st.buf_ready[ob, os_, h] <= st.t[ob]
        rb, rs = ob[ready], os_[ready]
        if rb.size == 0:
            return
        h = h[ready]
        hp = st.buf_pkt[rb, rs, h]

        # Snapshot round-robin / busy state: the pass must be repeatable
        # from pristine state for runs that take the exact-replay path.
        tmp_vc_rr = st.vc_rr.reshape(-1).copy()
        tmp_sa = st.sa_rr.reshape(-1).copy()
        tmp_busy = st.busy.copy()

        req_op = st.vc_out_op[rb, rs].copy()
        req_vc = st.vc_out_vc[rb, rs].copy()
        need = req_op < 0
        alloc_rows = np.nonzero(need)[0]
        if alloc_rows.size:
            nb, ns, np_ = rb[alloc_rows], rs[alloc_rows], hp[alloc_rows]
            rtr = fam.slot_router[ns]
            dst = st.p_dst[np_]
            local = rtr == dst
            lnk = fam.route_lut[rtr, dst]
            safe = np.where(local, 0, lnk)
            opx = np.where(local, fam.n_links + rtr, lnk)
            cls = np.where(
                local,
                0,
                np.where(
                    fam.link_express[safe],
                    1,
                    np.where(
                        fam.link_row[safe], st.cls_x[np_], st.cls_y[np_]
                    ),
                ),
            )
            lo = fam.vr_lo[cls, opx]
            span = fam.vr_span[cls, opx]
            # Same-cycle requesters of one output port allocate in scan
            # order (slot order): resolve rank-by-rank, every group in
            # parallel.
            gkey = nb * n_ops + opx
            order = np.argsort(gkey * np.int64(fam.n_slots + 1) + ns)
            got_vc = np.full(alloc_rows.size, -1, dtype=np.int64)
            gk_s = gkey[order]
            idx = np.arange(order.size)
            newg = np.ones(order.size, dtype=bool)
            newg[1:] = gk_s[1:] != gk_s[:-1]
            rank_s = idx - np.maximum.accumulate(np.where(newg, idx, 0))
            # The round-robin pointer advances once per same-cycle
            # requester, win or lose, so row r's pointer is its group's
            # start pointer plus r's scan rank — no serialization needed.
            rank = np.empty(order.size, dtype=np.int64)
            rank[order] = rank_s
            rrnow = (tmp_vc_rr[gkey] + rank) % v
            starts = np.nonzero(newg)[0]
            sizes = np.diff(np.append(starts, order.size))
            gfirst = gk_s[starts]
            tmp_vc_rr[gfirst] = (tmp_vc_rr[gfirst] + sizes) % v
            sink = fam.op_sink[opx]
            got_vc[sink] = 0  # ejection ports never conflict
            ns_rows = np.nonzero(~sink)[0]
            if ns_rows.size:
                # Busy/credit scan windows for every non-sink row, built
                # once: column j of row r is VC index lo + (s0 + j) % span.
                # Only the busy mask couples requesters of one output
                # port, so the rank loop is a single masked argmax.
                b_k = nb[ns_rows]
                sp_k = span[ns_rows][:, None]
                s0 = (rrnow[ns_rows] % span[ns_rows])[:, None]
                i = np.arange(v)[None, :]
                vc_mat = lo[ns_rows][:, None] + (s0 + i) % sp_k
                op_base = opx[ns_rows] * v
                osl_mat = op_base[:, None] + vc_mat
                pre_ok = (i < sp_k) & (st.credits[b_k[:, None], osl_mat] > 0)
                rnk_ns = rank[ns_rows]
                rorder = np.argsort(rnk_ns, kind="stable")
                bounds = np.searchsorted(
                    rnk_ns[rorder], np.arange(int(rnk_ns.max()) + 2)
                )
                for k in range(bounds.size - 1):
                    sel = rorder[bounds[k] : bounds[k + 1]]
                    if sel.size == 0:
                        continue
                    osl_k = osl_mat[sel]
                    free = pre_ok[sel] & ~tmp_busy[b_k[sel][:, None], osl_k]
                    first = np.argmax(free, axis=1)
                    hit = free[np.arange(sel.size), first]
                    win = sel[hit]
                    vc_idx = vc_mat[win, first[hit]]
                    tmp_busy[b_k[win], op_base[win] + vc_idx] = True
                    got_vc[ns_rows[win]] = vc_idx
            okrows = got_vc >= 0
            req_op[alloc_rows[okrows]] = opx[okrows]
            req_vc[alloc_rows[okrows]] = got_vc[okrows]
            alloc_rows = alloc_rows[okrows]  # successful allocations

        # Request set: allocated + downstream space (can_send).
        have = req_op >= 0
        osl_all = req_op * v + req_vc
        can = have & (
            fam.op_sink[np.where(have, req_op, 0)]
            | (st.credits[rb, np.where(have, osl_all, 0)] > 0)
        )
        qrows = np.nonzero(can)[0]
        g = np.zeros(0, dtype=np.int64)
        if qrows.size:
            grants = self._switch_alloc(
                st, fam, rb[qrows], rs[qrows], req_op[qrows], tmp_sa
            )
            g = qrows[grants]

        # Exactness guard: a credit return that turns 0 credits into 1
        # at a *higher-numbered* router changes what that router would
        # have done — replay such runs scalar, in ascending node order,
        # from the untouched state.
        if g.size:
            gs_g = rs[g]
            en = fam.up_enab[gs_g] & (
                st.credits[rb[g], fam.up_safe[gs_g]] == 0
            )
        else:
            en = np.zeros(0, dtype=bool)
        if not en.any():
            # Common case: no run needs the sequential replay — adopt the
            # pass's round-robin state wholesale and commit.
            st.vc_rr = tmp_vc_rr.reshape(st.vc_rr.shape)
            st.sa_rr = tmp_sa.reshape(st.sa_rr.shape)
            st.busy = tmp_busy
            if alloc_rows.size:
                st.vc_out_op[rb[alloc_rows], rs[alloc_rows]] = req_op[
                    alloc_rows
                ]
                st.vc_out_vc[rb[alloc_rows], rs[alloc_rows]] = req_vc[
                    alloc_rows
                ]
            if g.size:
                self._commit_grants(
                    st, fam, rb[g], rs[g], req_op[g], req_vc[g], hp[g]
                )
            return

        flagged = np.zeros(st.alive.size, dtype=bool)
        flagged[np.unique(rb[g][en])] = True
        okrun = ~flagged
        st.vc_rr[okrun] = tmp_vc_rr.reshape(st.vc_rr.shape)[okrun]
        st.sa_rr[okrun] = tmp_sa.reshape(st.sa_rr.shape)[okrun]
        st.busy[okrun] = tmp_busy[okrun]
        if alloc_rows.size:
            ar = alloc_rows[okrun[rb[alloc_rows]]]
            st.vc_out_op[rb[ar], rs[ar]] = req_op[ar]
            st.vc_out_vc[rb[ar], rs[ar]] = req_vc[ar]
        gm = okrun[rb[g]]
        self._commit_grants(
            st, fam, rb[g][gm], rs[g][gm], req_op[g][gm], req_vc[g][gm],
            hp[g][gm],
        )
        replays = np.nonzero(flagged)[0]
        if st.profile is not None:
            _rt = time.perf_counter_ns()
        for b in replays:
            self._phase3_scalar(st, int(b))
        if st.profile is not None:
            st.profile.add("scalar_replay", time.perf_counter_ns() - _rt)
            st.profile.bump("scalar_replay_cycles", int(replays.size))

    def _switch_alloc(self, st, fam, qb, qs, qop, tmp_sa) -> np.ndarray:
        """Exact switch allocation over the request set.

        Groups requests by (run, output port); within a router, groups
        are processed in first-requester order (the interpreter's
        ``requests`` dict insertion order) rank by rank, so the
        ``input_used`` filtering — an input port granted by an earlier
        output port drops out of later candidate lists, changing both
        the pick index and the round-robin bump — is reproduced exactly.
        Rank 0 (each router's first output port) sees no filtering and
        takes a direct pick. Returns granted row indices into ``q*``.
        """
        n_ops, n_ports, stride = fam.n_ops, fam.n_ports, fam.n_slots + 1
        gkey = qb * n_ops + qop
        order2 = np.argsort(gkey * stride + qs)
        gk_s = gkey[order2]
        newg = np.ones(order2.size, dtype=bool)
        newg[1:] = gk_s[1:] != gk_s[:-1]
        starts = np.nonzero(newg)[0]
        sizes = np.diff(np.append(starts, order2.size))
        gkeys = gk_s[starts]
        first_slot = qs[order2[starts]]
        rkey = (gkeys // n_ops) * fam.n_nodes + fam.slot_router[first_slot]
        gorder = np.argsort(rkey * stride + first_slot)
        rk_s = rkey[gorder]
        gnew = np.ones(gorder.size, dtype=bool)
        gnew[1:] = rk_s[1:] != rk_s[:-1]
        gi = np.arange(gorder.size)
        grank = gi - np.maximum.accumulate(np.where(gnew, gi, 0))
        max_rank = int(grank.max())

        used = st.used_scratch
        pkey2 = qb[order2] * n_ports + fam.slot_port[qs[order2]]
        out: list[np.ndarray] = []
        for k in range(max_rank + 1):
            sel = gorder[grank == k]
            s_k, z_k = starts[sel], sizes[sel]
            if k == 0:
                pick = tmp_sa[gkeys[sel]] % z_k
                tmp_sa[gkeys[sel]] = (pick + 1) % z_k
                winpos = s_k + pick
            else:
                total = int(z_k.sum())
                offs = np.cumsum(z_k) - z_k
                rows = np.repeat(s_k - offs, z_k) + np.arange(total)
                avail = (~used[pkey2[rows]]).astype(np.int64)
                cnt = np.add.reduceat(avail, offs)
                pre = np.cumsum(avail) - avail
                seg_ex = pre - np.repeat(pre[offs], z_k)
                have = cnt > 0
                pick = tmp_sa[gkeys[sel]] % np.maximum(cnt, 1)
                hk = gkeys[sel][have]
                tmp_sa[hk] = (pick[have] + 1) % cnt[have]
                winpos = rows[
                    (avail > 0) & (seg_ex == np.repeat(pick, z_k))
                ]
            used[pkey2[winpos]] = True
            out.append(order2[winpos])
        grants = _cat(out)
        used[qb[grants] * n_ports + fam.slot_port[qs[grants]]] = False
        return grants

    def _commit_grants(self, st, fam, gb, gs, gop, gvc, gp) -> None:
        """Apply one cycle's granted flit movements (vectorized runs)."""
        if gb.size == 0:
            return
        v, d = fam.n_vcs, fam.vc_depth
        gf = st.buf_fidx[gb, gs, st.buf_head[gb, gs]]
        tail = gf == st.p_size[gp] - 1
        st.buf_head[gb, gs] = (st.buf_head[gb, gs] + 1) % d
        st.buf_cnt[gb, gs] -= 1
        st.vc_out_op[gb[tail], gs[tail]] = -1
        np.add.at(st.router_counts, (gb, fam.slot_router[gs]), 1)
        sink = fam.op_sink[gop]
        osl = gop * v + gvc
        ns = ~sink
        np.add.at(st.credits, (gb[ns], osl[ns]), -1)
        rel = ns & tail
        st.busy[gb[rel], osl[rel]] = False
        ret = fam.up_oslot[gs] >= 0
        np.add.at(st.credits, (gb[ret], fam.up_oslot[gs[ret]]), 1)
        ej = sink & tail
        if ej.any():
            pid = gp[ej]
            st.lat[pid] = st.t[gb[ej]] + 1 - st.p_time[pid]
            np.add.at(st.delivered, gb[ej], 1)
        if ns.any():
            sb, sp_, svc = gb[ns], gp[ns], gvc[ns]
            lnk = gop[ns]
            np.add.at(st.link_counts, (sb, lnk), 1)
            exp = fam.link_express[lnk]
            if exp.any():
                row = fam.link_row[lnk]
                st.cls_x[sp_[exp & row]] = 1
                st.cls_y[sp_[exp & ~row]] = 1
            arr = st.t[sb] + fam.link_cyc[lnk]
            rows = np.stack(
                [
                    fam.dest_slot[lnk] + svc,
                    sp_,
                    gf[ns],
                    arr + fam.pipeline,
                ],
                axis=1,
            )
            order = np.argsort(sb * np.int64(2**32) + arr)
            sb_s, arr_s = sb[order], arr[order]
            bnd = (
                np.nonzero(
                    (sb_s[1:] != sb_s[:-1]) | (arr_s[1:] != arr_s[:-1])
                )[0]
                + 1
            )
            starts = np.concatenate(([0], bnd, [order.size]))
            for i in range(starts.size - 1):
                s0, s1 = int(starts[i]), int(starts[i + 1])
                bi, at = int(sb_s[s0]), int(arr_s[s0])
                st.arrivals[bi].setdefault(at, []).append(
                    rows[order[s0:s1]]
                )
                if at < st.next_arr[bi]:
                    st.next_arr[bi] = at

    def _phase3_scalar(self, st: _BatchState, b: int) -> None:
        """Exact sequential replay of one run-cycle (ascending routers).

        The rare path: taken only when a same-cycle credit return
        enables a higher-numbered router. Mirrors the interpreter's
        phase-3 loop statement by statement over the flat arrays.
        """
        fam = self.family
        occ = np.nonzero(st.buf_cnt[b])[0]
        routers = fam.slot_router[occ]
        start = 0
        while start < occ.size:
            end = start
            r = routers[start]
            while end < occ.size and routers[end] == r:
                end += 1
            self._router_scalar(st, b, occ[start:end])
            start = end

    def _router_scalar(self, st: _BatchState, b: int, slots) -> None:
        fam = self.family
        v = fam.n_vcs
        tb = int(st.t[b])
        requests: dict[int, list[int]] = {}
        for s in map(int, slots):
            h = int(st.buf_head[b, s])
            if st.buf_ready[b, s, h] > tb:
                continue
            pkt = int(st.buf_pkt[b, s, h])
            op = int(st.vc_out_op[b, s])
            if op < 0:
                rtr = int(fam.slot_router[s])
                dst = int(st.p_dst[pkt])
                if rtr == dst:
                    op_t = fam.n_links + rtr
                else:
                    op_t = int(fam.route_lut[rtr, dst])
                rr = int(st.vc_rr[b, op_t])
                st.vc_rr[b, op_t] = (rr + 1) % v
                if fam.op_sink[op_t]:
                    got = 0
                else:
                    if fam.link_express[op_t]:
                        cls = 1
                    elif fam.link_row[op_t]:
                        cls = int(st.cls_x[pkt])
                    else:
                        cls = int(st.cls_y[pkt])
                    lo = int(fam.vr_lo[cls, op_t])
                    span = int(fam.vr_span[cls, op_t])
                    got = -1
                    base = op_t * v
                    for i in range(span):
                        idx = lo + (rr + i) % span
                        if not st.busy[b, base + idx] and (
                            st.credits[b, base + idx] > 0
                        ):
                            st.busy[b, base + idx] = True
                            got = idx
                            break
                    if got < 0:
                        continue
                st.vc_out_op[b, s] = op_t
                st.vc_out_vc[b, s] = got
                op = op_t
            ovc = int(st.vc_out_vc[b, s])
            if fam.op_sink[op] or st.credits[b, op * v + ovc] > 0:
                requests.setdefault(op, []).append(s)

        input_used: set[int] = set()
        for op, cands in requests.items():
            cands = [
                s for s in cands if int(fam.slot_port[s]) not in input_used
            ]
            if not cands:
                continue
            pick = int(st.sa_rr[b, op]) % len(cands)
            s = cands[pick]
            st.sa_rr[b, op] = (pick + 1) % len(cands)
            input_used.add(int(fam.slot_port[s]))
            h = int(st.buf_head[b, s])
            pkt = int(st.buf_pkt[b, s, h])
            fidx = int(st.buf_fidx[b, s, h])
            st.buf_head[b, s] = (h + 1) % fam.vc_depth
            st.buf_cnt[b, s] -= 1
            tail = fidx == int(st.p_size[pkt]) - 1
            ovc = int(st.vc_out_vc[b, s])
            if tail:
                st.vc_out_op[b, s] = -1
            st.router_counts[b, fam.slot_router[s]] += 1
            osl = op * v + ovc
            if not fam.op_sink[op]:
                st.credits[b, osl] -= 1
                if tail:
                    st.busy[b, osl] = False
            up = int(fam.up_oslot[s])
            if up >= 0:
                st.credits[b, up] += 1
            if fam.op_sink[op]:
                if tail:
                    st.lat[pkt] = tb + 1 - int(st.p_time[pkt])
                    st.delivered[b] += 1
            else:
                st.link_counts[b, op] += 1
                if fam.link_express[op]:
                    if fam.link_row[op]:
                        st.cls_x[pkt] = 1
                    else:
                        st.cls_y[pkt] = 1
                arr = tb + int(fam.link_cyc[op])
                row = np.asarray(
                    [[int(fam.dest_slot[op]) + ovc, pkt, fidx,
                      arr + fam.pipeline]],
                    dtype=np.int64,
                )
                st.arrivals[b].setdefault(arr, []).append(row)
                if arr < st.next_arr[b]:
                    st.next_arr[b] = arr

    # -- phase 4: clock, termination, fast-forward --------------------

    def _advance_clock(self, st: _BatchState) -> None:
        alive = st.alive
        st.t[alive] += 1
        no_pend = ~(st.pend_pkt >= 0).any(axis=1)
        exhausted = (st.src_pos >= st.q_hi).all(axis=1)
        done = (
            alive & (st.delivered == st.n_pkts) & no_pend & exhausted
        )
        if done.any():
            st.alive[done] = False
            st.cycles_out[done] = st.t[done]
        min_nq = st.next_q_time.min(axis=1)
        idle = (
            st.alive
            & no_pend
            & ~(st.buf_cnt > 0).any(axis=1)
            & (min_nq >= st.t)
        )
        for bi in map(int, np.nonzero(idle)[0]):
            # Idle run: every cycle until the next link arrival or
            # injection release is a no-op; jump the clock there.
            nxt = min(int(st.caps[bi]), int(st.next_arr[bi]), int(min_nq[bi]))
            if nxt > st.t[bi]:
                st.t[bi] = nxt
        capped = st.alive & (st.t >= st.caps)
        if capped.any():
            st.alive[capped] = False
            st.cycles_out[capped] = st.t[capped]

"""Tests for the cycle-accurate NoC simulator."""

import sys
import time

import numpy as np
import pytest

from repro.simulation import (
    Flit,
    Packet,
    SimConfig,
    Simulator,
    sim_dynamic_energy_j,
)
from repro.tech import Technology
from repro.topology import RoutingTable, build_express_mesh, build_mesh
from repro.traffic import PacketRecord, Trace


@pytest.fixture(scope="module")
def mesh():
    return build_mesh()


@pytest.fixture(scope="module")
def e3():
    return build_express_mesh(hops=3, express_technology=Technology.HYPPI)


def single(src, dst, size=1, time=0, n=256):
    return Trace(n, [PacketRecord(time, src, dst, size)])


class _PhantomCredit(int):
    """A corrupt credit count: VC allocation sees a free slot, the send
    sees none."""

    def __gt__(self, other):
        return True

    def __le__(self, other):
        return True


def _run_states(monkeypatch, sim, corrupt=None):
    """Record (after ``corrupt``) the state each ``sim.run`` starts from;
    the run mutates it in place, so it ends as the run's final state."""
    states = []
    fresh = sim._fresh_state

    def hooked():
        state = fresh()
        if corrupt is not None:
            corrupt(state)
        states.append(state)
        return state

    monkeypatch.setattr(sim, "_fresh_state", hooked)
    return states


@pytest.fixture
def drained_wormhole_run(e3, monkeypatch):
    """(stats, final run state) of a drained multi-flit express run."""
    sim = Simulator(e3)
    states = _run_states(monkeypatch, sim)
    rng = np.random.default_rng(3)
    records = []
    for _ in range(300):
        s, d = rng.choice(256, size=2, replace=False)
        records.append(PacketRecord(int(rng.integers(0, 100)), int(s), int(d), 4))
    return sim.run(Trace(256, records)), states[0]


class TestPrimitives:
    def test_packet_latency_requires_ejection(self):
        p = Packet(0, 0, 1, 1, 0)
        with pytest.raises(ValueError):
            _ = p.latency
        p.eject_time = 10
        assert p.latency == 10

    def test_flit_head_tail(self):
        p = Packet(0, 0, 1, 3, 0)
        assert Flit(p, 0).is_head and not Flit(p, 0).is_tail
        assert Flit(p, 2).is_tail and not Flit(p, 2).is_head

    def test_flit_index_bounds(self):
        p = Packet(0, 0, 1, 2, 0)
        with pytest.raises(ValueError):
            Flit(p, 2)

    # The router's flow-control rules live inside Simulator.run; these
    # check them through a run, reading or corrupting the state that
    # run builds with Simulator._fresh_state.

    def test_vc_overflow_is_fatal(self, mesh, monkeypatch):
        # The first flit over link 0->1 lands in a VC that is already full.
        sim = Simulator(mesh)
        link = int(sim.routing.route_lut[0, 1])
        depth = sim.config.vc_depth

        def fill(state):
            stale = Packet(0, 0, 1, depth, 0)
            state.fifos[sim.layout.link_slot[link]].extend(
                Flit(stale, i) for i in range(depth)
            )

        _run_states(monkeypatch, sim, fill)
        with pytest.raises(OverflowError, match="VC buffer overflow"):
            sim.run(single(0, 1))

    def test_vc_tail_releases_allocation(self, drained_wormhole_run):
        # Body flits keep the head's route (a lost one raises "body flit
        # without VC allocation"); every tail released it.
        stats, state = drained_wormhole_run
        assert stats.drained and stats.n_flits > stats.n_packets
        assert state.route == [-1] * len(state.route)
        assert not any(state.fifos)

    def test_output_port_credits(self, drained_wormhole_run):
        # Every credit a send consumed came back when the flit moved on,
        # and every tail freed the downstream VC it held.
        stats, state = drained_wormhole_run
        assert stats.link_flit_counts.sum() > 0
        assert state.credits == [SimConfig().vc_depth] * len(state.credits)
        assert not any(state.busy)

    def test_credit_overflow_detected(self, mesh, monkeypatch):
        # Upstream counters start one above the buffer depth, so the first
        # credit returned by a pop at router 1 overflows.
        sim = Simulator(mesh)

        def inflate(state):
            state.credits[:] = [sim.config.vc_depth + 1] * len(state.credits)

        _run_states(monkeypatch, sim, inflate)
        with pytest.raises(RuntimeError, match="credit overflow"):
            sim.run(single(0, 2))

    def test_send_without_credit_detected(self, mesh, monkeypatch):
        sim = Simulator(mesh)

        def corrupt(state):
            state.credits[:] = [_PhantomCredit()] * len(state.credits)

        _run_states(monkeypatch, sim, corrupt)
        with pytest.raises(RuntimeError, match="sent without credit"):
            sim.run(single(0, 1))

    def test_sink_port_never_blocks(self, mesh, monkeypatch):
        # A 32-flit packet (4x a VC's depth) ejects at one flit per cycle,
        # and the ejection sink's credit counters never move.
        sim = Simulator(mesh)
        states = _run_states(monkeypatch, sim)
        one = sim.run(single(0, 1)).packet_latencies[0]
        big = sim.run(single(0, 1, size=32)).packet_latencies[0]
        assert big == one + 31
        n_vcs, depth = sim.config.n_vcs, sim.config.vc_depth
        sink_vcs = states[-1].credits[mesh.n_links * n_vcs :]
        assert sink_vcs == [depth] * (mesh.n_nodes * n_vcs)


class TestZeroLoadLatency:
    def test_one_hop(self, mesh):
        st = Simulator(mesh).run(single(0, 1))
        # 1 hop: pipeline(3) + link(1) + pipeline(3) + eject(1) = 8.
        assert st.packet_latencies[0] == 8

    def test_three_hops(self, mesh):
        st = Simulator(mesh).run(single(0, 3))
        assert st.packet_latencies[0] == 16

    def test_express_link_two_cycles(self, e3):
        st = Simulator(e3).run(single(0, 3))
        # One optical express hop: 3 + 2 + 3 + 1 = 9.
        assert st.packet_latencies[0] == 9

    def test_corner_to_corner_express_beats_mesh(self, mesh, e3):
        lat_mesh = Simulator(mesh).run(single(0, 255)).packet_latencies[0]
        lat_e3 = Simulator(e3).run(single(0, 255)).packet_latencies[0]
        assert lat_e3 < lat_mesh

    def test_serialization_32_flits(self, mesh):
        one = Simulator(mesh).run(single(0, 3, size=1)).packet_latencies[0]
        big = Simulator(mesh).run(single(0, 3, size=32)).packet_latencies[0]
        assert big == one + 31

    def test_matches_analytical_plus_one(self, mesh):
        # The simulator ejects at t+1, so zero-load sim latency equals the
        # analytical path latency + 1.
        from repro.analysis import path_latency_cycles

        rt = RoutingTable(mesh)
        for dst in (1, 17, 255):
            sim = Simulator(mesh).run(single(0, dst)).packet_latencies[0]
            ana = path_latency_cycles(mesh, 0, dst, rt)
            assert sim == ana + 1


class TestDelivery:
    def test_all_packets_delivered(self, mesh):
        rng = np.random.default_rng(0)
        records = []
        for i in range(500):
            s, d = rng.choice(256, size=2, replace=False)
            records.append(PacketRecord(int(rng.integers(0, 200)), int(s), int(d), 1))
        st = Simulator(mesh).run(Trace(256, records))
        assert st.drained
        assert st.packet_latencies.size == 500

    def test_flit_counts_match_paths(self, mesh):
        st = Simulator(mesh).run(single(0, 5, size=4))
        assert st.link_flit_counts.sum() == 4 * 5  # 4 flits x 5 hops
        assert st.router_flit_counts.sum() == 4 * 6  # 6 routers

    def test_wormhole_order_preserved(self, mesh):
        # Two packets same src->dst: second must not overtake the first.
        tr = Trace(
            256,
            [PacketRecord(0, 0, 10, 32), PacketRecord(1, 0, 10, 1)],
        )
        st = Simulator(mesh).run(tr)
        assert st.drained

    def test_contention_increases_latency(self, mesh):
        # Many nodes converge on node 0 at once: latencies must spread.
        records = [PacketRecord(0, s, 0, 8) for s in (1, 2, 16, 32, 17)]
        st = Simulator(mesh).run(Trace(256, records))
        assert st.drained
        assert st.packet_latencies.max() > st.packet_latencies.min()

    def test_max_cycles_stops(self, mesh):
        st = Simulator(mesh).run(single(0, 255), max_cycles=10)
        assert not st.drained
        assert st.cycles == 10

    def test_node_count_mismatch(self, mesh):
        with pytest.raises(ValueError):
            Simulator(mesh).run(Trace(4, [PacketRecord(0, 0, 1, 1)]))

    def test_empty_trace(self, mesh):
        st = Simulator(mesh).run(Trace(256, []))
        assert st.drained
        assert st.n_packets == 0


class TestDisabledHooks:
    """A default run executes no hook code at all: telemetry, control,
    closed-loop and profiling reduce to sentinel checks in the loop."""

    HOOKED = ("repro/telemetry/", "repro/control/", "repro/obs/")

    def _hook_calls(self, **hooks) -> list[str]:
        mesh4 = build_mesh(4, 4)
        rng = np.random.default_rng(1)
        records = []
        for t in range(60):
            s, d = rng.choice(16, size=2, replace=False)
            records.append(PacketRecord(t, int(s), int(d), 2))
        calls: list[str] = []

        def watch(frame, event, arg):
            if event == "call":
                path = frame.f_code.co_filename.replace("\\", "/")
                if any(h in path for h in self.HOOKED):
                    calls.append(f"{path}:{frame.f_code.co_name}")
            elif event == "c_call" and arg is time.perf_counter_ns:
                calls.append("time.perf_counter_ns")

        sim = Simulator(mesh4)
        sys.setprofile(watch)
        try:
            stats = sim.run(Trace(16, records), **hooks)
        finally:
            sys.setprofile(None)
        assert stats.drained and stats.n_packets == 60
        return calls

    def test_default_run_calls_no_hook_code(self):
        assert self._hook_calls() == []

    def test_watch_sees_enabled_hooks(self):
        from repro.obs import PhaseProfile
        from repro.telemetry import TelemetryConfig

        calls = self._hook_calls(
            telemetry=TelemetryConfig(window=8), profile=PhaseProfile()
        )
        assert "time.perf_counter_ns" in calls
        assert any("repro/telemetry/" in c for c in calls)
        assert any("repro/obs/" in c for c in calls)


class TestSimConfig:
    def test_link_cycles(self):
        cfg = SimConfig()
        assert cfg.link_cycles(Technology.ELECTRONIC) == 1
        assert cfg.link_cycles(Technology.HYPPI) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_vcs=0)
        with pytest.raises(ValueError):
            SimConfig(router_pipeline=0)

    def test_deeper_pipeline_raises_latency(self, mesh):
        fast = Simulator(mesh, config=SimConfig(router_pipeline=2))
        slow = Simulator(mesh, config=SimConfig(router_pipeline=4))
        lf = fast.run(single(0, 5)).packet_latencies[0]
        ls = slow.run(single(0, 5)).packet_latencies[0]
        assert ls > lf


class TestSimEnergy:
    def test_energy_positive_and_consistent(self, mesh):
        st = Simulator(mesh).run(single(0, 3, size=4))
        e = sim_dynamic_energy_j(mesh, st)
        # 4 flits x 3 links x 6.4 pJ.
        assert e.link_dynamic_j == pytest.approx(4 * 3 * 6.4e-12)
        assert e.dynamic_j > e.link_dynamic_j

    def test_energy_matches_analytical_flows(self, mesh):
        # Simulated flit counts equal analytical flit counts (same routing),
        # so sim energy equals trace energy for an uncongested trace.
        from repro.analysis import trace_dynamic_energy_j

        tr = Trace(
            256,
            [PacketRecord(t * 50, s, s + 10, 8) for t, s in enumerate(range(0, 200, 20))],
        )
        st = Simulator(mesh).run(tr)
        e_sim = sim_dynamic_energy_j(mesh, st)
        e_ana = trace_dynamic_energy_j(mesh, tr.flit_count_matrix())
        assert e_sim.dynamic_j == pytest.approx(e_ana.dynamic_j, rel=1e-9)

    def test_shape_mismatch_rejected(self, mesh, e3):
        st = Simulator(mesh).run(single(0, 1))
        with pytest.raises(ValueError):
            sim_dynamic_energy_j(e3, st)

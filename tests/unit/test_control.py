"""Unit tests for the control subsystem (sources, controllers, knee, CLI)."""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest

from repro.control import (
    ClosedLoopConfig,
    ClosedLoopSession,
    ClosedLoopStats,
    ControlSession,
    ControlTrace,
    Controller,
    Directive,
    ThrottleController,
    VcBiasController,
    WindowSnapshot,
    controller_names,
    locate_knee,
    make_controllers,
)
from repro.simulation import Simulator
from repro.simulation.flit import Packet
from repro.telemetry.detectors import SaturationDetector
from repro.topology import build_mesh
from repro.traffic import PacketRecord, Trace

MESH4 = build_mesh(4, 4)


def _demand(records) -> Trace:
    return Trace(16, [PacketRecord(*r) for r in records])


class TestClosedLoopConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="window"):
            ClosedLoopConfig(window=0)
        with pytest.raises(ValueError, match="think"):
            ClosedLoopConfig(think_cycles=-1)
        with pytest.raises(ValueError, match="reply size"):
            ClosedLoopConfig(reply_flits=0)
        with pytest.raises(ValueError, match="reply size"):
            ClosedLoopConfig(reply_flits=33)

    def test_json_round_trip(self):
        cfg = ClosedLoopConfig(window=7, think_cycles=3, reply_flits=2)
        assert ClosedLoopConfig.from_json(cfg.to_json()) == cfg


class TestClosedLoopSession:
    def test_begin_releases_only_window(self):
        # One source wants 5 requests; window 2 releases the first two.
        demand = _demand([(t, 0, 5, 1) for t in range(5)])
        session = ClosedLoopSession(ClosedLoopConfig(window=2), demand)
        released = session.begin(0, 16)
        assert [p.packet_id for p in released] == [0, 1]
        assert [p.inject_time for p in released] == [0, 1]
        assert session.outstanding[0] == 2
        assert session.peak_outstanding == 2

    def test_request_spawns_reply_and_reply_releases_credit(self):
        demand = _demand([(0, 0, 5, 1), (1, 0, 5, 1), (2, 0, 5, 1)])
        session = ClosedLoopSession(
            ClosedLoopConfig(window=2, think_cycles=4, reply_flits=3), demand
        )
        req0, _ = session.begin(0, 16)
        # Request 0 ejects at cycle 10 -> reply from node 5 back to 0.
        (reply,) = session.on_delivered(req0, 10)
        assert (reply.src, reply.dst) == (5, 0)
        assert reply.size_flits == 3
        assert reply.inject_time == 10 + 4
        assert session.outstanding[0] == 2  # credit not yet returned
        # Reply ejects at 30: credit returns, third request releases now.
        (req2,) = session.on_delivered(reply, 30)
        assert req2.dst == 5 and req2.inject_time == 30  # max(demand=2, now=30)
        assert session.outstanding[0] == 2
        assert session.round_trip_sum == 30 - 0

    def test_background_packets_ignored(self):
        session = ClosedLoopSession(ClosedLoopConfig(), _demand([(0, 0, 5, 1)]))
        session.begin(3, 16)  # ids start after 3 background packets
        stranger = Packet(packet_id=0, src=1, dst=2, size_flits=1, inject_time=0)
        assert session.on_delivered(stranger, 9) == []

    def test_begin_twice_rejected_and_node_mismatch(self):
        session = ClosedLoopSession(ClosedLoopConfig(), _demand([(0, 0, 5, 1)]))
        with pytest.raises(ValueError, match="nodes"):
            session.begin(0, 9)
        session.begin(0, 16)
        with pytest.raises(RuntimeError, match="already started"):
            session.begin(0, 16)

    def test_idle_tracks_demand_and_outstanding(self):
        demand = _demand([(0, 0, 5, 1)])
        session = ClosedLoopSession(ClosedLoopConfig(window=1), demand)
        (req,) = session.begin(0, 16)
        assert not session.idle
        (reply,) = session.on_delivered(req, 7)
        assert not session.idle  # reply still in flight
        session.on_delivered(reply, 15)
        assert session.idle

    def test_finalize_accounting(self):
        demand = _demand([(0, 0, 5, 1), (0, 1, 6, 1), (4, 0, 7, 1)])
        session = ClosedLoopSession(ClosedLoopConfig(window=1), demand)
        released = session.begin(0, 16)
        assert len(released) == 2  # one per source
        stats = session.finalize(100)
        assert isinstance(stats, ClosedLoopStats)
        assert stats.requests_issued == 2
        assert stats.outstanding_at_end == 2
        assert stats.stalled_demand == 1
        assert stats.demand_total == 3
        assert math.isnan(stats.mean_round_trip)
        assert ClosedLoopStats.from_json(stats.to_json()) == stats


class TestSimulatorClosedLoop:
    def test_drained_run_retires_everything(self):
        demand = _demand(
            [(t, s, (s + 5) % 16, 2) for s in range(16) for t in (0, 3, 9)]
        )
        session = ClosedLoopSession(ClosedLoopConfig(window=2), demand)
        stats = Simulator(MESH4).run(
            Trace(16, []), max_cycles=10_000, closed_loop=session
        )
        cl = stats.closed_loop
        assert stats.drained
        assert cl.replies_delivered == cl.demand_total == 48
        assert cl.outstanding_at_end == 0
        assert cl.peak_outstanding <= 2
        assert stats.n_packets == 96  # requests + replies
        assert stats.n_flits == 48 * 2 + 48  # 2-flit requests, 1-flit replies

    def test_mixed_with_open_loop_background(self):
        background = _demand([(0, 2, 9, 1), (5, 3, 12, 1)])
        session = ClosedLoopSession(ClosedLoopConfig(window=1), _demand([(0, 0, 5, 1)]))
        stats = Simulator(MESH4).run(
            background, max_cycles=10_000, closed_loop=session
        )
        assert stats.drained
        assert stats.n_packets == 4  # 2 background + request + reply
        assert stats.closed_loop.replies_delivered == 1


class TestThrottleController:
    def _snap(self, i, delivered, lat_sum, occupied=10):
        return WindowSnapshot(
            index=i,
            start=i * 64,
            end=(i + 1) * 64,
            router_flits=np.zeros(4, np.int64),
            delivered=delivered,
            latency_sum=lat_sum,
            occupied_vcs=occupied,
            in_flight=0,
        )

    def test_raises_on_onset_and_releases_on_recovery(self):
        ctl = ThrottleController(
            patience=1, baseline_windows=2, release_patience=2
        )
        # Baseline windows: latency 10.
        assert ctl.observe(self._snap(0, 10, 100)) == ()
        assert ctl.observe(self._snap(1, 10, 100)) == ()
        # Latency blows up 5x -> onset -> level 1.
        assert ctl.observe(self._snap(2, 10, 500)) == (Directive("throttle", 1),)
        # Two healthy windows release back to level 0.
        assert ctl.observe(self._snap(3, 10, 100)) == ()
        assert ctl.observe(self._snap(4, 10, 100)) == (Directive("throttle", 0),)

    def test_level_caps_at_max(self):
        ctl = ThrottleController(patience=1, baseline_windows=1, max_level=2)
        ctl.observe(self._snap(0, 10, 100))
        for i in range(1, 6):
            ctl.observe(self._snap(i, 10, 10_000))
        assert ctl.level == 2

    def test_jam_without_deliveries_counts_as_congested(self):
        ctl = ThrottleController(patience=1, baseline_windows=1)
        ctl.observe(self._snap(0, 10, 100))
        out = ctl.observe(self._snap(1, 0, 0, occupied=5))
        assert out == (Directive("throttle", 1),)

    def test_validation(self):
        with pytest.raises(ValueError, match="release factor"):
            ThrottleController(release_factor=0.5)
        with pytest.raises(ValueError, match="release patience"):
            ThrottleController(release_patience=0)
        with pytest.raises(ValueError, match="max level"):
            ThrottleController(max_level=0)


class TestVcBiasController:
    def _snap(self, i, flits):
        return WindowSnapshot(
            index=i,
            start=i * 64,
            end=(i + 1) * 64,
            router_flits=np.asarray(flits, np.int64),
            delivered=1,
            latency_sum=10,
            occupied_vcs=4,
            in_flight=0,
        )

    def test_restricts_then_restores(self):
        ctl = VcBiasController(n_vcs=4, factor=2.0, min_fraction=0.6)
        hot = [100, 1, 1, 1]
        assert ctl.observe(self._snap(0, hot)) == (Directive("vc_limit", 2, (0,)),)
        assert ctl.observe(self._snap(1, hot)) == ()  # still hot: no change
        # Node 0 cools; after enough quiet windows it drops below 60%.
        cool = [1, 1, 1, 100]
        ctl.observe(self._snap(2, cool))
        out3 = ctl.observe(self._snap(3, cool))
        # Window 3: node 0 hot in 2/4 windows (50% < 60%) -> restored;
        # node 3 hot in 2/4 -> not yet sustained.
        assert out3 == (Directive("vc_limit", 4, (0,)),)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_vcs"):
            VcBiasController(n_vcs=0)
        with pytest.raises(ValueError, match="vc limit"):
            VcBiasController(n_vcs=4, limit=5)


class TestControlSession:
    def test_registry(self):
        assert controller_names() == ["throttle", "vc-bias"]
        with pytest.raises(ValueError, match="unknown controller"):
            make_controllers(["nope"], n_vcs=4)
        made = make_controllers(["throttle", "vc-bias"], n_vcs=4)
        assert isinstance(made[0], ThrottleController)
        assert made[1].n_vcs == 4

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            ControlSession([], window=64, n_nodes=16, n_vcs=4)
        with pytest.raises(ValueError, match="window"):
            ControlSession(
                make_controllers(["throttle"], n_vcs=4),
                window=0,
                n_nodes=16,
                n_vcs=4,
            )

    def test_apply_and_trace(self):
        session = ControlSession(
            make_controllers(["throttle"], n_vcs=4), window=64, n_nodes=4, n_vcs=4
        )
        session._apply(Directive("throttle", 2), "throttle", 5, 384)
        session._apply(Directive("vc_limit", 2, (1, 3)), "vc-bias", 6, 448)
        assert session.throttle_period == 4
        assert session.vc_limits == [4, 2, 4, 2]
        trace = session.finalize(1000)
        assert trace.n_actions == 2
        assert trace.final_throttle_period == 4
        assert trace.restricted_nodes == (1, 3)
        assert trace.actions_in_window(5) == [trace.actions[0]]
        assert trace.throttle_level_series() == [(5, 2)]
        assert ControlTrace.from_json(trace.to_json()) == trace

    def test_window_mismatch_rejected_by_simulator(self):
        from repro.telemetry import TelemetryConfig

        session = ControlSession(
            make_controllers(["throttle"], n_vcs=4), window=64, n_nodes=16, n_vcs=4
        )
        with pytest.raises(ValueError, match="control window"):
            Simulator(MESH4).run(
                _demand([(0, 0, 5, 1)]),
                telemetry=TelemetryConfig(window=128),
                control=session,
            )

    def test_directive_validation(self):
        with pytest.raises(ValueError, match="kind"):
            Directive("warp", 1)
        with pytest.raises(ValueError, match="value"):
            Directive("throttle", -1)
        # vc_limit 0 would block injection forever; throttle 0 is "open".
        with pytest.raises(ValueError, match="vc_limit"):
            Directive("vc_limit", 0, (3,))
        assert Directive("throttle", 0).value == 0


class TestSaturationDetectorReset:
    def test_reset_keeps_baseline_and_rearms(self):
        det = SaturationDetector(patience=1, baseline_windows=1)
        det.update(0, 10, 100, 5)  # baseline latency 10
        det.update(64, 10, 500, 5)
        assert det.onset_cycle == 64
        baseline = det.baseline_latency
        det.reset()
        assert det.onset_cycle is None
        assert det.baseline_latency == baseline
        det.update(128, 10, 500, 5)
        assert det.onset_cycle == 128  # fires again after re-arm


class _LimitNode0(Controller):
    """Confines node 0 to one injection VC when the first window closes."""

    name = "limit-node-0"

    def observe(self, snap):
        return (Directive("vc_limit", 1, (0,)),) if snap.index == 0 else ()


class _HeadLog(deque):
    """An injection VC that logs (cycle, vc) of each head flit pushed."""

    def __init__(self, log, vc, pipeline):
        super().__init__()
        self.log, self.vc, self.pipeline = log, vc, pipeline

    def append(self, flit):
        if flit.index == 0:
            self.log.append((flit.ready_time - self.pipeline, self.vc))
        super().append(flit)


class TestInjectionVcLimit:
    WINDOW = 32

    def _heads(self, monkeypatch, controller):
        """(cycle, vc) of every head flit node 0 injects, in a run where
        node 0 offers back-to-back 4-flit packets."""
        sim = Simulator(MESH4)
        log: list[tuple[int, int]] = []
        fresh = sim._fresh_state

        def logged():
            state = fresh()
            for vc in range(sim.config.n_vcs):  # node 0's LOCAL port slots
                state.fifos[vc] = _HeadLog(log, vc, sim.config.router_pipeline)
            return state

        monkeypatch.setattr(sim, "_fresh_state", logged)
        trace = _demand([(t, 0, 1 + t % 15, 4) for t in range(0, 160, 4)])
        control = ControlSession(
            [controller], window=self.WINDOW, n_nodes=16, n_vcs=sim.config.n_vcs
        )
        stats = sim.run(trace, control=control)
        assert stats.drained
        return log, stats.control

    def test_free_vc_limit(self, monkeypatch):
        free, idle = self._heads(monkeypatch, ThrottleController())
        limited, trace = self._heads(monkeypatch, _LimitNode0())
        assert idle.actions == ()  # the throttle never fires here
        assert [a.cycle for a in trace.actions] == [self.WINDOW]
        assert trace.restricted_nodes == (0,)
        # Unlimited, new packets round-robin over idle VCs past VC 0.
        assert {vc for t, vc in free if t >= self.WINDOW} > {0}
        # The limit binds new packets from its boundary on, not before.
        assert {vc for t, vc in limited if t < self.WINDOW} > {0}
        assert {vc for t, vc in limited if t >= self.WINDOW} == {0}


class TestKnee:
    KNOBS = dict(width=4, height=4, cycles=800, window=64, drain_budget=2000)

    def test_result_json_and_counts(self):
        result = locate_knee(lo=0.2, hi=0.95, tolerance=0.3, **self.KNOBS)
        payload = result.to_json()
        assert payload["knee_rate"] == result.knee_rate
        assert payload["n_simulations"] == result.n_simulations
        assert len(payload["probes"]) == result.n_probes
        assert result.n_simulations <= result.n_probes

    def test_bad_brackets_raise(self):
        with pytest.raises(ValueError, match="lo < hi"):
            locate_knee(lo=0.5, hi=0.2, **self.KNOBS)
        with pytest.raises(ValueError, match="tolerance"):
            locate_knee(lo=0.1, hi=0.5, tolerance=0, **self.KNOBS)
        with pytest.raises(ValueError, match="did not saturate"):
            locate_knee(lo=0.01, hi=0.02, tolerance=0.005, **self.KNOBS)
        with pytest.raises(ValueError, match="already saturated"):
            locate_knee(lo=0.95, hi=0.99, tolerance=0.01, **self.KNOBS)

"""Tests for traffic matrices, the Soteriou model, and NPB trace synthesis."""

import numpy as np
import pytest

from repro.topology import build_mesh
from repro.traffic import (
    FLIT_BYTES,
    MAX_PACKET_FLITS,
    Message,
    PacketRecord,
    Trace,
    TrafficMatrix,
    bit_complement_traffic,
    cg_trace,
    distance_matrix,
    ft_trace,
    lu_trace,
    mg_trace,
    neighbor_traffic,
    npb_trace,
    packetize_flits,
    schedule_phases,
    soteriou_traffic,
    transpose_traffic,
    uniform_traffic,
)


@pytest.fixture(scope="module")
def mesh():
    return build_mesh()


class TestTrafficMatrix:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            TrafficMatrix(np.zeros((3, 4)))

    def test_rejects_negative(self):
        m = np.zeros((4, 4))
        m[0, 1] = -1
        with pytest.raises(ValueError):
            TrafficMatrix(m)

    def test_rejects_self_traffic(self):
        m = np.eye(4)
        with pytest.raises(ValueError):
            TrafficMatrix(m)

    def test_scaling(self):
        m = np.zeros((4, 4))
        m[0, 1] = 2.0
        tm = TrafficMatrix(m).scaled_to_injection_rate(0.1)
        assert tm.mean_injection_rate() == pytest.approx(0.1)

    def test_scaling_zero_rejected(self):
        with pytest.raises(ValueError):
            TrafficMatrix(np.zeros((4, 4))).scaled_to_injection_rate(0.1)

    def test_normalized(self):
        m = np.zeros((3, 3))
        m[0, 1] = 3.0
        m[1, 2] = 1.0
        assert TrafficMatrix(m).normalized().total == pytest.approx(1.0)

    def test_mean_distance(self):
        m = np.zeros((2, 2))
        m[0, 1] = 1.0
        d = np.array([[0.0, 5.0], [5.0, 0.0]])
        assert TrafficMatrix(m).mean_distance(d) == pytest.approx(5.0)


class TestSoteriou:
    def test_mean_injection_rate(self, mesh):
        tm = soteriou_traffic(mesh, injection_rate=0.1)
        assert tm.mean_injection_rate() == pytest.approx(0.1)

    def test_deterministic_given_seed(self, mesh):
        a = soteriou_traffic(mesh, seed=42)
        b = soteriou_traffic(mesh, seed=42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_different_seeds_differ(self, mesh):
        a = soteriou_traffic(mesh, seed=1)
        b = soteriou_traffic(mesh, seed=2)
        assert not np.array_equal(a.matrix, b.matrix)

    def test_low_p_means_longer_hops(self, mesh):
        dist = distance_matrix(mesh)
        short = soteriou_traffic(mesh, p=0.5, sigma=0.0)
        long = soteriou_traffic(mesh, p=0.02, sigma=0.0)
        assert long.mean_distance(dist) > short.mean_distance(dist)

    def test_sigma_zero_uniform_injection(self, mesh):
        tm = soteriou_traffic(mesh, sigma=0.0)
        rates = tm.injection_rates()
        assert np.allclose(rates, rates[0])

    def test_larger_sigma_more_spread(self, mesh):
        lo = soteriou_traffic(mesh, sigma=0.1, seed=3)
        hi = soteriou_traffic(mesh, sigma=0.8, seed=3)
        assert hi.injection_rates().std() > lo.injection_rates().std()

    def test_invalid_p(self, mesh):
        with pytest.raises(ValueError):
            soteriou_traffic(mesh, p=0.0)
        with pytest.raises(ValueError):
            soteriou_traffic(mesh, p=1.0)

    def test_invalid_sigma(self, mesh):
        with pytest.raises(ValueError):
            soteriou_traffic(mesh, sigma=-0.1)


class TestClassicPatterns:
    def test_uniform(self, mesh):
        tm = uniform_traffic(mesh)
        off_diag = tm.matrix[~np.eye(256, dtype=bool)]
        assert np.allclose(off_diag, off_diag[0])

    def test_transpose_is_permutation(self, mesh):
        tm = transpose_traffic(mesh)
        nz_per_row = (tm.matrix > 0).sum(axis=1)
        # Diagonal nodes (x == y) send nothing.
        assert set(nz_per_row) == {0, 1}

    def test_bit_complement_distance(self, mesh):
        tm = bit_complement_traffic(mesh)
        dist = distance_matrix(mesh)
        # Bit-complement pairs are far apart on average.
        assert tm.mean_distance(dist) > 10

    def test_neighbor_short_range(self, mesh):
        tm = neighbor_traffic(mesh)
        dist = distance_matrix(mesh)
        assert tm.mean_distance(dist) == pytest.approx(1.0)


class TestPacketization:
    def test_exact_multiple(self):
        assert packetize_flits(64) == [32, 32]

    def test_remainder_single_flit_packets(self):
        assert packetize_flits(35) == [32, 1, 1, 1]

    def test_small_message(self):
        assert packetize_flits(1) == [1]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            packetize_flits(0)

    def test_message_flits(self):
        assert Message(0, 1, 8).size_flits == 1
        assert Message(0, 1, 9).size_flits == 2
        assert Message(0, 1, 256).size_flits == 32

    def test_message_validation(self):
        with pytest.raises(ValueError):
            Message(0, 0, 8)
        with pytest.raises(ValueError):
            Message(0, 1, 0)


class TestTrace:
    def test_sorted_by_time(self):
        tr = Trace(4, [PacketRecord(5, 0, 1, 1), PacketRecord(2, 1, 0, 1)])
        assert [p.time for p in tr.packets] == [2, 5]

    def test_totals(self):
        tr = Trace(4, [PacketRecord(0, 0, 1, 32), PacketRecord(1, 1, 2, 1)])
        assert tr.n_packets == 2
        assert tr.total_flits == 33
        assert tr.duration_cycles == 2

    def test_flit_count_matrix(self):
        tr = Trace(4, [PacketRecord(0, 0, 1, 32), PacketRecord(1, 0, 1, 1)])
        m = tr.flit_count_matrix()
        assert m.matrix[0, 1] == 33

    def test_scaled_preserves_mix(self):
        packets = [PacketRecord(i, i % 3, (i + 1) % 3, 1) for i in range(100)]
        tr = Trace(3, packets)
        half = tr.scaled(0.5)
        assert half.n_packets == 50

    def test_scaled_identity(self):
        tr = Trace(3, [PacketRecord(0, 0, 1, 1)])
        assert tr.scaled(1.0).n_packets == 1

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            Trace(2, [PacketRecord(0, 0, 5, 1)])

    def test_packet_record_validation(self):
        with pytest.raises(ValueError):
            PacketRecord(0, 0, 1, MAX_PACKET_FLITS + 1)
        with pytest.raises(ValueError):
            PacketRecord(-1, 0, 1, 1)
        with pytest.raises(ValueError):
            PacketRecord(0, 2, 2, 1)

    def test_columns_are_read_only(self):
        tr = Trace(4, [PacketRecord(0, 0, 1, 1), PacketRecord(1, 2, 3, 4)])
        for key, column in tr.columns().items():
            assert column.dtype == np.int64, key
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 3
        with pytest.raises(ValueError, match="read-only"):
            tr.time += 1

    def test_from_columns_copies_and_sorts(self):
        time = np.array([5, 2, 2, 2])
        src = np.array([0, 1, 0, 1])
        dst = np.array([1, 3, 3, 0])
        tr = Trace.from_columns(4, time, src, dst, [1, 2, 3, 4], name="cols")
        time[0] = 99  # the trace holds its own copy
        # Stable (time, src, dst) order: equal keys keep input order.
        assert tr.time.tolist() == [2, 2, 2, 5]
        assert tr.src.tolist() == [0, 1, 1, 0]
        assert tr.dst.tolist() == [3, 0, 3, 1]
        assert tr.size_flits.tolist() == [3, 4, 2, 1]
        assert tr.packets == [
            PacketRecord(2, 0, 3, 3),
            PacketRecord(2, 1, 0, 4),
            PacketRecord(2, 1, 3, 2),
            PacketRecord(5, 0, 1, 1),
        ]
        assert tr == Trace(4, tr.packets, name="cols")
        assert tr != Trace(4, tr.packets, name="other")

    @pytest.mark.parametrize(
        "row, message",
        [
            ((-1, 0, 1, 1), "injection time must be >= 0"),
            ((0, 2, 2, 1), "packet to self at node 2"),
            ((0, 0, 1, 0), "packet size must be 1..32"),
            ((0, 0, 1, MAX_PACKET_FLITS + 1), "packet size must be 1..32"),
            ((0, 0, 4, 1), "packet endpoints outside 0..3"),
            ((0, -1, 1, 1), "packet endpoints outside 0..3"),
        ],
    )
    def test_from_columns_validation(self, row, message):
        good = (3, 1, 2, 1)
        cols = [list(c) for c in zip(good, row)]
        with pytest.raises(ValueError, match=message):
            Trace.from_columns(4, *cols)

    def test_empty_trace(self):
        tr = Trace.from_columns(4, [], [], [], [])
        assert tr.n_packets == tr.total_flits == tr.duration_cycles == 0
        assert tr.packets == [] and tr == Trace(4, [])


class TestSchedulePhases:
    def test_source_serialization(self):
        # One source sends two 32-flit packets: second starts 32 cycles in.
        phases = [[Message(0, 1, 512)]]  # 64 flits -> two 32-flit packets
        tr = schedule_phases(4, phases)
        times = [p.time for p in tr.packets]
        assert times == [0, 32]

    def test_phases_are_separated(self):
        phases = [[Message(0, 1, 8)], [Message(0, 1, 8)]]
        tr = schedule_phases(4, phases, inter_phase_gap=100)
        times = [p.time for p in tr.packets]
        assert times[1] >= times[0] + 100

    def test_sources_parallel_within_phase(self):
        phases = [[Message(0, 1, 8), Message(2, 3, 8)]]
        tr = schedule_phases(4, phases)
        assert all(p.time == 0 for p in tr.packets)


class TestNPBTraces:
    def test_ft_is_all_to_all(self):
        tr = ft_trace(volume_scale=1e-6, iterations=1)
        m = tr.flit_count_matrix().matrix
        off_diag = m[~np.eye(256, dtype=bool)]
        assert np.all(off_diag > 0)

    def test_lu_is_nearest_neighbor(self):
        tr = lu_trace(volume_scale=0.01, iterations=1)
        mesh = build_mesh()
        dist = distance_matrix(mesh)
        tm = tr.flit_count_matrix()
        assert tm.mean_distance(dist) == pytest.approx(1.0)

    def test_cg_short_range(self):
        mesh = build_mesh()
        dist = distance_matrix(mesh)
        tr = cg_trace(volume_scale=0.001, iterations=1)
        d = tr.flit_count_matrix().mean_distance(dist)
        assert d < 6.0  # short-range (power-of-two row partners)

    def test_mg_long_range(self):
        mesh = build_mesh()
        dist = distance_matrix(mesh)
        mg = mg_trace(volume_scale=0.01, iterations=1)
        lu = lu_trace(volume_scale=0.01, iterations=1)
        assert (
            mg.flit_count_matrix().mean_distance(dist)
            > 2 * lu.flit_count_matrix().mean_distance(dist)
        )

    def test_kernel_lookup(self):
        assert npb_trace("ft", volume_scale=1e-6).name == "npb-ft"
        with pytest.raises(ValueError):
            npb_trace("BT")

    def test_volume_scaling(self):
        small = ft_trace(volume_scale=0.01, iterations=1)
        big = ft_trace(volume_scale=0.1, iterations=1)
        assert big.total_flits > small.total_flits

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            ft_trace(volume_scale=0.0)

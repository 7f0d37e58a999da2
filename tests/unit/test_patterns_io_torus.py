"""Tests for the extra traffic patterns, trace I/O, and torus topologies."""

import numpy as np
import pytest

from repro.simulation import Simulator
from repro.tech import Technology
from repro.topology import (
    LinkKind,
    RoutingTable,
    build_express_mesh,
    build_mesh,
    build_row_torus,
    build_torus,
)
from repro.traffic import (
    PacketRecord,
    Trace,
    bit_reverse_traffic,
    distance_matrix,
    hotspot_traffic,
    load_trace,
    save_trace,
    shuffle_traffic,
    tornado_traffic,
    uniform_traffic,
)


@pytest.fixture(scope="module")
def mesh():
    return build_mesh()


class TestPatterns:
    def test_shuffle_is_permutation(self, mesh):
        tm = shuffle_traffic(mesh)
        sends = (tm.matrix > 0).sum(axis=1)
        assert set(sends) <= {0, 1}  # fixed points send nothing

    def test_bit_reverse_symmetric(self, mesh):
        tm = bit_reverse_traffic(mesh)
        nz = np.nonzero(tm.matrix)
        for s, d in zip(*nz):
            assert tm.matrix[d, s] > 0  # reversal is an involution

    def test_tornado_half_row(self, mesh):
        tm = tornado_traffic(mesh)
        dist = distance_matrix(mesh)
        assert tm.mean_distance(dist) == pytest.approx(8.0)

    def test_tornado_ties_resolve_to_mesh_links(self):
        # Tornado's half-row distance (8) exactly ties the wrap detour
        # (1 wrap + 7 regular), and ties resolve to monotone mesh routes.
        torus = build_row_torus()
        rt = RoutingTable(torus)
        from repro.analysis import assign_flows

        flows = assign_flows(torus, tornado_traffic(torus), rt)
        wrap_ids = [l.link_id for l in torus.express_links()]
        assert flows.link_flow[wrap_ids].sum() == 0

    def test_uniform_traffic_uses_wrap_links(self):
        # Pairs beyond half-row distance do ride the wraps.
        torus = build_row_torus()
        rt = RoutingTable(torus)
        from repro.analysis import assign_flows

        flows = assign_flows(torus, uniform_traffic(torus), rt)
        wrap_ids = [l.link_id for l in torus.express_links()]
        assert flows.link_flow[wrap_ids].sum() > 0

    def test_hotspot_concentrates_traffic(self, mesh):
        tm = hotspot_traffic(mesh, hotspot_fraction=0.5)
        col_sums = tm.matrix.sum(axis=0)
        hot = np.argsort(col_sums)[-4:]
        cold = np.argsort(col_sums)[:200]
        assert col_sums[hot].min() > 10 * col_sums[cold].max()

    def test_hotspot_custom_nodes(self, mesh):
        tm = hotspot_traffic(mesh, hotspots=[0], hotspot_fraction=1.0)
        assert tm.matrix[:, 0].sum() == pytest.approx(tm.total)

    def test_hotspot_validation(self, mesh):
        with pytest.raises(ValueError):
            hotspot_traffic(mesh, hotspot_fraction=1.5)
        with pytest.raises(ValueError):
            hotspot_traffic(mesh, hotspots=[999])
        with pytest.raises(ValueError):
            hotspot_traffic(mesh, hotspots=[])

    def test_power_of_two_required(self):
        topo = build_mesh(6, 6)
        with pytest.raises(ValueError):
            shuffle_traffic(topo)

    def test_all_scaled_to_rate(self, mesh):
        for tm in (
            shuffle_traffic(mesh, injection_rate=0.05),
            bit_reverse_traffic(mesh, injection_rate=0.05),
            tornado_traffic(mesh, injection_rate=0.05),
            hotspot_traffic(mesh, injection_rate=0.05),
        ):
            assert tm.mean_injection_rate() == pytest.approx(0.05)


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        trace = Trace(
            16,
            [PacketRecord(0, 0, 5, 1), PacketRecord(3, 2, 7, 32)],
            name="unit",
        )
        path = tmp_path / "t.trace"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.n_nodes == 16
        assert loaded.name == "unit"
        assert loaded.packets == trace.packets

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("not a trace\n")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad2.trace"
        path.write_text("# repro-trace nodes=4 name=x packets=1\n1 2 3\n")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.trace"
        path.write_text(
            "# repro-trace nodes=4 name=c packets=1\n# comment\n\n0 0 1 1\n"
        )
        assert load_trace(path).n_packets == 1

    def test_rejects_truncated_file(self, tmp_path):
        trace = Trace(16, [PacketRecord(t, t % 4, 5, 1) for t in range(6)])
        path = tmp_path / "cut.trace"
        save_trace(trace, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]) + lines[-1][:2])
        with pytest.raises(ValueError, match="expected 4 fields"):
            load_trace(path)
        path.write_text("".join(lines[:-1]))  # cut at a line boundary
        with pytest.raises(ValueError, match="header says 6 packets, file holds 5"):
            load_trace(path)

    def test_header_without_count_is_accepted(self, tmp_path):
        path = tmp_path / "nocount.trace"
        path.write_text("# repro-trace nodes=4 name=x\n0 0 1 1\n3 1 2 1\n")
        assert load_trace(path).n_packets == 2


class TestTorus:
    def test_row_torus_link_count(self):
        t = build_row_torus()
        assert t.n_links == 960 + 32  # mesh + 16 bidirectional wraps

    def test_full_torus_link_count(self):
        t = build_torus()
        assert t.n_links == 960 + 64

    def test_row_torus_equals_hops15_express(self):
        # "Hops=15 makes the network effectively a 2D torus": the row torus
        # and the Hops=15 express mesh route identically.
        torus = build_row_torus()
        e15 = build_express_mesh(hops=15, express_technology=Technology.HYPPI)
        rt_t, rt_e = RoutingTable(torus), RoutingTable(e15)
        for s, d in [(0, 15), (2, 14), (37, 42), (250, 5), (0, 255)]:
            assert rt_t.hop_count(s, d) == rt_e.hop_count(s, d)

    def test_full_torus_wraps_columns(self):
        t = build_torus()
        rt = RoutingTable(t)
        # (0,2) -> (0,14): 4 hops via the column wrap instead of 12.
        assert rt.hop_count(t.node_id(0, 2), t.node_id(0, 14)) == 4

    def test_wrap_links_are_express_kind(self):
        t = build_row_torus()
        wraps = t.express_links()
        assert len(wraps) == 32
        assert all(l.kind is LinkKind.EXPRESS for l in wraps)
        assert all(l.length_m == pytest.approx(15e-3) for l in wraps)

    def test_torus_simulation_drains(self):
        t = build_torus()
        rng = np.random.default_rng(3)
        records = [
            PacketRecord(
                int(rng.integers(0, 100)),
                int(s),
                int(d),
                int(rng.choice([1, 32])),
            )
            for s, d in (
                rng.choice(256, size=2, replace=False) for _ in range(200)
            )
        ]
        stats = Simulator(t).run(Trace(256, records))
        assert stats.drained

    def test_torus_improves_bit_complement(self):
        # Wraps shorten the worst-case distances of far-pair traffic.
        mesh = build_mesh()
        torus = build_torus()
        tm_mesh = uniform_traffic(mesh)
        from repro.analysis import average_latency_cycles

        lat_mesh = average_latency_cycles(mesh, tm_mesh)
        lat_torus = average_latency_cycles(torus, uniform_traffic(torus))
        assert lat_torus < lat_mesh

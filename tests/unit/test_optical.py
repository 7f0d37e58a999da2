"""Tests for the all-optical NoC models (Table VI, Fig. 8)."""

import pytest

from repro.optical import (
    CROSS_COUNT,
    HYPPI_ROUTER,
    MRR_SWITCH,
    N_PORTS,
    PHOTONIC_ROUTER,
    PLASMONIC_SWITCH,
    PathLossModel,
    SwitchElementParams,
    SwitchState,
    optical_router_for,
    optimal_port_assignment,
    paper_latency_approximation,
    path_laser_energy_fj_per_bit,
    path_laser_power_w,
    project_all_optical,
    setup_transfer_latency,
)
from repro.tech import Technology
from repro.topology import RoutingTable, build_mesh, build_row_torus
from repro.traffic import uniform_traffic


class TestSwitchElements:
    def test_plasmonic_is_compact(self):
        assert PLASMONIC_SWITCH.area_um2 < 0.001 * MRR_SWITCH.area_um2

    def test_plasmonic_low_control_energy(self):
        assert (
            PLASMONIC_SWITCH.control_energy_fj_per_bit
            < MRR_SWITCH.control_energy_fj_per_bit
        )

    def test_loss_by_state(self):
        assert PLASMONIC_SWITCH.loss_db(SwitchState.BAR) == 0.08
        assert PLASMONIC_SWITCH.loss_db(SwitchState.CROSS) == 2.2

    def test_validation(self):
        with pytest.raises(ValueError):
            SwitchElementParams(
                name="bad", loss_bar_db=-1, loss_cross_db=1,
                control_energy_fj_per_bit=1, switching_time_ps=1,
                area_um2=1, static_power_uw=0,
            )


class TestRouterModels:
    def test_table6_hyppi_loss_range(self):
        lo, hi = HYPPI_ROUTER.loss_range_db()
        # Paper Table VI: 0.32 - 9.1 dB.
        assert lo == pytest.approx(0.32, abs=0.01)
        assert hi == pytest.approx(9.1, rel=0.05)

    def test_table6_photonic_loss_range(self):
        lo, hi = PHOTONIC_ROUTER.loss_range_db()
        # Paper Table VI: 0.39 - 1.5 dB.
        assert lo == pytest.approx(0.39, abs=0.02)
        assert hi == pytest.approx(1.5, rel=0.1)

    def test_table6_control_energy(self):
        # Paper Table VI: 3.73 (HyPPI) vs 68.2 (photonic) fJ/bit.
        assert HYPPI_ROUTER.control_energy_fj_per_bit() == pytest.approx(3.73, rel=0.05)
        assert PHOTONIC_ROUTER.control_energy_fj_per_bit() == pytest.approx(
            68.2, rel=0.07
        )

    def test_table6_area(self):
        # Paper Table VI: 500 vs 480,000 µm².
        assert HYPPI_ROUTER.area_um2() == pytest.approx(500, rel=0.05)
        assert PHOTONIC_ROUTER.area_um2() == pytest.approx(480_000, rel=0.05)

    def test_uturn_rejected(self):
        with pytest.raises(ValueError):
            HYPPI_ROUTER.loss_db(2, 2)

    def test_port_bounds(self):
        with pytest.raises(ValueError):
            HYPPI_ROUTER.loss_db(0, N_PORTS)

    def test_cross_count_range(self):
        legal = [
            CROSS_COUNT[i, o]
            for i in range(N_PORTS)
            for o in range(N_PORTS)
            if i != o
        ]
        assert min(legal) == 0
        assert max(legal) == 4

    def test_router_lookup(self):
        assert optical_router_for(Technology.HYPPI) is HYPPI_ROUTER
        assert optical_router_for(Technology.PHOTONIC) is PHOTONIC_ROUTER
        with pytest.raises(ValueError):
            optical_router_for(Technology.ELECTRONIC)


class TestOptimalAssignment:
    def test_expected_loss_below_range_midpoint(self):
        # The whole point of the optimal assignment: common X-Y transitions
        # avoid the expensive fabric paths.
        _, expected = optimal_port_assignment(HYPPI_ROUTER)
        lo, hi = HYPPI_ROUTER.loss_range_db()
        assert expected < (lo + hi) / 4

    def test_straight_through_is_cheap(self):
        assign, _ = optimal_port_assignment(HYPPI_ROUTER)
        lo, _ = HYPPI_ROUTER.loss_range_db()
        # Eastbound straight: enters W side (3), exits E side (1).
        assert HYPPI_ROUTER.loss_db(assign[3], assign[1]) == pytest.approx(lo)

    def test_rejects_empty_weights(self):
        with pytest.raises(ValueError):
            optimal_port_assignment(HYPPI_ROUTER, {})

    def test_rejects_uturn_weights(self):
        with pytest.raises(ValueError):
            optimal_port_assignment(HYPPI_ROUTER, {(1, 1): 1.0})


class TestPathLoss:
    @pytest.fixture(scope="class")
    def hyppi_loss(self):
        topo = build_mesh(link_technology=Technology.HYPPI)
        return PathLossModel(
            topology=topo, technology=Technology.HYPPI, routing=RoutingTable(topo)
        )

    def test_loss_grows_with_distance(self, hyppi_loss):
        near = hyppi_loss.path_loss_db(0, 1)
        far = hyppi_loss.path_loss_db(0, 255)
        assert far > near

    def test_loss_includes_fixed_losses(self, hyppi_loss):
        from repro.tech.parameters import HYPPI

        assert hyppi_loss.path_loss_db(0, 1) > HYPPI.total_fixed_loss_db()

    def test_self_path_rejected(self, hyppi_loss):
        with pytest.raises(ValueError):
            hyppi_loss.path_loss_db(3, 3)

    def test_worst_case_at_least_average(self, hyppi_loss):
        tm = uniform_traffic(hyppi_loss.topology)
        assert hyppi_loss.worst_case_loss_db() >= hyppi_loss.average_loss_db(tm)

    @pytest.mark.parametrize("tech", [Technology.PHOTONIC, Technology.HYPPI])
    def test_pair_losses_equal_path_loss_db(self, tech):
        # The flat-path reduction against the per-pair walk, bit for bit,
        # on a non-square mesh with uneven link lengths.
        topo = build_mesh(7, 5, link_technology=tech, core_spacing_m=1.3e-3)
        model = PathLossModel(topology=topo, technology=tech, routing=RoutingTable(topo))
        n = topo.n_nodes
        expected = [
            model.path_loss_db(s, d) if s != d else 0.0
            for s in range(n)
            for d in range(n)
        ]
        assert [float(x).hex() for x in model._pair_losses()] == [
            x.hex() for x in expected
        ]

    def test_uturn_route_rejected(self):
        # A row torus routes 1 -> 5 west to column 0 and then east over
        # the wrap link: a u-turn the optical router cannot make.
        topo = build_row_torus(6, 2, base_technology=Technology.HYPPI)
        model = PathLossModel(
            topology=topo, technology=Technology.HYPPI, routing=RoutingTable(topo)
        )
        with pytest.raises(ValueError, match="u-turn"):
            model.path_loss_db(1, 5)
        with pytest.raises(ValueError, match="u-turn"):
            model.average_loss_db(uniform_traffic(topo))
        with pytest.raises(ValueError, match="u-turn"):
            model.worst_case_loss_db()

    def test_electronic_rejected(self):
        topo = build_mesh()
        with pytest.raises(ValueError):
            PathLossModel(
                topology=topo,
                technology=Technology.ELECTRONIC,
                routing=RoutingTable(topo),
            )


class TestLaser:
    def test_energy_grows_exponentially(self):
        e0 = path_laser_energy_fj_per_bit(Technology.HYPPI, 0.0)
        e10 = path_laser_energy_fj_per_bit(Technology.HYPPI, 10.0)
        assert e10 == pytest.approx(10 * e0)

    def test_power_at_rate(self):
        e = path_laser_energy_fj_per_bit(Technology.HYPPI, 3.0)
        p = path_laser_power_w(Technology.HYPPI, 3.0, 50.0)
        assert p == pytest.approx(e * 1e-15 * 50e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            path_laser_energy_fj_per_bit(Technology.HYPPI, -1.0)
        with pytest.raises(ValueError):
            path_laser_power_w(Technology.HYPPI, 1.0, 0.0)


class TestCircuitLatency:
    def test_paper_approximation(self):
        assert paper_latency_approximation(40.0) == 20.0
        with pytest.raises(ValueError):
            paper_latency_approximation(0.0)

    def test_setup_transfer(self):
        lat = setup_transfer_latency(10, 32, path_length_m=10e-3)
        assert lat > 2 * 10  # at least the setup round-trip
        with pytest.raises(ValueError):
            setup_transfer_latency(0, 1)
        with pytest.raises(ValueError):
            setup_transfer_latency(1, 0)


class TestProjection:
    @pytest.fixture(scope="class")
    def comparison(self):
        return project_all_optical()

    def test_energy_two_orders(self, comparison):
        # Conclusion: optical NoCs ~two orders more energy efficient.
        assert comparison.energy_ratio_electronic_over_hyppi > 100

    def test_photonic_hyppi_energy_close(self, comparison):
        # Paper: 352 vs 354 fJ/bit — essentially equal.
        ratio = (
            comparison.photonic.energy_per_bit_fj
            / comparison.hyppi.energy_per_bit_fj
        )
        assert 0.5 < ratio < 2.0

    def test_area_orderings(self, comparison):
        # all-HyPPI << electronic << all-photonic (Fig. 8 / conclusions).
        assert comparison.hyppi.area_mm2 < comparison.electronic.area_mm2 / 10
        assert comparison.photonic.area_mm2 > comparison.electronic.area_mm2
        assert comparison.area_ratio_photonic_over_hyppi > 100

    def test_areas_near_paper_values(self, comparison):
        assert comparison.electronic.area_mm2 == pytest.approx(22.1, rel=0.05)
        assert comparison.photonic.area_mm2 == pytest.approx(127.7, rel=0.05)
        assert comparison.hyppi.area_mm2 == pytest.approx(1.24, rel=0.2)

    def test_optical_latency_half_electronic(self, comparison):
        assert comparison.hyppi.latency_clks == pytest.approx(
            0.5 * comparison.electronic.latency_clks
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            project_all_optical(amortization_injection_rate=0.0)

"""All-optical NoC projections (paper Section V, Fig. 8).

Compares three 16x16 networks on the radar-plot axes Latency / Energy-per-
bit / Area:

* **electronic mesh** — the analytical baseline (DSENT models);
* **all-photonic NoC** — MRR-switch routers (Table VI) + photonic links;
* **all-HyPPI NoC** — plasmonic-switch routers (Table VI) + HyPPI links.

Accounting choices, mirroring the paper's:

* All-optical energy/bit = per-router control energy along the average
  path + laser energy sized by the average path loss ("the losses incurred
  along the entire path ... for each flit was computed, and the laser
  power was estimated accordingly").
* Electronic energy/bit amortizes the mesh's (static + dynamic) power over
  the delivered bit rate at an application-level utilization
  (``amortization_injection_rate``). Real applications keep NoCs at ~0.1%
  utilization, which is how the paper's electronic figure lands orders of
  magnitude above the optical ones. EXPERIMENTS.md discusses sensitivity.
* All-optical latency uses the paper's adopted approximation: 50% of the
  electronic mesh latency (ref [22]).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.latency import average_latency_cycles
from repro.analysis.power import network_area_m2, network_power
from repro.optical.circuit import paper_latency_approximation
from repro.optical.laser import path_laser_energy_fj_per_bit
from repro.optical.loss import PathLossModel
from repro.optical.router import optical_router_for
from repro.tech.parameters import Technology
from repro.topology.mesh import build_mesh
from repro.topology.routing import RoutingTable
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.synthetic import soteriou_traffic

__all__ = ["NocProjection", "AllOpticalComparison", "project_all_optical"]


@dataclass(frozen=True)
class NocProjection:
    """One network's radar-plot coordinates (Fig. 8)."""

    name: str
    latency_clks: float
    energy_per_bit_fj: float
    area_mm2: float

    def __post_init__(self) -> None:
        if min(self.latency_clks, self.energy_per_bit_fj, self.area_mm2) <= 0:
            raise ValueError(f"all projection figures must be > 0: {self}")

    def radar_row(self) -> list[object]:
        """Row for the Fig. 8 comparison table."""
        return [self.name, self.latency_clks, self.energy_per_bit_fj, self.area_mm2]


@dataclass(frozen=True)
class AllOpticalComparison:
    """The three-way Fig. 8 comparison."""

    electronic: NocProjection
    photonic: NocProjection
    hyppi: NocProjection

    def all(self) -> list[NocProjection]:
        """All three projections in the paper's order."""
        return [self.electronic, self.photonic, self.hyppi]

    @property
    def energy_ratio_electronic_over_hyppi(self) -> float:
        """The paper's headline "255x" energy ratio."""
        return self.electronic.energy_per_bit_fj / self.hyppi.energy_per_bit_fj

    @property
    def area_ratio_photonic_over_hyppi(self) -> float:
        """The "two orders of magnitude smaller than all-photonic" claim."""
        return self.photonic.area_mm2 / self.hyppi.area_mm2


def _all_optical_projection(
    technology: Technology,
    traffic: TrafficMatrix,
    electronic_latency_clks: float,
    *,
    width: int,
    height: int,
    core_spacing_m: float,
    flit_bits: int,
) -> NocProjection:
    topo = build_mesh(
        width, height, link_technology=technology, core_spacing_m=core_spacing_m
    )
    routing = RoutingTable(topo)
    loss_model = PathLossModel(topology=topo, technology=technology, routing=routing)
    router = optical_router_for(technology)

    avg_loss_db = loss_model.average_loss_db(traffic)
    laser_fj = path_laser_energy_fj_per_bit(technology, avg_loss_db)

    # Average routers traversed = mean hops + 1.
    n = topo.n_nodes
    dist = traffic.mean_distance(routing.flat_paths.length.reshape(n, n))
    routers_on_path = dist + 1.0
    control_fj = router.control_energy_fj_per_bit() * routers_on_path
    energy_fj = laser_fj + control_fj

    # Area: optical routers + waveguides (+ per-node E-O/O-E interfaces).
    from repro.tech.parameters import optical_params

    p = optical_params(technology)
    router_area_um2 = router.area_um2() * topo.n_nodes
    waveguide_area_um2 = sum(
        p.waveguide.pitch_um * l.length_m * 1e6 for l in topo.links
    )
    endpoint_area_um2 = topo.n_nodes * (
        p.laser.area_um2 + p.modulator.area_um2 + p.photodetector.area_um2
    )
    area_mm2 = (router_area_um2 + waveguide_area_um2 + endpoint_area_um2) * 1e-6

    return NocProjection(
        name=f"all-{technology.value}",
        latency_clks=paper_latency_approximation(electronic_latency_clks),
        energy_per_bit_fj=energy_fj,
        area_mm2=area_mm2,
    )


def project_all_optical(
    *,
    width: int = 16,
    height: int = 16,
    core_spacing_m: float = 1e-3,
    flit_bits: int = 64,
    injection_rate: float = 0.1,
    amortization_injection_rate: float = 0.001,
    clock_hz: float = 0.78125e9,
    seed: int = 0,
) -> AllOpticalComparison:
    """Compute the Fig. 8 three-way comparison.

    Args:
        width, height: mesh dimensions (paper: 16x16).
        core_spacing_m: physical link length (paper: 1 mm).
        flit_bits: flit width for bit-rate conversion.
        injection_rate: synthetic traffic rate for the *pattern* (Sec. III-B).
        amortization_injection_rate: utilization at which the electronic
            mesh's power is amortized into energy/bit (application-level).
        clock_hz: core clock.
        seed: traffic seed.
    """
    if amortization_injection_rate <= 0:
        raise ValueError(
            f"amortization rate must be > 0, got {amortization_injection_rate}"
        )
    e_mesh = build_mesh(
        width, height, link_technology=Technology.ELECTRONIC,
        core_spacing_m=core_spacing_m,
    )
    routing = RoutingTable(e_mesh)
    traffic = soteriou_traffic(e_mesh, injection_rate=injection_rate, seed=seed)

    e_latency = average_latency_cycles(e_mesh, traffic, routing)
    amortized = traffic.scaled_to_injection_rate(amortization_injection_rate)
    e_power = network_power(e_mesh, amortized, routing, clock_hz=clock_hz)
    delivered_bps = (
        e_mesh.n_nodes * amortization_injection_rate * flit_bits * clock_hz
    )
    e_energy_fj = e_power.total_w / delivered_bps * 1e15
    electronic = NocProjection(
        name="electronic-mesh",
        latency_clks=e_latency,
        energy_per_bit_fj=e_energy_fj,
        area_mm2=network_area_m2(e_mesh) * 1e6,
    )

    photonic = _all_optical_projection(
        Technology.PHOTONIC, traffic, e_latency,
        width=width, height=height, core_spacing_m=core_spacing_m,
        flit_bits=flit_bits,
    )
    hyppi = _all_optical_projection(
        Technology.HYPPI, traffic, e_latency,
        width=width, height=height, core_spacing_m=core_spacing_m,
        flit_bits=flit_bits,
    )
    return AllOpticalComparison(
        electronic=electronic, photonic=photonic, hyppi=hyppi
    )

"""The power roll-ups equal the per-component loops, bit for bit.

:mod:`repro.analysis.power` evaluates each DSENT figure once per
component class and reduces over figure columns. This module keeps the
straightforward per-router / per-link loops as the reference and
requires exact equality (``float.hex``, never ``approx``) for every
roll-up on the plain mesh and on a HyPPI-base x15 express mesh.
"""

import numpy as np
import pytest

from repro.analysis import power
from repro.analysis.flows import assign_flows
from repro.tech import Technology
from repro.topology import RoutingTable, build_express_mesh, build_mesh
from repro.traffic import TrafficMatrix, soteriou_traffic


def _router(topo, node):
    return power.evaluate_router(power.router_config_for_node(topo, node))


def _link(topo, link_id):
    return power.evaluate_link(power.link_config_for(topo, link_id))


def ref_per_flit_energies(topo):
    router_j = np.array(
        [_router(topo, n).dynamic_j_per_flit for n in range(topo.n_nodes)]
    )
    link_j = np.array([_link(topo, l).dynamic_j_per_flit for l in range(topo.n_links)])
    return router_j, link_j


def ref_dynamic_energy_from_counts(topo, router_counts, link_counts):
    router_j = 0.0
    for node in range(topo.n_nodes):
        router_j += float(router_counts[node]) * _router(topo, node).dynamic_j_per_flit
    link_j = 0.0
    for link_id in range(topo.n_links):
        link_j += float(link_counts[link_id]) * _link(topo, link_id).dynamic_j_per_flit
    return router_j, link_j


def ref_network_static_power_w(topo):
    total = 0.0
    for node in range(topo.n_nodes):
        total += _router(topo, node).static_w
    for link_id in range(topo.n_links):
        total += _link(topo, link_id).static_w
    return total


def ref_network_power(topo, traffic, routing, clock_hz=power.CORE_CLOCK_HZ):
    flows = assign_flows(topo, traffic, routing)
    router_static = router_dynamic = 0.0
    for node in range(topo.n_nodes):
        rf = _router(topo, node)
        router_static += rf.static_w
        router_dynamic += flows.router_flow[node] * clock_hz * rf.dynamic_j_per_flit
    link_static = link_dynamic = 0.0
    for link_id in range(topo.n_links):
        fig = _link(topo, link_id)
        link_static += fig.static_w
        link_dynamic += flows.link_flow[link_id] * clock_hz * fig.dynamic_j_per_flit
    return router_static, link_static, router_dynamic, link_dynamic


def ref_network_area_m2(topo):
    total = 0.0
    for node in range(topo.n_nodes):
        total += _router(topo, node).area_m2
    for link_id in range(topo.n_links):
        total += _link(topo, link_id).area_m2
    return total


def ref_trace_dynamic_energy_j(topo, counts, routing):
    flows = assign_flows(topo, counts, routing)
    router_j = 0.0
    for node in range(topo.n_nodes):
        router_j += flows.router_flow[node] * _router(topo, node).dynamic_j_per_flit
    link_j = 0.0
    for link_id in range(topo.n_links):
        link_j += flows.link_flow[link_id] * _link(topo, link_id).dynamic_j_per_flit
    return router_j, link_j


def _hex(*values) -> list[str]:
    return [float(v).hex() for v in values]


@pytest.fixture(
    scope="module",
    params=["plain", "hyppi-base-x15"],
)
def case(request):
    if request.param == "plain":
        topo = build_mesh(16, 16)
    else:
        topo = build_express_mesh(
            16,
            16,
            hops=15,
            base_technology=Technology.HYPPI,
            express_technology=Technology.ELECTRONIC,
        )
    routing = RoutingTable(topo)
    traffic = soteriou_traffic(topo, injection_rate=0.1, seed=7)
    rng = np.random.default_rng(11)
    counts = rng.integers(0, 1000, size=(topo.n_nodes, topo.n_nodes)).astype(float)
    np.fill_diagonal(counts, 0.0)
    return topo, routing, traffic, TrafficMatrix(counts)


def test_per_flit_energies(case):
    topo = case[0]
    got, ref = power.per_flit_energies(topo), ref_per_flit_energies(topo)
    for g, r in zip(got, ref):
        assert g.dtype == np.float64
        assert g.tolist() == r.tolist()


def test_dynamic_energy_from_counts(case):
    topo = case[0]
    rng = np.random.default_rng(3)
    router_counts = rng.integers(0, 10**6, size=topo.n_nodes)
    link_counts = rng.integers(0, 10**6, size=topo.n_links)
    got = power.dynamic_energy_from_counts(topo, router_counts, link_counts)
    ref = ref_dynamic_energy_from_counts(topo, router_counts, link_counts)
    assert _hex(got.router_dynamic_j, got.link_dynamic_j) == _hex(*ref)


def test_network_static_power_w(case):
    topo = case[0]
    assert _hex(power.network_static_power_w(topo)) == _hex(
        ref_network_static_power_w(topo)
    )


def test_network_power(case):
    topo, routing, traffic, _ = case
    got = power.network_power(topo, traffic, routing)
    assert _hex(
        got.router_static_w, got.link_static_w, got.router_dynamic_w, got.link_dynamic_w
    ) == _hex(*ref_network_power(topo, traffic, routing))


def test_network_area_m2(case):
    topo = case[0]
    assert _hex(power.network_area_m2(topo)) == _hex(ref_network_area_m2(topo))


def test_trace_dynamic_energy_j(case):
    topo, routing, _, counts = case
    got = power.trace_dynamic_energy_j(topo, counts, routing)
    assert _hex(got.router_dynamic_j, got.link_dynamic_j) == _hex(
        *ref_trace_dynamic_energy_j(topo, counts, routing)
    )

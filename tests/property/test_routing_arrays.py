"""Property tests: the routing table's arrays equal a per-pair walk.

:class:`~repro.topology.routing.RoutingTable` compiles its per-line
next-hop tables into a dense next-link LUT and flat all-pairs path
arrays, and the analytical flow and latency evaluation reduce over those
arrays. These tests keep the straightforward versions — a hop-by-hop
walk over ``_row_next``/``_col_next`` and the per-pair accumulation
loops — and require *exact* equality (``==``, never ``approx``) on
plain, express, torus, custom-placement and non-square topologies.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.analysis import assign_flows, average_latency_cycles, link_latency_cycles
from repro.tech import Technology
from repro.topology import (
    ExpressSpec,
    RoutingTable,
    build_custom_express_mesh,
    build_express_mesh,
    build_mesh,
    build_torus,
)
from repro.traffic import TrafficMatrix

technologies = st.sampled_from(list(Technology))


@st.composite
def topologies(draw):
    kind = draw(st.sampled_from(["mesh", "express", "torus", "custom"]))
    if kind == "mesh":
        return build_mesh(draw(st.integers(2, 9)), draw(st.integers(2, 9)))
    if kind == "express":
        hops = draw(st.sampled_from([3, 5, 15]))
        width = draw(st.integers(hops + 1, max(hops + 1, 11)))
        height = draw(st.integers(2, 3 if hops == 15 else 7))
        return build_express_mesh(
            width,
            height,
            hops=hops,
            base_technology=draw(technologies),
            express_technology=draw(technologies),
        )
    if kind == "torus":
        return build_torus(draw(st.integers(2, 7)), draw(st.integers(2, 7)))
    width, height = draw(st.integers(3, 10)), draw(st.integers(2, 6))
    spans = [
        (row, a, b)
        for row in range(height)
        for a in range(width)
        for b in range(a + 2, width)
    ]
    chosen = draw(st.lists(st.sampled_from(spans), unique=True, max_size=6))
    express = [
        ExpressSpec(row, b, a) if draw(st.booleans()) else ExpressSpec(row, a, b)
        for row, a, b in chosen
    ]
    return build_custom_express_mesh(
        width, height, express=express, express_technology=draw(technologies)
    )


def _reference_path(rt: RoutingTable, src: int, dst: int) -> list[int]:
    """Link ids from ``src`` to ``dst``, one next-hop lookup at a time."""
    topo = rt.topology
    links: list[int] = []
    node = src
    while node != dst:
        cx, cy = topo.coords(node)
        dx, dy = topo.coords(dst)
        if cx != dx:
            nxt = topo.node_id(rt._row_next[cy][cx][dx], cy)
        else:
            nxt = topo.node_id(cx, rt._col_next[cx][cy][dy])
        links.append(topo.find_link(node, nxt).link_id)
        node = nxt
        assert len(links) <= 4 * (topo.width + topo.height)
    return links


def _reference_paths(rt: RoutingTable) -> dict[tuple[int, int], list[int]]:
    n = rt.topology.n_nodes
    return {(s, d): _reference_path(rt, s, d) for s in range(n) for d in range(n)}


def _traffic(n: int, seed: int, density: float) -> TrafficMatrix:
    rng = np.random.default_rng(seed)
    m = rng.random((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(m, 0.0)
    if m.sum() == 0:
        m[0, 1] = 1.0
    return TrafficMatrix(m)


@settings(max_examples=40, deadline=None)
@given(topologies())
@example(build_torus(2, 3))  # wrap links parallel to regular ones
def test_lut_and_flat_paths_equal_reference_walk(topo):
    rt = RoutingTable(topo)
    ref = _reference_paths(rt)
    n = topo.n_nodes
    lut = np.full((n, n), -1)
    for (s, d), path in ref.items():
        if path:
            lut[s, d] = path[0]
    assert np.array_equal(rt.route_lut, lut)

    flat = rt.flat_paths
    order = sorted(ref)  # pair-major, hop-minor
    assert flat.link.tolist() == [l for pair in order for l in ref[pair]]
    assert flat.pair.tolist() == [
        s * n + d for (s, d) in order for _ in ref[(s, d)]
    ]
    assert flat.length.tolist() == [len(ref[pair]) for pair in order]
    for s, d in order:
        assert [l.link_id for l in rt.path(s, d)] == ref[(s, d)]
        assert rt.hop_count(s, d) == len(ref[(s, d)])
        if s != d:
            assert rt.next_link(s, d).link_id == ref[(s, d)][0]


@settings(max_examples=30, deadline=None)
@given(
    topologies(),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 1.0),
    st.integers(1, 4),
    st.integers(1, 8),
)
def test_average_latency_equals_reference_loop(topo, seed, density, pipeline, flits):
    rt = RoutingTable(topo)
    tm = _traffic(topo.n_nodes, seed, density)
    m = tm.matrix
    weighted = 0.0
    for s in range(topo.n_nodes):
        for d in np.nonzero(m[s])[0]:
            cycles = 0
            for link_id in _reference_path(rt, s, int(d)):
                tech = topo.links[link_id].technology
                cycles += pipeline + link_latency_cycles(tech)
            cycles += pipeline + flits - 1
            weighted += m[s, d] * cycles
    expected = float(weighted / m.sum())
    got = average_latency_cycles(
        topo, tm, rt, router_pipeline=pipeline, packet_flits=flits
    )
    assert got == expected


@settings(max_examples=30, deadline=None)
@given(topologies(), st.integers(0, 2**32 - 1), st.floats(0.05, 1.0))
def test_assign_flows_equals_reference_loop(topo, seed, density):
    rt = RoutingTable(topo)
    tm = _traffic(topo.n_nodes, seed, density)
    m = tm.matrix
    n = topo.n_nodes
    link_flow = np.zeros(topo.n_links)
    router_flow = np.zeros(n)
    hops = np.zeros((n, n))
    for s in range(n):
        for d in range(n):
            path = _reference_path(rt, s, d)
            hops[s, d] = len(path)
            for link_id in path:
                link_flow[link_id] += m[s, d]
                router_flow[topo.links[link_id].dst] += m[s, d]
    for s in range(n):
        router_flow[s] += m[s].sum()

    flows = assign_flows(topo, tm, rt)
    assert flows.link_flow.tolist() == link_flow.tolist()
    assert flows.router_flow.tolist() == router_flow.tolist()
    assert flows.mean_hops == float((hops.ravel() * m.ravel()).sum() / m.sum())
    assert flows.total_traffic == float(m.sum())

"""Routes are compiled once per link geometry and shared read-only.

A route depends only on the grid and on each link's endpoints and
express flag, never on a link's technology or length, so every
:class:`RoutingTable` over one geometry views the same ``route_lut``,
``link_dst`` and ``flat_paths`` arrays. These tests pin which topologies
share, that sharing never leaks a writeable array, and that the cache
stays bounded.
"""

import numpy as np
import pytest

from repro.tech import Technology
from repro.topology import (
    ExpressSpec,
    RoutingTable,
    build_custom_express_mesh,
    build_express_mesh,
    build_mesh,
)
from repro.topology import routing as routing_mod


def _arrays(rt: RoutingTable) -> list[np.ndarray]:
    return [rt.route_lut, rt.link_dst, *rt.flat_paths]


def _express(base: Technology, express: Technology, hops: int = 3):
    return build_express_mesh(
        16, 16, hops=hops, base_technology=base, express_technology=express
    )


def test_express_technologies_share_one_route_set():
    tables = [
        RoutingTable(_express(Technology.ELECTRONIC, express))
        for express in (Technology.ELECTRONIC, Technology.PHOTONIC, Technology.HYPPI)
    ]
    first = _arrays(tables[0])
    for rt in tables[1:]:
        assert all(a is b for a, b in zip(_arrays(rt), first))
    # Each view answers with its own topology's link objects.
    paths = [rt.path(0, 255) for rt in tables]
    for rt, path in zip(tables, paths):
        assert all(link is rt.topology.links[link.link_id] for link in path)
        assert rt.next_link(0, 255) is path[0]
    assert len({tuple(link.link_id for link in path) for path in paths}) == 1
    assert len({link.technology for path in paths for link in path}) == 3


def test_base_technology_and_length_do_not_split_routes():
    a = RoutingTable(build_mesh(8, 8))
    b = RoutingTable(
        build_mesh(8, 8, link_technology=Technology.HYPPI, core_spacing_m=2e-3)
    )
    assert a.topology is not b.topology
    assert all(x is y for x, y in zip(_arrays(a), _arrays(b)))


def test_shared_arrays_are_read_only():
    rt = RoutingTable(_express(Technology.HYPPI, Technology.HYPPI))
    for arr in _arrays(rt):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_other_geometries_do_not_share():
    x3 = RoutingTable(_express(Technology.ELECTRONIC, Technology.HYPPI, hops=3))
    x5 = RoutingTable(_express(Technology.ELECTRONIC, Technology.HYPPI, hops=5))
    plain = RoutingTable(build_mesh(16, 16))
    # The same count of express links as the x5 mesh, placed elsewhere.
    custom_topo = build_custom_express_mesh(
        16,
        16,
        express=[ExpressSpec(row, a, a + 5) for row in range(16) for a in (1, 6)],
    )
    custom = RoutingTable(custom_topo)
    groups = [x3, x5, plain, custom]
    for i, a in enumerate(groups):
        for b in groups[i + 1 :]:
            assert a.route_lut is not b.route_lut
            assert a.flat_paths.link is not b.flat_paths.link
    assert not np.array_equal(x5.route_lut, custom.route_lut)


def test_route_cache_is_bounded():
    cache = routing_mod._compiled_routes
    assert cache.cache_info().maxsize == 8
    first = RoutingTable(build_mesh(2, 2))
    for width in range(3, 13):
        RoutingTable(build_mesh(width, 2))
    assert cache.cache_info().currsize <= 8
    # The evicted geometry compiles again, to equal arrays; the view
    # built before the eviction keeps its own.
    again = RoutingTable(build_mesh(2, 2))
    assert again.route_lut is not first.route_lut
    assert np.array_equal(again.route_lut, first.route_lut)

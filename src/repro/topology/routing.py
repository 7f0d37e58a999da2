"""Oblivious shortest-path routing (X-Y dimension order + express links).

The paper routes with "an oblivious shortest-path routing method ... to
match the routing technique used in the BookSim 2.0 simulator for custom
networks". For meshes with *horizontal* express links this means:

* the X dimension is traversed first, the Y dimension second (dimension
  order), and
* the X traversal takes the true hop-count-shortest route through the row's
  link graph — including *detours*: with Hops=15 a packet from column 2 to
  column 14 walks west to column 0, rides the full-row express, and steps
  back west from column 15 (4 hops instead of 12). This is exactly why the
  paper calls the Hops=15 network "effectively a 2D torus".

Row routing is computed by BFS over the 1-D row graph (identical for every
row) with deterministic tie-breaking that prefers monotone progress toward
the destination, so ties resolve to plain X-Y behaviour. The next-hop
function depends only on (current column, destination column), making
routing memoryless — the cycle simulator's per-hop lookups and the
analytical path enumeration provably agree.

The whole routing function is held as arrays: a dense next-link LUT
(``route_lut[node, dst]``) read by both simulator engines, and the
all-pairs paths flattened into pair-major link arrays
(:class:`FlatPaths`) read by the analytical flow, latency and power
evaluation. The per-pair ``path``/``next_link`` accessors are views of
those arrays.

Deadlock note: detour routes create torus-like cyclic channel dependencies
in a wormhole network; the simulator breaks them with dateline VC classes
(see :mod:`repro.simulation.simulator`).
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.topology.graph import Link, LinkKind, Topology

__all__ = ["route_path", "FlatPaths", "RoutingTable"]

LineGraph = dict[int, list[tuple[int, bool]]]


def _line_graphs(topo: Topology) -> tuple[list[LineGraph], list[LineGraph]]:
    """Adjacency of every grid line: position -> [(next_pos, is_express)].

    Returns ``(rows, cols)``: ``rows[y]`` over column positions and
    ``cols[x]`` over row positions, built in one pass over the links.
    Lines are handled individually so heterogeneous express placements
    (different rows owning different express links) route correctly.
    """
    rows: list[LineGraph] = [
        {c: [] for c in range(topo.width)} for _ in range(topo.height)
    ]
    cols: list[LineGraph] = [
        {r: [] for r in range(topo.height)} for _ in range(topo.width)
    ]
    for link in topo.links:
        sx, sy = topo.coords(link.src)
        dx, dy = topo.coords(link.dst)
        express = link.kind is LinkKind.EXPRESS
        if sy == dy:
            rows[sy][sx].append((dx, express))
        elif sx == dx:
            cols[sx][sy].append((dy, express))
    return rows, cols


def _line_next_hop_table(adj: LineGraph) -> list[list[int]]:
    """``next_pos[cur][dst]`` for one grid line (-1 when cur == dst).

    BFS distances from every destination; among shortest-path neighbours
    the tie-break prefers (1) a regular step toward the destination,
    (2) an express toward the destination, (3) any other shortest option in
    ascending position order — so plain-mesh behaviour falls out wherever a
    detour does not strictly win.
    """
    width = len(adj)
    table = [[-1] * width for _ in range(width)]
    for dst in range(width):
        # dist[c]: hops from position c to destination position dst.
        dist = [-1] * width
        dist[dst] = 0
        queue = deque([dst])
        while queue:
            cur = queue.popleft()
            for nxt, _ in adj[cur]:
                # Row links are bidirectional, so reverse BFS can reuse adj.
                if dist[nxt] < 0:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
        for cur in range(width):
            if cur == dst:
                continue
            candidates = [
                (nxt, express)
                for nxt, express in adj[cur]
                if dist[nxt] == dist[cur] - 1
            ]
            if not candidates:  # pragma: no cover - lines are connected
                raise RuntimeError(f"line graph disconnected at position {cur}")

            def rank(cand: tuple[int, bool]) -> tuple[int, int]:
                nxt, express = cand
                toward = (dst - cur) * (nxt - cur) > 0
                if toward and not express:
                    order = 0
                elif toward:
                    order = 1
                else:
                    order = 2
                return (order, nxt)

            table[cur][dst] = min(candidates, key=rank)[0]
    return table


def route_path(topo: Topology, src: int, dst: int) -> list[Link]:
    """The deterministic X-then-Y shortest path from ``src`` to ``dst``.

    Convenience wrapper building a throwaway table; use
    :class:`RoutingTable` for repeated queries.
    """
    return RoutingTable(topo).path_list(src, dst)


class FlatPaths(NamedTuple):
    """All-pairs routes as flat arrays, in pair-major, hop-minor order.

    A *pair index* is ``src * n_nodes + dst``. Hop ``k`` of pair ``p``
    sits at flat position ``start[p] + k``.

    Attributes:
        pair: pair index of every hop, shape ``(n_hops,)``.
        link: link id of every hop, shape ``(n_hops,)``.
        length: hops per pair (0 on the diagonal), shape ``(n_nodes**2,)``.
        start: flat position of each pair's first hop, same shape.
    """

    pair: np.ndarray
    link: np.ndarray
    length: np.ndarray
    start: np.ndarray


class RoutingTable:
    """All-pairs deterministic router for one topology.

    Per-line next-hop tables (X phase along the row, then Y along the
    column) are compiled into :attr:`route_lut`; :attr:`flat_paths` walks
    every pair through it in lockstep, once, on first use.
    """

    def __init__(self, topo: Topology):
        self.topology = topo
        rows, cols = _line_graphs(topo)
        # Lines with identical link sets share one BFS (every row of a
        # uniform express mesh does).
        tables: dict[tuple, list[list[int]]] = {}

        def table(adj: LineGraph) -> list[list[int]]:
            key = tuple(map(tuple, adj.values()))
            if key not in tables:
                tables[key] = _line_next_hop_table(adj)
            return tables[key]

        self._row_next = [table(adj) for adj in rows]
        self._col_next = [table(adj) for adj in cols]
        #: Per-link destination node.
        self.link_dst = np.fromiter(
            (l.dst for l in topo.links), dtype=np.int64, count=topo.n_links
        )
        #: ``route_lut[node, dst]``: the link id a router at ``node``
        #: forwards toward ``dst`` (-1 on the diagonal).
        self.route_lut = self._build_lut()

    def _build_lut(self) -> np.ndarray:
        topo = self.topology
        w, h, n = topo.width, topo.height, topo.n_nodes
        # Links sorted by (src, dst) key; the stable sort puts the lowest
        # id first among parallel links, which is the one routing takes.
        link_keys = np.fromiter(
            (l.src * n + l.dst for l in topo.links), dtype=np.int64, count=topo.n_links
        )
        order = np.argsort(link_keys, kind="stable")
        sorted_keys = link_keys[order]

        def step_links(src, dst, valid):
            """Link id of each node step ``src -> dst`` (-1 where not valid)."""
            keys = np.where(valid, src * n + dst, -1)
            pos = np.minimum(np.searchsorted(sorted_keys, keys), len(order) - 1)
            missing = valid & (sorted_keys[pos] != keys)
            if missing.any():  # pragma: no cover - adjacency invariant
                s, d = divmod(int(keys[missing][0]), n)
                raise RuntimeError(f"no link {s} -> {d}")
            return np.where(valid, order[pos], -1)

        xs, ys = np.arange(w), np.arange(h)
        row_next = np.asarray(self._row_next, dtype=np.int64)  # [y, cx, dx]
        col_next = np.asarray(self._col_next, dtype=np.int64)  # [x, cy, dy]
        # The X step from (cx, y) toward column dx, and the Y step from
        # (x, cy) toward row dy.
        row_link = step_links(
            ys[:, None, None] * w + xs[None, :, None],
            ys[:, None, None] * w + row_next,
            row_next >= 0,
        )
        col_link = step_links(
            ys[None, :, None] * w + xs[:, None, None],
            col_next * w + xs[:, None, None],
            col_next >= 0,
        )
        # lut[(cy, cx), (dy, dx)]: the X step while cx != dx, else the Y
        # step (-1 on the diagonal, where the Y table has no step either).
        same_col = np.eye(w, dtype=bool)[None, :, None, :]
        lut = np.where(
            same_col, col_link.transpose(1, 0, 2)[..., None], row_link[:, :, None, :]
        ).reshape(n, n)
        lut.flags.writeable = False
        return lut

    @cached_property
    def flat_paths(self) -> FlatPaths:
        """Every pair's path, walked in lockstep through the LUT."""
        topo = self.topology
        n = topo.n_nodes
        src, dst = np.nonzero(~np.eye(n, dtype=bool))
        pair = src * n + dst
        cur = src
        hop_pairs: list[np.ndarray] = []
        hop_links: list[np.ndarray] = []
        limit = 4 * (topo.width + topo.height)
        while pair.size:
            if len(hop_pairs) == limit:  # pragma: no cover - LUT invariant
                s, d = divmod(int(pair[0]), n)
                raise RuntimeError(f"routing loop from {s} to {d}")
            link = self.route_lut[cur, dst]
            hop_pairs.append(pair)
            hop_links.append(link)
            cur = self.link_dst[link]
            going = cur != dst
            pair, cur, dst = pair[going], cur[going], dst[going]
        length = np.bincount(np.concatenate(hop_pairs), minlength=n * n)
        start = np.cumsum(length) - length
        flat_link = np.empty(int(length.sum()), dtype=np.int64)
        for k, (p, link) in enumerate(zip(hop_pairs, hop_links)):
            flat_link[start[p] + k] = link
        flat = FlatPaths(
            pair=np.repeat(np.arange(n * n, dtype=np.int64), length),
            link=flat_link,
            length=length,
            start=start,
        )
        for arr in flat:
            arr.flags.writeable = False
        return flat

    def _pair(self, src: int, dst: int) -> int:
        n = self.topology.n_nodes
        for node in (src, dst):
            if not 0 <= node < n:
                raise ValueError(f"node {node} outside 0..{n - 1}")
        return src * n + dst

    def path(self, src: int, dst: int) -> tuple[Link, ...]:
        """Ordered links from ``src`` to ``dst``."""
        p = self._pair(src, dst)
        flat = self.flat_paths
        lo = int(flat.start[p])
        links = self.topology.links
        return tuple(
            links[i] for i in flat.link[lo : lo + int(flat.length[p])].tolist()
        )

    def path_list(self, src: int, dst: int) -> list[Link]:
        """``path`` as a fresh list (the legacy ``route_path`` contract)."""
        return list(self.path(src, dst))

    def hop_count(self, src: int, dst: int) -> int:
        """Number of links traversed from ``src`` to ``dst``."""
        return int(self.flat_paths.length[self._pair(src, dst)])

    def next_link(self, current: int, dst: int) -> Link:
        """The link a router at ``current`` forwards toward ``dst``.

        Memoryless: equals the first link of :meth:`path` from ``current``.
        """
        if current == dst:
            raise ValueError("already at destination")
        self._pair(current, dst)
        return self.topology.links[int(self.route_lut[current, dst])]

    def build_all(self) -> None:
        """Force-build the all-pairs path arrays."""
        self.flat_paths

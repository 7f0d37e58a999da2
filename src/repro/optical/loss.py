"""End-to-end optical path loss through an all-optical NoC.

"the losses incurred along the entire path from source to destination for
each flit was computed, and the laser power was estimated accordingly"
(paper, Section V). A path's loss is:

* modulator insertion loss + coupler losses at the source (Table I);
* per traversed router, the (in-port, out-port) fabric loss under the
  optimal port assignment;
* waveguide propagation loss over the physical route length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.optical.router import (
    OpticalRouterModel,
    optical_router_for,
    optimal_port_assignment,
)
from repro.tech.parameters import OpticalTechnologyParams, Technology, optical_params
from repro.topology.graph import Topology
from repro.topology.routing import RoutingTable

__all__ = ["PathLossModel", "Direction"]

#: Direction encoding shared with the router model: 0=N, 1=E, 2=S, 3=W, 4=Local.
Direction = int
_LOCAL: Direction = 4


@lru_cache(maxsize=4)
def _assignment_for(technology: Technology) -> tuple[tuple[int, ...], float]:
    return optimal_port_assignment(optical_router_for(technology))


@dataclass
class PathLossModel:
    """Loss calculator for one all-optical network technology."""

    topology: Topology
    technology: Technology
    routing: RoutingTable

    def __post_init__(self) -> None:
        if not self.technology.is_optical:
            raise ValueError(f"{self.technology} is not optical")
        self.router: OpticalRouterModel = optical_router_for(self.technology)
        self.params: OpticalTechnologyParams = optical_params(self.technology)
        self.assignment, self.expected_router_loss_db = _assignment_for(
            self.technology
        )

    def _direction(self, from_node: int, to_node: int) -> Direction:
        fx, fy = self.topology.coords(from_node)
        tx, ty = self.topology.coords(to_node)
        if ty < fy:
            return 0  # N
        if tx > fx:
            return 1  # E
        if ty > fy:
            return 2  # S
        if tx < fx:
            return 3  # W
        raise ValueError(f"nodes {from_node} and {to_node} are co-located")

    def path_loss_db(self, src: int, dst: int) -> float:
        """Total source-to-destination optical loss, dB."""
        if src == dst:
            raise ValueError("no optical path to self")
        path = self.routing.path(src, dst)
        p = self.params
        loss = p.total_fixed_loss_db()
        # Propagation over the physical route.
        total_length_m = sum(link.length_m for link in path)
        loss += p.propagation_loss_db(total_length_m)
        # Router fabric losses. The source router is traversed from the
        # Local port; the destination router exits to the Local port.
        assign = self.assignment
        current = src
        in_dir: Direction = _LOCAL
        for link in path:
            out_dir = self._direction(current, link.dst)
            loss += self.router.loss_db(assign[in_dir], assign[out_dir])
            # Entering the next router from the opposite direction.
            in_dir = {0: 2, 1: 3, 2: 0, 3: 1}[out_dir]
            current = link.dst
        loss += self.router.loss_db(assign[in_dir], assign[_LOCAL])
        return loss

    def _pair_losses(self) -> np.ndarray:
        """:meth:`path_loss_db` of every pair, dB, indexed ``src * n + dst``.

        Reduces over the routing table's flat paths instead of walking
        each pair: a hop's direction comes from its link's endpoints and
        its fabric loss from a 5x5 table of (in, out) direction losses.
        Each pair's terms are added in :meth:`path_loss_db`'s order
        (fixed + propagation, hop losses, exit) by one ``bincount``, so
        every loss is bit-identical to it. The diagonal reads 0.

        Raises:
            ValueError: if any hop maps to an illegal (u-turn) port pair.
        """
        topo, flat = self.topology, self.routing.flat_paths
        n, w = topo.n_nodes, topo.width
        src = np.fromiter((l.src for l in topo.links), np.int64, topo.n_links)
        dst = self.routing.link_dst
        sx, sy, dx, dy = src % w, src // w, dst % w, dst // w
        # Each link's direction of travel, tested in _direction's order.
        direction = np.select(
            [dy < sy, dx > sx, dy > sy, dx < sx], [0, 1, 2, 3], default=_LOCAL
        )
        assign, dirs = self.assignment, range(_LOCAL + 1)
        table = np.array(
            [
                [self.router.loss_db(assign[i], assign[o]) if i != o else np.nan
                 for o in dirs]
                for i in dirs
            ]
        )

        # A hop enters its router from the Local port (first hop) or from
        # the direction opposite the previous hop's.
        routed = np.flatnonzero(flat.length)
        out_dir = direction[flat.link]
        in_dir = np.empty_like(out_dir)
        in_dir[1:] = (out_dir[:-1] + 2) % 4
        in_dir[flat.start[routed]] = _LOCAL
        last_out = out_dir[flat.start[routed] + flat.length[routed] - 1]
        hop_loss = table[in_dir, out_dir]
        exit_loss = table[(last_out + 2) % 4, _LOCAL]
        if np.isnan(hop_loss).any():
            k = int(np.flatnonzero(np.isnan(hop_loss))[0])
            self.router.loss_db(assign[in_dir[k]], assign[out_dir[k]])  # raises

        p = self.params
        link_length = np.fromiter(
            (l.length_m for l in topo.links), np.float64, topo.n_links
        )
        route_length = np.bincount(
            flat.pair, weights=link_length[flat.link], minlength=n * n
        )[routed]
        lengths, which = np.unique(route_length, return_inverse=True)
        propagation = np.array([p.propagation_loss_db(x) for x in lengths.tolist()])
        head = p.total_fixed_loss_db() + propagation[which]
        return np.bincount(
            np.concatenate((routed, flat.pair, routed)),
            weights=np.concatenate((head, hop_loss, exit_loss)),
            minlength=n * n,
        )

    def average_loss_db(self, traffic_matrix) -> float:
        """Traffic-weighted mean path loss, dB."""
        m = traffic_matrix.matrix
        total = m.sum()
        if total == 0:
            raise ValueError("zero traffic")
        rates = m.ravel()
        used = rates > 0
        if np.any(used.reshape(m.shape).diagonal()):
            raise ValueError("no optical path to self")
        # A left-to-right sum, as the per-pair loop it replaced added.
        weighted = np.cumsum(rates[used] * self._pair_losses()[used])[-1]
        return float(weighted / total)

    def worst_case_loss_db(self) -> float:
        """Maximum loss over all pairs (sets the laser power budget)."""
        topo = self.topology
        # Corner-to-corner routes dominate; checking the four corners
        # against all nodes covers the maximum for X-Y routing.
        corners = [
            topo.node_id(0, 0),
            topo.node_id(topo.width - 1, 0),
            topo.node_id(0, topo.height - 1),
            topo.node_id(topo.width - 1, topo.height - 1),
        ]
        # A corner's own diagonal entry reads 0, which the 0.0 floor
        # already covers.
        loss = self._pair_losses().reshape(topo.n_nodes, topo.n_nodes)
        return max(0.0, float(loss[corners].max()), float(loss[:, corners].max()))

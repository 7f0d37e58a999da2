"""Golden-run regression tests for the cycle simulator.

The hot-path optimizations in :mod:`repro.simulation.simulator` must not
change *any* observable behaviour: scheduling order, round-robin outcomes
and therefore every per-packet latency are part of the contract. These
tests pin the full :class:`~repro.simulation.simulator.SimStats` of a few
representative runs (plain mesh, express hybrids with multi-flit wormhole
packets, a saturated cycle-capped run) against a recorded golden file.

The golden file was recorded from the pre-optimization simulator; refresh
it only for *intentional* semantic changes::

    python tests/unit/test_simulator_golden.py --record
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.simulation import SimConfig, Simulator
from repro.topology import build_express_mesh, build_mesh, build_torus
from repro.traffic import PacketRecord, Trace

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "data" / "golden_simstats.json"


def _random_trace(
    seed: int, n_packets: int, *, n_nodes: int = 64, flits: int = 1, window: int = 400
) -> Trace:
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n_packets):
        s, d = rng.choice(n_nodes, size=2, replace=False)
        records.append(
            PacketRecord(int(rng.integers(0, window)), int(s), int(d), flits)
        )
    return Trace(n_nodes, records)


def _scenarios() -> dict[str, tuple[Simulator, Trace, int]]:
    """name -> (simulator, trace, max_cycles); deterministic by construction."""
    mesh = build_mesh(8, 8)
    h3 = build_express_mesh(8, 8, hops=3)
    h5 = build_express_mesh(8, 8, hops=5)
    return {
        "mesh-uniform": (Simulator(mesh), _random_trace(11, 160), 2_000_000),
        "express-h3-wormhole": (
            Simulator(h3),
            _random_trace(23, 90, flits=4),
            2_000_000,
        ),
        "express-h5-2vc": (
            Simulator(h5, config=SimConfig(n_vcs=2, vc_depth=4)),
            _random_trace(37, 120, flits=2),
            2_000_000,
        ),
        "mesh-saturated-capped": (
            Simulator(mesh),
            _random_trace(41, 600, flits=8, window=50),
            900,
        ),
        # Row datelines with the longest express span (torus-like detours).
        "express-h15-16x16": (
            Simulator(build_express_mesh(16, 16, hops=15)),
            _random_trace(43, 150, n_nodes=256, flits=2),
            2_000_000,
        ),
        # Column (wrap) express links: exercises the vc_class_y dateline.
        "torus-8x8": (
            Simulator(build_torus(8, 8)),
            _random_trace(47, 120, flits=2),
            2_000_000,
        ),
        # Shallow buffers on an odd VC split: heads park on credit-starved
        # ports while live requesters of the same port share vc_rr.
        "express-h5-3vc-starved": (
            Simulator(h5, config=SimConfig(n_vcs=3, vc_depth=2)),
            _random_trace(38, 600, flits=3, window=60),
            20_000,
        ),
    }


def _stats_record(name: str, *, engine: str = "interpreter") -> dict[str, object]:
    sim, trace, max_cycles = _scenarios()[name]
    if engine == "batched":
        from repro.simulation import BatchSimulator

        stats = BatchSimulator(sim.topology, sim.routing, sim.config).run(
            trace, max_cycles=max_cycles
        )
    else:
        stats = sim.run(trace, max_cycles=max_cycles)
    return {
        "n_packets": stats.n_packets,
        "n_flits": stats.n_flits,
        "cycles": stats.cycles,
        "drained": stats.drained,
        "packet_latencies": [int(v) for v in stats.packet_latencies],
        "link_flit_counts": [int(v) for v in stats.link_flit_counts],
        "router_flit_counts": [int(v) for v in stats.router_flit_counts],
    }


@pytest.mark.parametrize("name", sorted(_scenarios()))
def test_stats_match_golden(name: str) -> None:
    golden = json.loads(GOLDEN_PATH.read_text())
    assert name in golden, f"golden file has no entry {name!r}; re-record it"
    assert _stats_record(name) == golden[name]


@pytest.mark.parametrize("name", sorted(_scenarios()))
def test_batched_engine_matches_golden(name: str) -> None:
    """The batched engine reproduces every golden run bit-for-bit — the
    two-engine equivalence contract of :mod:`repro.simulation.batch`."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert name in golden, f"golden file has no entry {name!r}; re-record it"
    assert _stats_record(name, engine="batched") == golden[name]


def test_golden_json_is_canonical() -> None:
    """The golden file is byte-stable: re-serializing it is a no-op, so a
    refreshed recording diffs cleanly."""
    raw = GOLDEN_PATH.read_text()
    assert raw == json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n"


def _record() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    golden = {name: _stats_record(name) for name in sorted(_scenarios())}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} golden runs -> {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--record" not in sys.argv:
        sys.exit("usage: python tests/unit/test_simulator_golden.py --record")
    _record()

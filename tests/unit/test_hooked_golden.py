"""Golden runs of the interpreter's hooked paths.

``golden_simstats.json`` pins only plain runs. Closed-loop sessions,
online controllers and telemetry windows run only on the interpreter,
and a change that moved one credit return or one packet registration
inside such a run would still satisfy their relational properties
(conservation, replay determinism, sampling-invariance). These runs pin
them exactly: the full ``SimStats`` plus the closed-loop accounting, the
controller actions and the telemetry arrays of four 8x8 runs.

Refresh the recording only for an intended semantics change (and bump
``SEMANTICS_EPOCH``, see ``tests/unit/test_semantics_epoch.py``)::

    python tests/unit/test_hooked_golden.py --record
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.control import (
    ClosedLoopConfig,
    ClosedLoopSession,
    ControlSession,
    ThrottleController,
    VcBiasController,
)
from repro.simulation import Simulator, synthetic_trace
from repro.telemetry import TelemetryConfig
from repro.topology import build_express_mesh, build_mesh
from repro.traffic import hotspot_traffic, uniform_traffic

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "data" / "golden_hooked_simstats.json"
)

_TELEMETRY_FIELDS = (
    "starts",
    "ends",
    "link_flits",
    "router_flits",
    "occupied_vcs",
    "in_flight",
    "delivered",
    "latency_sum",
)


def _control(sim: Simulator, controller, window: int) -> ControlSession:
    return ControlSession(
        [controller],
        window=window,
        n_nodes=sim.topology.n_nodes,
        n_vcs=sim.config.n_vcs,
    )


def _run(name: str):
    """Run one named scenario; deterministic by construction."""
    mesh = build_mesh(8, 8)
    if name == "closed-loop-background":
        sim = Simulator(mesh)
        uni = uniform_traffic(mesh)
        demand = synthetic_trace(uni, injection_rate=0.2, cycles=150, seed=5)
        background = synthetic_trace(
            uni, injection_rate=0.05, cycles=150, packet_flits=2, seed=6
        )
        session = ClosedLoopSession(
            ClosedLoopConfig(window=2, think_cycles=4, reply_flits=2), demand
        )
        return sim.run(background, max_cycles=3000, closed_loop=session)
    if name == "throttle-saturating":
        sim = Simulator(mesh)
        trace = synthetic_trace(
            uniform_traffic(mesh), injection_rate=0.6, cycles=300, seed=7
        )
        control = _control(sim, ThrottleController(), 32)
        return sim.run(trace, max_cycles=500, control=control)
    if name == "vc-bias-hotspot":
        sim = Simulator(mesh)
        trace = synthetic_trace(
            hotspot_traffic(mesh, hotspot_fraction=0.6),
            injection_rate=0.25,
            cycles=400,
            packet_flits=2,
            seed=8,
        )
        control = _control(
            sim, VcBiasController(n_vcs=sim.config.n_vcs, factor=2.0), 64
        )
        return sim.run(trace, max_cycles=2000, control=control)
    if name == "telemetry-express-h3":
        h3 = build_express_mesh(8, 8, hops=3)
        sim = Simulator(h3)
        trace = synthetic_trace(
            uniform_traffic(h3), injection_rate=0.2, cycles=300, packet_flits=4,
            seed=9,
        )
        return sim.run(
            trace, max_cycles=3000, telemetry=TelemetryConfig(window=48)
        )
    raise KeyError(name)


SCENARIOS = (
    "closed-loop-background",
    "throttle-saturating",
    "vc-bias-hotspot",
    "telemetry-express-h3",
)


def _ints(values) -> list:
    return [int(v) for v in values]


def _record_of(name: str) -> dict[str, object]:
    stats = _run(name)
    out: dict[str, object] = {
        "n_packets": stats.n_packets,
        "n_flits": stats.n_flits,
        "cycles": stats.cycles,
        "drained": stats.drained,
        "packet_latencies": _ints(stats.packet_latencies),
        "link_flit_counts": _ints(stats.link_flit_counts),
        "router_flit_counts": _ints(stats.router_flit_counts),
    }
    if stats.closed_loop is not None:
        out["closed_loop"] = stats.closed_loop.to_json()
    if stats.control is not None:
        out["control"] = stats.control.to_json()
    tel = stats.telemetry
    if tel is not None:
        out["telemetry"] = {
            "cycles": tel.cycles,
            "dropped_windows": tel.dropped_windows,
            **{f: getattr(tel, f).tolist() for f in _TELEMETRY_FIELDS},
        }
    return out


@pytest.mark.parametrize("name", SCENARIOS)
def test_hooked_run_matches_golden(name: str) -> None:
    golden = json.loads(GOLDEN_PATH.read_text())
    assert name in golden, f"golden file has no entry {name!r}; re-record it"
    assert _record_of(name) == golden[name]


def test_golden_exercises_every_hook() -> None:
    """Each recording exercises what it claims: replies flow, both
    controllers act, and telemetry windows carry traffic."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["closed-loop-background"]["closed_loop"]["replies_delivered"] > 0
    for name, kind in (
        ("throttle-saturating", "throttle"),
        ("vc-bias-hotspot", "vc_limit"),
    ):
        actions = golden[name]["control"]["actions"]
        assert any(a["kind"] == kind for a in actions), name
        assert "telemetry" in golden[name]  # control implies sampling
    tel = golden["telemetry-express-h3"]["telemetry"]
    assert len(tel["starts"]) > 4 and sum(tel["delivered"]) > 0


def _canonical(golden: dict) -> str:
    return json.dumps(golden, sort_keys=True, separators=(",", ":")) + "\n"


def test_golden_json_is_canonical() -> None:
    raw = GOLDEN_PATH.read_text()
    assert raw == _canonical(json.loads(raw))


def _record() -> None:
    golden = {name: _record_of(name) for name in SCENARIOS}
    GOLDEN_PATH.write_text(_canonical(golden))
    print(f"recorded {len(golden)} hooked runs -> {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--record" not in sys.argv:
        sys.exit("usage: python tests/unit/test_hooked_golden.py --record")
    _record()

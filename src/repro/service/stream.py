"""Per-window trace rows for the service's streaming endpoint.

Jobs sampled with ``SimSpec.telemetry_window > 0`` (which always run
on the interpreter) expose their time-resolved record over HTTP as
newline-delimited JSON: one prologue object, then one row per telemetry
window (control actions attached to the window they fired in). Rows are
derived by replaying the scenario through the engine's single evaluation
recipe (:func:`repro.experiments.simulate_scenario`); evaluation purity
makes the replay identical to the run whose summary metrics the job
cached, so the stream and the metrics never disagree.
"""

from __future__ import annotations

from typing import Any

from repro.experiments import Scenario, simulate_scenario

__all__ = ["window_rows"]


def window_rows(scenario: Scenario) -> list[dict[str, Any]]:
    """Prologue + per-window rows for one telemetry-enabled scenario.

    Raises ``ValueError`` for scenarios that carry no windowed telemetry
    (non-simulation kinds, or ``telemetry_window == 0``).
    """
    if scenario.kind != "simulation" or scenario.sim is None:
        raise ValueError(
            f"{scenario.label}: only simulation scenarios stream windows"
        )
    if scenario.sim.telemetry_window < 1:
        raise ValueError(
            f"{scenario.label}: scenario has no telemetry "
            "(submit with sim.telemetry_window > 0)"
        )
    topo, stats = simulate_scenario(scenario)
    tel = stats.telemetry
    if tel is None:
        raise ValueError(f"{scenario.label}: run produced no telemetry")
    actions_by_window: dict[int, list[dict[str, Any]]] = {}
    if stats.control is not None:
        for a in stats.control.actions:
            actions_by_window.setdefault(int(a.window), []).append(
                {
                    "cycle": int(a.cycle),
                    "controller": a.controller,
                    "kind": a.kind,
                    "value": a.value,
                    "nodes": [int(n) for n in a.nodes],
                }
            )
    rows: list[dict[str, Any]] = [
        {
            "type": "prologue",
            "scenario": scenario.label,
            "topology": topo.name,
            "window_cycles": tel.window,
            "n_windows": tel.n_windows,
            "dropped_windows": tel.dropped_windows,
            "cycles": tel.cycles,
            "drained": bool(stats.drained),
        }
    ]
    for i in range(tel.n_windows):
        delivered = int(tel.delivered[i])
        latency_sum = int(tel.latency_sum[i])
        row: dict[str, Any] = {
            "type": "window",
            "window": i + tel.dropped_windows,
            "start": int(tel.starts[i]),
            "end": int(tel.ends[i]),
            "delivered": delivered,
            "avg_latency": (
                round(latency_sum / delivered, 6) if delivered else None
            ),
            "router_flits": int(tel.router_flits[i].sum()),
            "link_flits": int(tel.link_flits[i].sum()),
            "peak_link_flits": int(tel.link_flits[i].max())
            if tel.link_flits.shape[1]
            else 0,
            "occupied_vcs": int(tel.occupied_vcs[i].sum()),
            "in_flight": int(tel.in_flight[i]),
        }
        actions = actions_by_window.get(i + tel.dropped_windows)
        if actions:
            row["control_actions"] = actions
        rows.append(row)
    return rows

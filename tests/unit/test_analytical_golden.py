"""Golden-value regression test for the analytical Fig. 5 evaluation.

Every point of the Fig. 5 ``paper-grid`` (16x16, Soteriou traffic with
seed 1: per base technology the plain mesh and the electronic, photonic
and HyPPI x3/x5/x15 express meshes) is pinned *exactly*: every float
metric is stored as ``float.hex``. The four Fig. 5a points (electronic
base, plain and x3) were recorded first; the rest of the grid adds the
photonic and HyPPI bases and the x5/x15 geometries, whose routes and
DSENT figures are shared between points. Routing, flow, latency and
power refactors must reproduce these bits, which is what keeps cached
analytical results (keyed by the scenario spec alone) valid across such
changes.

Refresh only for an *intentional* change of analytical semantics::

    python tests/unit/test_analytical_golden.py --record
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments import evaluate_scenario, scenario_family
from repro.tech.parameters import Technology

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "data" / "golden_fig5a_analytical.json"
)


def _fig5a_scenarios():
    return scenario_family(
        "paper-grid",
        hops_options=(3,),
        base_technologies=(Technology.ELECTRONIC,),
        seed=1,
    )


def _scenarios():
    return scenario_family("paper-grid", seed=1)


def _exact(value: object) -> object:
    """JSON form that round-trips floats bit for bit."""
    return float(value).hex() if isinstance(value, float) else value


def _record_point(scenario) -> dict[str, object]:
    metrics = evaluate_scenario(scenario)
    return {key: _exact(value) for key, value in sorted(metrics.items())}


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, object]]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_fig5a(golden) -> None:
    assert {s.label for s in _fig5a_scenarios()} <= set(golden)


def test_golden_covers_paper_grid(golden) -> None:
    labels = [s.label for s in _scenarios()]
    assert len(labels) == 30
    assert sorted(golden) == sorted(labels)


@pytest.mark.parametrize("scenario", _scenarios(), ids=lambda s: s.label)
def test_metrics_match_golden_bits(scenario, golden) -> None:
    assert _record_point(scenario) == golden[scenario.label]


def _record() -> None:
    golden = {s.label: _record_point(s) for s in _scenarios()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} analytical points -> {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--record" not in sys.argv:
        sys.exit("usage: python tests/unit/test_analytical_golden.py --record")
    _record()

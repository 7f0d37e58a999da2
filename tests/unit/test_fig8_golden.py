"""Golden-value regression test for the Fig. 8 all-optical projection.

Pins *exactly* (``float.hex``) the radar-plot coordinates of the three
16x16 networks from :func:`project_all_optical` with its defaults, and
the traffic-weighted average and worst-case path losses of the photonic
and HyPPI meshes under the projection's Soteriou traffic (seed 0). The
path-loss reduction and the routes it reads must reproduce these bits.

Refresh only for an *intentional* change of the projection's semantics::

    python tests/unit/test_fig8_golden.py --record
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.optical import PathLossModel, project_all_optical
from repro.tech.parameters import Technology
from repro.topology import RoutingTable, build_mesh
from repro.traffic import soteriou_traffic

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "data" / "golden_fig8_projection.json"
)


def _projection() -> dict[str, dict[str, str]]:
    return {
        proj.name: {
            "latency_clks": float(proj.latency_clks).hex(),
            "energy_per_bit_fj": float(proj.energy_per_bit_fj).hex(),
            "area_mm2": float(proj.area_mm2).hex(),
        }
        for proj in project_all_optical().all()
    }


def _path_losses() -> dict[str, dict[str, str]]:
    traffic = soteriou_traffic(build_mesh(16, 16), injection_rate=0.1, seed=0)
    out = {}
    for tech in (Technology.PHOTONIC, Technology.HYPPI):
        topo = build_mesh(16, 16, link_technology=tech)
        model = PathLossModel(
            topology=topo, technology=tech, routing=RoutingTable(topo)
        )
        out[tech.value] = {
            "average_loss_db": float(model.average_loss_db(traffic)).hex(),
            "worst_case_loss_db": float(model.worst_case_loss_db()).hex(),
        }
    return out


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, dict[str, str]]]:
    return json.loads(GOLDEN_PATH.read_text())


def test_projection_matches_golden_bits(golden) -> None:
    assert _projection() == golden["projection"]


def test_path_losses_match_golden_bits(golden) -> None:
    assert _path_losses() == golden["path_loss"]


def _record() -> None:
    golden = {"projection": _projection(), "path_loss": _path_losses()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"recorded the Fig. 8 projection and path losses -> {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--record" not in sys.argv:
        sys.exit("usage: python tests/unit/test_fig8_golden.py --record")
    _record()

"""Golden fingerprints of every trace generator's output.

Each entry is the sha256 of one generated trace's four int64 columns
(``time``, ``src``, ``dst``, ``size_flits``, in that order), so any change
to a generator's random stream, packet order or packetization fails
here by name. Cached simulation metrics are keyed by the workload spec
alone, so a generator that produced different packets for the same spec
would silently serve stale results: a deliberate change needs a
``SEMANTICS_EPOCH`` bump and a re-recording.

Refresh only for an *intentional* change of trace semantics::

    python tests/unit/test_trace_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from collections.abc import Callable

import numpy as np
import pytest

from repro.experiments.registry import DEFAULT_NPB_WORKLOADS
from repro.simulation import synthetic_trace
from repro.topology import build_mesh
from repro.traffic import (
    NPB_KERNELS,
    Trace,
    load_trace,
    save_trace,
    soteriou_traffic,
    uniform_traffic,
)
from repro.workloads import WorkloadSpec, load_trace_npz, save_trace_npz

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "data" / "golden_traces.json"

_COLUMNS = ("time", "src", "dst", "size_flits")


def fingerprint(trace: Trace) -> str:
    """sha256 of the trace's columns as little-endian int64."""
    h = hashlib.sha256()
    cols = trace.columns()
    for key in _COLUMNS:
        h.update(np.ascontiguousarray(cols[key], dtype="<i8").tobytes())
    return h.hexdigest()


def _synthetic(width: int, matrix: str, rate: float, flits: int) -> Callable[[], Trace]:
    def build() -> Trace:
        mesh = build_mesh(width, width)
        if matrix == "uniform":
            tm = uniform_traffic(mesh)
        else:
            tm = soteriou_traffic(mesh, p=0.2, sigma=0.4, seed=5)
        return synthetic_trace(
            tm, injection_rate=rate, cycles=300, packet_flits=flits, seed=11
        )

    return build


def _npb(kernel: str) -> Callable[[], Trace]:
    scale, iterations = DEFAULT_NPB_WORKLOADS[kernel]
    return lambda: NPB_KERNELS[kernel](volume_scale=scale, iterations=iterations)


def _workload(model: str, **params) -> Callable[[], Trace]:
    def build() -> Trace:
        spec = WorkloadSpec.make(model, cycles=400, seed=7, **params)
        return spec.build(build_mesh(8, 8))

    return build


def _text_round_trip(tmp: pathlib.Path) -> Trace:
    path = tmp / "trace.txt"
    save_trace(_synthetic(4, "soteriou", 0.2, 4)(), path)
    return load_trace(path)


def _npz_round_trip(tmp: pathlib.Path) -> Trace:
    path = tmp / "trace.npz"
    save_trace_npz(_workload("onoff", injection_rate=0.2, duty=0.5)(), path)
    return load_trace_npz(path)


def cases() -> dict[str, Callable[[], Trace]]:
    """Every pinned trace, by name."""
    out: dict[str, Callable[[], Trace]] = {}
    # 0.45 at 1 flit per packet draws geometric gaps with p >= 1/3, the
    # search path of Generator.geometric; the other rates take the
    # inversion path.
    for width, matrix in ((4, "uniform"), (8, "soteriou")):
        for rate in (0.05, 0.2, 0.45):
            for flits in (1, 4):
                out[f"synthetic/{width}x{width}/{matrix}/r{rate}/p{flits}"] = (
                    _synthetic(width, matrix, rate, flits)
                )
    for kernel in sorted(NPB_KERNELS):
        out[f"npb/{kernel}"] = _npb(kernel)
    out["temporal/bernoulli"] = _workload("bernoulli", injection_rate=0.3)
    out["temporal/onoff"] = _workload("onoff", injection_rate=0.2, duty=0.5)
    out["temporal/pareto"] = _workload("pareto", injection_rate=0.2, duty=0.5)
    for envelope in ("sine", "square", "ramp"):
        out[f"temporal/modulated/{envelope}"] = _workload(
            "modulated", injection_rate=0.3, envelope=envelope, period=64
        )
    out["temporal/mix"] = _workload(
        "mix",
        injection_rate=0.3,
        components=(("bernoulli", 1.0), ("onoff", 2.0, (("duty", 0.5),))),
    )
    out["temporal/hotspot"] = _workload(
        "bernoulli",
        injection_rate=0.2,
        traffic="soteriou",
        hotspot_nodes=(0, 27),
        hotspot_fraction=0.3,
    )
    out["skeleton/stencil"] = _workload("stencil", halo_bytes=256, iterations=2)
    out["skeleton/stencil-corners"] = _workload(
        "stencil", halo_bytes=256, iterations=1, corners=True
    )
    out["skeleton/allreduce"] = _workload(
        "allreduce", message_bytes=100, iterations=1
    )
    out["skeleton/fft_transpose"] = _workload("fft_transpose", volume_bytes=4096)
    out["skeleton/wavefront"] = _workload("wavefront", pencil_bytes=300)
    return out


_ROUND_TRIPS = {"io/text": _text_round_trip, "io/npz": _npz_round_trip}


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden) -> None:
    assert sorted(golden) == sorted([*cases(), *_ROUND_TRIPS])


@pytest.mark.parametrize("name", sorted(cases()))
def test_generator_matches_golden(name, golden) -> None:
    assert fingerprint(cases()[name]()) == golden[name]


@pytest.mark.parametrize("name", sorted(_ROUND_TRIPS))
def test_round_trip_matches_golden(name, golden, tmp_path) -> None:
    assert fingerprint(_ROUND_TRIPS[name](tmp_path)) == golden[name]


def _record() -> None:
    import tempfile

    golden = {name: fingerprint(build()) for name, build in cases().items()}
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in _ROUND_TRIPS.items():
            golden[name] = fingerprint(build(pathlib.Path(tmp)))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} trace fingerprints -> {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--record" not in sys.argv:
        sys.exit("usage: python tests/unit/test_trace_golden.py --record")
    _record()

"""The cache's semantics epoch moves with the golden recordings.

Cached metrics are keyed by the scenario spec alone, so a persisted
cache log would keep serving points computed under old simulator or
analysis semantics. Every log line therefore carries
``SEMANTICS_EPOCH``, and lines of another epoch are skipped. This module
pins the goldens' bytes to the current epoch: re-recording a golden
without bumping the epoch (and adding the new fingerprints here) fails.
"""

from __future__ import annotations

import hashlib
import pathlib

from repro.experiments import EvaluationCache, scenario_family, scenario_hash
from repro.experiments import cache as cache_mod

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"

#: sha256 of each golden recording, per semantics epoch.
GOLDEN_SHA256 = {
    1: {
        "golden_simstats.json":
            "4dd16a916cfce8b8950c4cf921485a0c3289a04268bdd3453c7d30b2815fadf8",
        "golden_fig5a_analytical.json":
            "9c9bc5500bf36c282bde71603ac0e0ad25553001fa45f20c5278b9eccf74ef28",
        "golden_hooked_simstats.json":
            "edac450b7e9dc7fdf5042858e645665c28fd270ed75679a7ffe0fc47d88e872a",
        "golden_traces.json":
            "be59da8d646882913dabe9714fafc6d49c4b039f6e1bd8ed1827ebc070e340d2",
    },
}


def test_goldens_are_pinned_to_the_current_epoch():
    assert cache_mod.SEMANTICS_EPOCH in GOLDEN_SHA256, (
        "SEMANTICS_EPOCH has no golden fingerprints; record them here"
    )
    pinned = GOLDEN_SHA256[cache_mod.SEMANTICS_EPOCH]
    assert sorted(pinned) == sorted(p.name for p in DATA.glob("golden_*.json"))
    for name, digest in pinned.items():
        actual = hashlib.sha256((DATA / name).read_bytes()).hexdigest()
        assert actual == digest, (
            f"{name} changed: a re-recorded golden means new semantics, so "
            "bump SEMANTICS_EPOCH in repro/experiments/cache.py and pin the "
            "new fingerprints under the new epoch"
        )


def test_line_from_an_older_epoch_is_a_miss(tmp_path, monkeypatch):
    [point] = scenario_family("saturation-sweep", rates=[0.05])
    path = tmp_path / "cache.ndjson"
    old = EvaluationCache()
    old.put(point, {"avg_latency": 1.0})
    old.flush(path)
    assert EvaluationCache.load(path).get(point) == {"avg_latency": 1.0}

    monkeypatch.setattr(cache_mod, "SEMANTICS_EPOCH", cache_mod.SEMANTICS_EPOCH + 1)
    reborn = EvaluationCache.load(path)
    assert reborn.get(point) is None
    assert len(reborn) == 0
    # The point is recomputed and appended under the new epoch; its key
    # (the spec hash) is unchanged.
    reborn.put(point, {"avg_latency": 2.0})
    reborn.flush(path)
    assert path.read_bytes().count(b"\n") == 2
    latest = EvaluationCache.load(path)
    assert latest.get(point) == {"avg_latency": 2.0}
    assert point in latest and scenario_hash(point) in path.read_text()

"""Extension bench — the evaluation-cache checkpoint.

The experiment service checkpoints its shared
:class:`~repro.experiments.EvaluationCache` after every poll that
returns points, so a checkpoint's cost is paid per job.
``cache_checkpoint`` times what one 4-point job costs against a grown
log: one flush appending 4 new entries to a 500-entry log, then the
all-hit flush a resubmitted job makes, which appends nothing. Entries
are real 4x4 saturation points (about 1 KB each). ``smoke``-tagged so
the perf CI gate watches it.
"""

import pathlib
import tempfile
from types import SimpleNamespace

from repro.bench import benchmark_spec
from repro.experiments import EvaluationCache, Runner, scenario_family

LOG_ENTRIES = 500
NEW_ENTRIES = 4
_CALLS = 64  # more than the harness's warmup plus its 50 repeats at most


def _points(rates, seed):
    return scenario_family(
        "saturation-sweep", rates=rates, width=4, height=4, cycles=50, seed=seed
    )


def _checkpoint_fixture():
    rates = [round(0.005 + 0.0001 * i, 4) for i in range(LOG_ENTRIES)]
    logged = _points(rates, seed=1)
    metrics = Runner(jobs=1).run(logged[:1])[0].metrics
    grown = EvaluationCache()
    for point in logged:
        grown.put(point, metrics)
    path = pathlib.Path(tempfile.mkdtemp()) / "cache.ndjson"
    grown.save(path)
    batches = [_points(rates[:NEW_ENTRIES], seed=2 + k) for k in range(_CALLS)]
    return SimpleNamespace(
        cache=EvaluationCache.load(path), path=path, metrics=metrics,
        batches=batches, calls=0,
    )


@benchmark_spec(
    "cache_checkpoint",
    setup=_checkpoint_fixture,
    points=NEW_ENTRIES,
    tags=("perf", "smoke"),
)
def run_checkpoint(fx):
    """One flush of 4 new entries into a 500-entry log, then an all-hit flush."""
    for point in fx.batches[fx.calls]:
        fx.cache.put(point, fx.metrics)
    fx.cache.flush(fx.path)
    fx.cache.flush(fx.path)
    fx.calls += 1
    return fx


def test_cache_checkpoint(run_bench):
    fx = run_bench("cache_checkpoint")
    expected = LOG_ENTRIES + NEW_ENTRIES * fx.calls
    # Each call appended exactly its new entries; all-hit flushes nothing.
    assert fx.path.read_bytes().count(b"\n") == expected
    size = fx.path.stat().st_size
    assert fx.cache.flush(fx.path) == expected
    assert fx.path.stat().st_size == size
    assert len(EvaluationCache.load(fx.path)) == len(fx.cache)

"""Extension bench — observability hot-path throughput.

Guards :mod:`repro.obs`'s performance contracts the same way
``bench_telemetry`` guards the sampler's:

* ``obs_span_throughput`` — recording + draining a burst of nested
  spans (the tracer's enabled-path cost: two clock reads and one
  append per span);
* ``obs_metrics_snapshot`` — a deterministic registry snapshot over a
  populated registry (the ``/api/v1/metrics`` hot path);
* ``obs_prom_render`` — Prometheus text exposition over that snapshot
  (the root ``/metrics`` scrape body);
* ``obs_ledger_append`` — a burst of run-ledger lifecycle appends
  (line-atomic NDJSON writes: the per-point cost every sweep pays with
  the ledger on);
* ``obs_progress_render`` — the full ``repro obs top`` screen render
  over a fleet of progress documents (the watch-loop redraw cost).

All are ``smoke``-tagged so the perf CI gate watches them.
Correctness rides along: the span burst must drain exactly what it
recorded with parents intact, and the snapshot must round-trip its
counter values.
"""

from repro.bench import benchmark_spec
from repro.obs import (
    MetricsRegistry,
    RunLedger,
    enable_tracing,
    load_ledger,
    render_prometheus,
    render_top,
    span,
    take_spans,
    tracing_enabled,
)

N_SPANS = 5000
N_METRICS = 100


@benchmark_spec(
    "obs_span_throughput",
    points=N_SPANS,
    tags=("perf", "obs", "smoke"),
)
def run_span_burst():
    """Record and drain N_SPANS nested spans on the process tracer."""
    was_enabled = tracing_enabled()
    enable_tracing(True)
    try:
        for i in range(N_SPANS // 2):
            with span("bench.outer", i=i):
                with span("bench.inner"):
                    pass
        return take_spans()
    finally:
        enable_tracing(was_enabled)


def _registry_fixture():
    reg = MetricsRegistry()
    for i in range(N_METRICS):
        reg.counter(f"bench.counter.{i:03d}").inc(i)
        reg.gauge(f"bench.gauge.{i:03d}").set(float(i))
        reg.histogram(f"bench.hist.{i:03d}").observe(float(i))
    return reg


@benchmark_spec(
    "obs_metrics_snapshot",
    setup=_registry_fixture,
    points=3 * N_METRICS,
    tags=("perf", "obs", "smoke"),
)
def run_snapshot(reg):
    """Deterministic full-registry snapshot (the /metrics hot path)."""
    return reg.snapshot()


def _snapshot_fixture():
    return _registry_fixture().snapshot()


@benchmark_spec(
    "obs_prom_render",
    setup=_snapshot_fixture,
    points=3 * N_METRICS,
    tags=("perf", "obs", "smoke"),
)
def run_prom_render(snapshot):
    """Prometheus text exposition of the full registry snapshot."""
    return render_prometheus(snapshot)


N_LEDGER_EVENTS = 1000
N_TOP_JOBS = 50


def _ledger_fixture():
    import pathlib
    import tempfile

    path = pathlib.Path(tempfile.mkdtemp()) / "bench.ndjson"
    return RunLedger(path, job_id="job-bench")


@benchmark_spec(
    "obs_ledger_append",
    setup=_ledger_fixture,
    points=N_LEDGER_EVENTS,
    tags=("perf", "obs", "smoke"),
)
def run_ledger_append(ledger):
    """A burst of per-point lifecycle appends (write+flush per line)."""
    for i in range(N_LEDGER_EVENTS // 2):
        ledger.append("point.dispatched", point=i, engine="interpreter")
        ledger.append("point.completed", point=i, cached=False)
    return ledger


def _progress_docs_fixture():
    return [
        {
            "job_id": f"job-{i:06d}",
            "state": "running" if i % 3 else "done",
            "n_points": 200,
            "points_done": (i * 7) % 201,
            "in_flight": i % 5,
            "throughput_pps": 0.5 + i / 100.0,
            "eta_s": float(i),
        }
        for i in range(N_TOP_JOBS)
    ]


@benchmark_spec(
    "obs_progress_render",
    setup=_progress_docs_fixture,
    points=N_TOP_JOBS,
    tags=("perf", "obs", "smoke"),
)
def run_progress_render(docs):
    """One full ``repro obs top`` screen over N_TOP_JOBS progress docs."""
    return render_top(docs)


def test_perf_span_throughput(run_bench):
    spans = run_bench("obs_span_throughput")
    assert len(spans) == N_SPANS
    inner = [s for s in spans if s.name == "bench.inner"]
    assert len(inner) == N_SPANS // 2
    assert all(s.parent_id is not None for s in inner)


def test_perf_metrics_snapshot(run_bench):
    snap = run_bench("obs_metrics_snapshot")
    assert len(snap["counters"]) == N_METRICS
    assert snap["counters"]["bench.counter.042"] == 42
    assert snap["histograms"]["bench.hist.007"]["count"] == 1


def test_perf_prom_render(run_bench):
    text = run_bench("obs_prom_render")
    assert text.count("# TYPE ") == 3 * N_METRICS
    assert "repro_bench_counter_042_total 42" in text


def test_perf_ledger_append(run_bench):
    ledger = run_bench("obs_ledger_append")
    ledger.close()
    events = load_ledger(ledger.path)
    # At least one timed call's worth of appends, seq strictly dense.
    assert len(events) >= N_LEDGER_EVENTS
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert events[0]["event"] == "point.dispatched"


def test_perf_progress_render(run_bench):
    screen = run_bench("obs_progress_render")
    assert screen.count("job-") == N_TOP_JOBS
    # Running jobs sort above terminal ones.
    first_row = next(l for l in screen.splitlines() if "job-" in l)
    assert "running" in first_row

"""Stack observability: tracing, metrics, logging, and engine profiling.

Where :mod:`repro.telemetry` observes the *simulated network* (per-window
latency, occupancy, power inside a run), :mod:`repro.obs` observes the
*stack that runs the simulations*: spans around runner points and service
jobs (:mod:`~repro.obs.trace`), process-wide operational counters behind
``/api/v1/metrics`` (:mod:`~repro.obs.metrics`), structured logging for
the service (:mod:`~repro.obs.logs`), and opt-in per-phase cycle-loop
profiling of both engines (:mod:`~repro.obs.profile`).

The registry is exposed for standard scrapers in Prometheus text format
(:mod:`~repro.obs.promexp`); history, rates and alert rules are the
scraper's job, not this process's.

Sweep introspection adds three sub-layers on the same foundations: a
durable append-only NDJSON run ledger of per-point lifecycle
transitions (:mod:`~repro.obs.ledger`) — each service job's only
durable record, replayed into its :class:`~repro.obs.ledger.JobRecord`
at boot — that exports deterministically; live progress/ETA read off
that record, with terminal rendering helpers (:mod:`~repro.obs.progress`);
and sweep-level aggregation of per-point :class:`PhaseProfile` captures
into per-phase p50/p99 breakdowns (:mod:`~repro.obs.aggregate`).

Everything is off by default and designed so the disabled path costs a
single sentinel check — golden SimStats remain bit-identical with
observability compiled in but switched off.
"""

from repro.obs.aggregate import (
    EngineAggregate,
    PhaseStats,
    SweepProfile,
    merge_profiles,
    render_sweep_profile,
)
from repro.obs.ledger import (
    LEDGER_FORMAT,
    LedgerReplay,
    RunLedger,
    export_ledger,
    load_ledger,
    replay_ledger,
)
from repro.obs.logs import fields, get_logger, setup_logging
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    percentile_from_snapshot,
)
from repro.obs.metrics import (
    reset as reset_metrics,
)
from repro.obs.metrics import (
    snapshot as metrics_snapshot,
)
from repro.obs.profile import PhaseProfile, profile_simulation, render_profiles
from repro.obs.progress import (
    format_eta,
    job_progress,
    render_bar,
    render_progress_line,
    render_top,
)
from repro.obs.promexp import render_prometheus, sanitize_metric_name
from repro.obs.trace import (
    SpanRecord,
    adopt_parent,
    clear_spans,
    current_span_id,
    enable_tracing,
    export_trace,
    format_traceparent,
    get_spans,
    merge_exported,
    parse_traceparent,
    record_spans,
    span,
    take_spans,
    tracing_enabled,
)

__all__ = [
    # trace
    "span",
    "SpanRecord",
    "enable_tracing",
    "tracing_enabled",
    "current_span_id",
    "adopt_parent",
    "get_spans",
    "take_spans",
    "clear_spans",
    "record_spans",
    "merge_exported",
    "export_trace",
    "format_traceparent",
    "parse_traceparent",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "metrics_snapshot",
    "reset_metrics",
    "percentile_from_snapshot",
    # promexp
    "render_prometheus",
    "sanitize_metric_name",
    # logs
    "setup_logging",
    "get_logger",
    "fields",
    # profile
    "PhaseProfile",
    "profile_simulation",
    "render_profiles",
    # ledger
    "LEDGER_FORMAT",
    "LedgerReplay",
    "RunLedger",
    "export_ledger",
    "load_ledger",
    "replay_ledger",
    # progress
    "format_eta",
    "job_progress",
    "render_bar",
    "render_progress_line",
    "render_top",
    # aggregate
    "EngineAggregate",
    "PhaseStats",
    "SweepProfile",
    "merge_profiles",
    "render_sweep_profile",
]

"""Live sweep progress from the job record: counts, throughput, ETA.

Progress is read off the job's :class:`~repro.obs.ledger.JobRecord`, the
fold of its run ledger, so it agrees with the ledger by construction:
the counts are the record's, the in-flight points are those whose
latest stage is ``dispatched`` or ``simulating``, and the throughput is
the number of completions whose ledger time falls in a sliding window.
The ETA is rate-based: ``remaining / throughput`` over the window,
``None`` until at least one point has landed. :func:`job_progress`
builds the ``GET /api/v1/jobs/<id>/progress`` document that ``repro
status --watch`` and ``repro obs top`` render.

The rendering helpers are plain string formatters (no terminal state):
:func:`render_bar` for progress bars, :func:`render_top` for the full
``repro obs top`` screen and :func:`render_progress_line` for the
one-line ``status --watch`` ticker.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.obs.ledger import JobRecord

__all__ = [
    "job_progress",
    "live_progress",
    "render_bar",
    "render_progress_line",
    "render_top",
    "format_eta",
]

#: Trailing window, in seconds, that live throughput is measured over.
WINDOW_S = 30.0


def live_progress(
    record: JobRecord, *, now: float, workers: int, window_s: float = WINDOW_S
) -> dict[str, Any]:
    """Live counts, throughput and ETA of a running job.

    ``now`` is a wall time on the clock of the ledger events' ``t``
    fields, and ``workers`` the worker count the job runs with.
    """
    in_flight = record.in_flight
    cutoff = now - window_s
    recent = 0
    for t in reversed(record.completion_ts):
        if t < cutoff:
            break
        recent += 1
    started = now if record.running_t is None else record.running_t
    elapsed = max(now - started, 1e-9)
    throughput = recent / min(window_s, elapsed) if recent else 0.0
    remaining = max(record.n_points - record.points_done - record.failed_points, 0)
    eta = remaining / throughput if throughput > 0 else None
    return {
        "completed": record.points_done - record.cache_hits,
        "cached": record.cache_hits,
        "failed": record.failed_points,
        "in_flight": in_flight,
        "throughput_pps": round(throughput, 6),
        "eta_s": None if eta is None else round(eta, 3),
        "elapsed_s": round(elapsed, 3),
        "workers": workers,
        "utilization": round(min(in_flight, workers) / workers, 6),
    }


def job_progress(record: JobRecord, *, now: float, workers: int) -> dict[str, Any]:
    """The ``/api/v1/jobs/<id>/progress`` document of one job.

    A running job carries :func:`live_progress`. Any other job reports
    its final counts, an ETA of 0 (done) or None (queued, failed) and,
    once done, its realized overall throughput.
    """
    done, n = record.points_done, record.n_points
    doc: dict[str, Any] = {
        "job_id": record.job_id,
        "state": record.state,
        "n_points": n,
        "points_done": done,
        "cache_hits": record.cache_hits,
        "pct": round(100.0 * done / n, 2) if n else 0.0,
        "resumed": record.resumed,
    }
    if record.state == "running":
        doc.update(live_progress(record, now=now, workers=workers))
        return doc
    finished = record.state == "done"
    doc.update(
        completed=done - record.cache_hits,
        cached=record.cache_hits,
        failed=record.failed_points,
        in_flight=0,
        eta_s=0.0 if finished else None,
        elapsed_s=record.duration_s,
        throughput_pps=(
            round(n / record.duration_s, 6)
            if finished and record.duration_s
            else None
        ),
    )
    return doc


# -- rendering ---------------------------------------------------------------


def render_bar(done: int, total: int, *, width: int = 24) -> str:
    """A ``[#####.....]`` progress bar; full width when ``total`` is 0."""
    if total <= 0:
        return "[" + "#" * width + "]"
    filled = min(width, int(width * done / total))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def format_eta(seconds: float | None) -> str:
    """Compact human ETA: ``-`` (unknown), ``42s``, ``3m05s``, ``1h12m``."""
    if seconds is None:
        return "-"
    s = max(0, int(round(seconds)))
    if s < 60:
        return f"{s}s"
    if s < 3600:
        return f"{s // 60}m{s % 60:02d}s"
    return f"{s // 3600}h{(s % 3600) // 60:02d}m"


def render_progress_line(doc: dict[str, Any], *, width: int = 24) -> str:
    """One-line ticker for ``repro status --watch``."""
    n = doc.get("n_points", 0)
    done = doc.get("points_done", 0)
    pct = 100.0 * done / n if n else 0.0
    thr = doc.get("throughput_pps")
    thr_txt = f" {thr:.2f} pt/s" if thr else ""
    eta = format_eta(doc.get("eta_s"))
    return (
        f"{doc.get('job_id', '?')} {doc.get('state', '?'):<8} "
        f"{render_bar(done, n, width=width)} {done}/{n} {pct:5.1f}%"
        f"{thr_txt}  eta {eta}"
    )


def render_top(jobs: Sequence[dict[str, Any]], *, width: int = 20) -> str:
    """The ``repro obs top`` screen: one row per job, active first.

    ``jobs`` is a sequence of progress documents (the shape
    ``/api/v1/jobs/<id>/progress`` serves).
    """
    from repro.util import format_table

    order = {"running": 0, "queued": 1, "done": 2, "failed": 3}
    ranked = sorted(
        jobs,
        key=lambda d: (
            order.get(d.get("state", ""), 9),
            d.get("job_id", ""),
        ),
    )
    rows = []
    for doc in ranked:
        n = doc.get("n_points", 0)
        done = doc.get("points_done", 0)
        pct = 100.0 * done / n if n else 0.0
        thr = doc.get("throughput_pps")
        rows.append(
            [
                doc.get("job_id", "?"),
                doc.get("state", "?"),
                render_bar(done, n, width=width),
                f"{done}/{n}",
                f"{pct:5.1f}%",
                doc.get("in_flight", 0) or "-",
                "-" if not thr else f"{thr:.2f}",
                format_eta(doc.get("eta_s")),
            ]
        )
    return format_table(
        ["job", "state", "progress", "points", "%", "in-flight", "pt/s", "eta"],
        rows,
        title="active jobs" if rows else "no jobs",
    )

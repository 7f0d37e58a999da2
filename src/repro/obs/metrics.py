"""Process-wide metrics registry: counters, gauges, histograms.

The *stack* observability counterpart to :mod:`repro.telemetry` (which
observes the simulated network): every layer of the serving stack — the
evaluation cache, the experiment runner, the service scheduler, the HTTP
front end — reports operational counts here, and one
:meth:`MetricsRegistry.snapshot` call renders them as a flat, JSON-safe
document (the body of the service's ``/api/v1/metrics`` endpoint and of
``repro obs metrics``).

Design constraints:

* **process-wide, import-order free** — instruments hold references to
  their metric objects; :func:`reset` zeroes values in place rather than
  dropping objects, so a held :class:`Counter` never detaches from the
  registry (tests reset freely without re-wiring instrumentation);
* **thread-safe** — increments take a per-metric lock (these sit on
  request/job paths, never inside the simulator's cycle loop);
* **deterministic snapshots** — keys sort, values are plain ints/floats,
  so two snapshots of identical state serialize to identical bytes.

Worker processes get their own registry (a fork inherits a copy); only
the owning process's counters appear in its snapshot, which is the
behaviour a per-process ``/metrics`` endpoint wants.
"""

from __future__ import annotations

import math
import threading
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "percentile_from_snapshot",
    "snapshot",
    "reset",
]

#: Default histogram bucket upper bounds (milliseconds-flavoured, but the
#: histogram is unit-agnostic — callers pick what they observe).
DEFAULT_BUCKETS = (0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 10000)


class Counter:
    """Monotonic integer count (resets only via :func:`reset`)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only go up; got {n}")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """Last-written float value (queue depths, sizes, temperatures)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


def _bucket_percentile(
    bounds: tuple[float, ...],
    counts: list[int],
    count: int,
    mn: float,
    mx: float,
    q: float,
) -> float:
    """Monotone linear interpolation over cumulative bucket counts.

    The shared core behind :meth:`Histogram.percentile` and
    :func:`percentile_from_snapshot`. ``q`` is a quantile in ``[0, 1]``;
    the estimate interpolates within the bucket the target rank lands in
    (the first bucket's lower edge is the observed minimum, which the
    histogram tracks exactly). The ``+inf`` tail bucket cannot be
    interpolated, so ranks landing there return the observed maximum.
    Results are clamped into ``[min, max]`` and are monotone in ``q``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if count == 0:
        return math.nan
    target = q * count
    cum = 0
    for i, c in enumerate(counts):
        if c == 0:
            continue
        prev = cum
        cum += c
        if cum >= target:
            if i == len(bounds):
                return mx  # +inf tail: max is the best upper estimate
            hi = bounds[i]
            lo = mn if i == 0 else bounds[i - 1]
            lo = min(lo, hi)
            frac = max(0.0, min(1.0, (target - prev) / c))
            return max(mn, min(mx, lo + (hi - lo) * frac))
    return mx


def percentile_from_snapshot(doc: dict[str, Any], q: float) -> float:
    """:meth:`Histogram.percentile` over a histogram's ``to_json`` form.

    Lets consumers of a metrics snapshot (the CLI rendering a service's
    ``/api/v1/metrics`` document) derive percentiles without holding the
    live object. NaN for empty histograms, exactly like the live method.
    """
    buckets: dict[str, int] = doc["buckets"]
    finite = sorted(
        (float(k) for k in buckets if k != "+inf"),
    )
    counts = [buckets[f"{b:g}"] for b in finite] + [buckets.get("+inf", 0)]
    count = doc["count"]
    mn = doc["min"] if doc["min"] is not None else math.inf
    mx = doc["max"] if doc["max"] is not None else -math.inf
    return _bucket_percentile(tuple(finite), counts, count, mn, mx, q)


class Histogram:
    """Fixed-bucket distribution with count/sum/min/max.

    Buckets are cumulative-style upper bounds (``value <= bound``); one
    implicit ``+inf`` bucket catches the tail, so ``sum(buckets)`` always
    equals ``count``.
    """

    __slots__ = ("bounds", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"bucket bounds must be sorted and non-empty: {bounds}")
        self.bounds = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else math.nan

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in ``[0, 1]``) of observations.

        Monotone linear interpolation over the cumulative bucket counts;
        ranks landing in the implicit ``+inf`` tail return the observed
        maximum (the only honest answer an unbounded bucket has). NaN
        when nothing has been observed.
        """
        with self._lock:
            counts = list(self._counts)
            count = self._count
            mn, mx = self._min, self._max
        return _bucket_percentile(self.bounds, counts, count, mn, mx, q)

    def to_json(self) -> dict[str, Any]:
        with self._lock:
            buckets = {
                ("+inf" if i == len(self.bounds) else f"{self.bounds[i]:g}"): n
                for i, n in enumerate(self._counts)
            }
            return {
                "count": self._count,
                "sum": round(self._sum, 6),
                "min": None if self._count == 0 else round(self._min, 6),
                "max": None if self._count == 0 else round(self._max, 6),
                "buckets": buckets,
            }

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf


class MetricsRegistry:
    """Named get-or-create store for the three metric kinds."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _get(self, store: dict, name: str, factory) -> Any:
        if not name:
            raise ValueError("metric name must be non-empty")
        with self._lock:
            metric = store.get(name)
            if metric is None:
                metric = store[name] = factory()
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(self._counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(self._gauges, name, Gauge)

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(self._histograms, name, lambda: Histogram(bounds))

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe view of every registered metric (keys sorted).

        Deterministic for identical state: two snapshots of the same
        values serialize to identical bytes under ``sort_keys=True``.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {k: counters[k].value for k in sorted(counters)},
            "gauges": {k: round(gauges[k].value, 6) for k in sorted(gauges)},
            "histograms": {k: histograms[k].to_json() for k in sorted(histograms)},
        }

    def reset(self) -> None:
        """Zero every metric *in place* (held references stay live)."""
        with self._lock:
            metrics = (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
            )
        for metric in metrics:
            metric._reset()


#: The process-wide registry every instrument in the stack reports to.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    """Process-wide counter ``name`` (get-or-create)."""
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """Process-wide gauge ``name`` (get-or-create)."""
    return REGISTRY.gauge(name)


def histogram(name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
    """Process-wide histogram ``name`` (get-or-create)."""
    return REGISTRY.histogram(name, bounds)


def snapshot() -> dict[str, Any]:
    """Snapshot of the process-wide registry."""
    return REGISTRY.snapshot()


def reset() -> None:
    """Zero the process-wide registry (instrument references stay valid)."""
    REGISTRY.reset()

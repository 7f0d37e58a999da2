"""Unit tests for the metrics exposition: quantiles, Prometheus text, traceparent.

Pins the contracts a scraper of ``/metrics`` relies on:

* **histogram percentiles** interpolate monotonically, return the
  observed maximum for ranks landing in the ``+inf`` tail, and agree
  between the live object and its JSON snapshot form;
* **Prometheus exposition** renders every family inside the text-format
  grammar with cumulative buckets, deterministic ordering, and
  collision-safe name sanitization;
* **traceparent headers** round-trip a span id and reject malformed
  values.
"""

import math
import re

import pytest

from repro.obs import (
    MetricsRegistry,
    format_traceparent,
    parse_traceparent,
    percentile_from_snapshot,
    render_prometheus,
    sanitize_metric_name,
)

# -- Prometheus text-format validator (shared with the CI smoke step) --------

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_TYPE_LINE = re.compile(rf"^# TYPE ({_NAME}) (counter|gauge|histogram)$")
_SAMPLE_LINE = re.compile(
    rf"^({_NAME})"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" (NaN|[+-]Inf|[+-]?[0-9].*)$"
)


def validate_prometheus_text(text: str) -> int:
    """Assert every line is a TYPE comment or a sample; returns #samples."""
    samples = 0
    assert text.endswith("\n")
    for line in text.rstrip("\n").split("\n"):
        if line.startswith("#"):
            assert _TYPE_LINE.match(line), line
            continue
        m = _SAMPLE_LINE.match(line)
        assert m, line
        value = m.group(3)
        if value not in ("NaN", "+Inf", "-Inf"):
            float(value)
        samples += 1
    return samples


# -- percentiles -------------------------------------------------------------


class TestHistogramPercentile:
    def _hist(self, values, bounds=(1.0, 10.0, 100.0)):
        h = MetricsRegistry().histogram("ms", bounds=bounds)
        for v in values:
            h.observe(v)
        return h

    def test_empty_is_nan(self):
        assert math.isnan(self._hist([]).percentile(0.5))

    def test_quantile_bounds_enforced(self):
        h = self._hist([1.0])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            h.percentile(-0.01)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            h.percentile(1.01)

    def test_interpolates_within_bucket(self):
        # 4 observations, one per region: p50's rank (2.0) lands at the
        # top of the (1, 10] bucket -> interpolate to its upper bound.
        h = self._hist([0.5, 5.0, 50.0, 500.0])
        assert h.percentile(0.5) == pytest.approx(10.0)

    def test_inf_tail_returns_observed_max(self):
        h = self._hist([0.5, 5.0, 50_000.0])
        assert h.percentile(0.99) == 50_000.0
        assert h.percentile(1.0) == 50_000.0

    def test_first_bucket_uses_observed_min_as_lower_edge(self):
        h = self._hist([0.25, 0.75])
        p = h.percentile(0.0)
        assert p == pytest.approx(0.25)

    def test_monotone_in_q(self):
        h = self._hist([0.1, 0.9, 3.0, 7.0, 42.0, 99.0, 1e6])
        qs = [i / 20 for i in range(21)]
        estimates = [h.percentile(q) for q in qs]
        assert estimates == sorted(estimates)
        assert all(0.1 <= e <= 1e6 for e in estimates)

    def test_snapshot_form_matches_live_object(self):
        h = self._hist([0.3, 2.0, 15.0, 90.0, 1234.0])
        doc = h.to_json()
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            live = h.percentile(q)
            snap = percentile_from_snapshot(doc, q)
            assert snap == pytest.approx(live)

    def test_snapshot_form_empty_is_nan(self):
        doc = self._hist([]).to_json()
        assert math.isnan(percentile_from_snapshot(doc, 0.5))


# -- Prometheus exposition ---------------------------------------------------


class TestSanitizeName:
    @pytest.mark.parametrize(
        ("raw", "expected"),
        [
            ("scheduler.queue_depth", "repro_scheduler_queue_depth"),
            ("http.requests.route.GET /jobs", "repro_http_requests_route_GET__jobs"),
            ("weird-name", "repro_weird_name"),
        ],
    )
    def test_sanitizes_to_grammar(self, raw, expected):
        assert sanitize_metric_name(raw) == expected

    def test_unprefixed_leading_digit_gains_underscore(self):
        out = sanitize_metric_name("9lives", prefix="")
        assert out == "_9lives"
        assert re.match(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$", out)


class TestRenderPrometheus:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.counter("jobs.done").inc(4)
        reg.gauge("queue.depth").set(1.5)
        h = reg.histogram("lat.ms", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 99.0):
            h.observe(v)
        return reg.snapshot()

    def test_output_passes_grammar_validator(self):
        text = render_prometheus(self._snapshot())
        assert validate_prometheus_text(text) > 0

    def test_counter_gets_total_suffix(self):
        text = render_prometheus(self._snapshot())
        assert "# TYPE repro_jobs_done_total counter\nrepro_jobs_done_total 4" in text

    def test_histogram_buckets_are_cumulative(self):
        text = render_prometheus(self._snapshot())
        assert 'repro_lat_ms_bucket{le="1"} 1' in text
        assert 'repro_lat_ms_bucket{le="10"} 2' in text
        assert 'repro_lat_ms_bucket{le="+Inf"} 3' in text
        assert "repro_lat_ms_count 3" in text
        assert "repro_lat_ms_sum 104.5" in text

    def test_render_is_deterministic_bytes(self):
        assert render_prometheus(self._snapshot()) == render_prometheus(
            self._snapshot()
        )

    def test_colliding_names_stay_distinct_via_raw_label(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc(1)
        reg.counter("a-b").inc(2)
        text = render_prometheus(reg.snapshot())
        assert 'repro_a_b_total{raw="a.b"} 1' in text
        assert 'repro_a_b_total{raw="a-b"} 2' in text
        validate_prometheus_text(text)

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus(MetricsRegistry().snapshot()) == ""

    def test_non_finite_gauge_values(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(math.inf)
        text = render_prometheus(reg.snapshot())
        assert "repro_g +Inf" in text
        validate_prometheus_text(text)


# -- traceparent helpers -----------------------------------------------------


class TestTraceparent:
    def test_round_trip(self):
        # Span ids contain one dash (pid-seq); the header adds two more.
        assert parse_traceparent(format_traceparent("1a2b-7")) == "1a2b-7"

    @pytest.mark.parametrize(
        "bad",
        [None, "", "junk", "01-1a2b-7-01", "00-1a2b-7-00", "00--01", "00-01"],
    )
    def test_malformed_values_parse_to_none(self, bad):
        assert parse_traceparent(bad) is None

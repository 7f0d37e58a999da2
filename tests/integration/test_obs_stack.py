"""End-to-end observability: spans across the pool, profiling, CLI, HTTP.

Pins the observability acceptance criteria:

* span traces survive the process-pool seam — ``Runner(jobs=2)`` worker
  spans ship back and merge under the parent's ``runner.sweep`` span
  with their pids intact and their parent links resolved;
* the engine phase profiles account for the loop's wall time — phase
  sums within 10 % of entry-to-exit total for both engines on an 8x8
  saturation point (chained timestamps leave no unattributed gaps);
* ``repro obs profile`` renders those breakdowns from the CLI;
* the live service exposes ``/api/v1/metrics`` and per-job span traces
  over a real socket, and ``repro obs metrics`` / ``repro obs trace``
  read them;
* the metrics exposition works over that socket — the root
  ``/metrics`` scrape parses as Prometheus text, ``repro obs metrics``
  renders it (``--prom``/``--watch``), and a CLI submit against a
  subprocess server exports ONE deterministic joined trace with the
  client's span as ancestor of ``service.job``.
"""

import json
import os
import pathlib
import re
import subprocess
import sys
import threading

import pytest

from repro.experiments import Runner, scenario_family
from repro.obs import (
    clear_spans,
    enable_tracing,
    export_trace,
    profile_simulation,
    span,
    take_spans,
    tracing_enabled,
)
from repro.service import ServiceClient, make_server

QUICK = {"rates": [0.04, 0.08], "cycles": 300}


@pytest.fixture
def tracing():
    was = tracing_enabled()
    clear_spans()
    enable_tracing(True)
    yield
    enable_tracing(was)
    clear_spans()


@pytest.fixture
def live(tmp_path):
    server = make_server("127.0.0.1", 0, tmp_path / "state")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(f"http://{host}:{port}"), server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestPoolSpanMerge:
    def test_worker_spans_merge_under_the_sweep(self, tracing):
        scenarios = scenario_family("saturation-sweep", **QUICK)
        with span("test.root"):
            Runner(jobs=2).run(scenarios)
        spans = take_spans()
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        [sweep] = by_name["runner.sweep"]
        assert sweep.attrs == {"points": 2, "jobs": 2}
        points = by_name["runner.point"]
        assert len(points) == 2
        # Pool workers recorded the point spans in their own processes...
        assert all(p.pid != os.getpid() for p in points)
        assert all(p.attrs.get("pool_worker") for p in points)
        # ...and merging re-parented their roots under the parent sweep.
        assert all(p.parent_id == sweep.span_id for p in points)
        # Ids never collide across processes: pid-prefixed ids.
        assert len({s.span_id for s in spans}) == len(spans)

    def test_serial_and_pool_record_the_same_point_names(self, tracing):
        scenarios = scenario_family("saturation-sweep", **QUICK)

        def labels(jobs):
            clear_spans()
            Runner(jobs=jobs).run(scenarios)
            return sorted(
                s.attrs["point"]
                for s in take_spans()
                if s.name == "runner.point"
            )

        assert labels(1) == labels(2)


class TestPhaseAccounting:
    def test_phase_sums_within_10pct_of_total_8x8(self):
        # The headline acceptance criterion: on an 8x8 saturation point
        # both engines' phase sums land within 10 % of the engine's own
        # entry-to-exit wall time.
        [scenario] = scenario_family(
            "saturation-sweep",
            rates=[0.30],
            width=8,
            height=8,
            cycles=600,
            drain_budget=20_000,
        )
        profiles = profile_simulation(scenario)
        assert set(profiles) == {"interpreter", "batched"}
        for name, prof in profiles.items():
            coverage = prof.phase_sum_ns / prof.total_ns
            assert 0.9 <= coverage <= 1.0, (name, coverage)


class TestCliProfile:
    def test_obs_profile_json(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "obs",
                "profile",
                "--rate",
                "0.1",
                "--width",
                "4",
                "--height",
                "4",
                "--cycles",
                "200",
                "--json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"interpreter", "batched"}
        for prof in doc.values():
            assert prof["phase_sum_ns"] <= prof["total_ns"]
            assert prof["phases"]

    def test_obs_profile_table(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "obs",
                "profile",
                "--rate",
                "0.1",
                "--width",
                "4",
                "--height",
                "4",
                "--cycles",
                "200",
                "--engine",
                "interpreter",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "vc_alloc" in out and "% covered" in out
        assert "alloc_traversal" not in out  # batched engine filtered out


class TestHttpObservability:
    def test_metrics_and_spans_round_trip(self, live):
        client, server = live
        job = client.submit(
            {"version": 1, "family": "saturation-sweep", "params": dict(QUICK)}
        )
        client.wait(job["job_id"], timeout=120)

        doc = client.metrics()
        counters = doc["metrics"]["counters"]
        assert counters["scheduler.jobs.done"] >= 1
        assert counters["http.requests"] >= 1
        assert doc["cache"] == server.scheduler.cache_stats()

        trace = client.spans(job["job_id"])
        names = [s["name"] for s in trace["spans"]]
        assert "service.job" in names and "runner.sweep" in names
        det = client.spans(job["job_id"], deterministic=True)
        assert det["deterministic"] is True
        assert all("pid" not in s for s in det["spans"])

        health = client.health()
        assert health["jobs_by_state"]["done"] >= 1
        assert health["uptime_s"] >= 0

    def test_cli_obs_commands(self, live, capsys):
        from repro.cli import main

        client, _ = live
        url = ["--url", client.base_url]
        job = client.submit(
            {"version": 1, "family": "saturation-sweep", "params": dict(QUICK)}
        )
        client.wait(job["job_id"], timeout=120)

        assert main(["obs", "metrics", *url, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metrics"]["counters"]["scheduler.jobs.done"] >= 1
        assert main(["obs", "metrics", *url]) == 0
        assert "scheduler.jobs.done" in capsys.readouterr().out

        assert main(["obs", "trace", *url, job["job_id"]]) == 0
        out = capsys.readouterr().out
        assert "service.job" in out and "runner.sweep" in out
        assert main(["obs", "trace", *url, "job-000099"]) == 2
        assert "not_found" in capsys.readouterr().err


# -- metrics exposition over a live socket -----------------------------------

# Minimal Prometheus text-format (0.0.4) line grammar; the exhaustive
# validator lives in tests/unit/test_obs_pipeline.py.
_PROM_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_PROM_LINE = re.compile(
    rf"^(# TYPE {_PROM_NAME} (counter|gauge|histogram)"
    rf'|{_PROM_NAME}(\{{[^{{}}]*\}})? (NaN|[+-]Inf|[+-]?[0-9][^ ]*))$'
)


class TestTelemetryPipelineHttp:
    def test_prometheus_scrape_is_valid_text(self, live):
        client, _ = live
        client.health()  # ensure http counters exist
        text = client.prometheus()
        assert text.endswith("\n")
        for line in text.rstrip("\n").split("\n"):
            assert _PROM_LINE.match(line), line
        assert "# TYPE repro_http_requests_total counter" in text
        assert "repro_scheduler_queue_depth" in text

    def test_cli_pipeline_commands(self, live, capsys):
        from repro.cli import main

        client, _ = live
        url = ["--url", client.base_url]

        # --prom shares the exposition formatter with the root scrape.
        assert main(["obs", "metrics", *url, "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_http_requests_total counter" in out
        for line in out.rstrip("\n").split("\n"):
            assert _PROM_LINE.match(line), line

        # --watch renders the requested number of refreshes, then exits.
        assert (
            main(
                ["obs", "metrics", *url, "--watch", "0.01", "--watch-count", "2"]
            )
            == 0
        )
        out = capsys.readouterr().out
        # Two renders; the screen clears between refreshes, not before
        # the first one.
        assert out.count("\x1b[2J") == 1
        assert out.count("scheduler.queue_depth") == 2

        # Flag combinations that cannot be honoured exit loudly.
        assert main(["obs", "metrics", *url, "--json", "--prom"]) == 2
        capsys.readouterr()
        assert main(["obs", "metrics", *url, "--watch", "0"]) == 2
        capsys.readouterr()


# -- cross-process trace propagation (subprocess server) ---------------------

_BOOT_LINE = re.compile(r"listening on http://([^:/]+):(\d+)")


class TestCrossProcessTrace:
    def _run_against_fresh_server(self, state_dir):
        """Boot `repro serve` in a subprocess, submit traced, export."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(__file__).parents[2] / "src")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--state-dir",
                str(state_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            boot = proc.stdout.readline()
            m = _BOOT_LINE.search(boot)
            assert m, f"no boot line, got: {boot!r}"
            client = ServiceClient(f"http://{m.group(1)}:{m.group(2)}")

            clear_spans()
            job = client.submit(
                {
                    "version": 1,
                    "family": "saturation-sweep",
                    "params": dict(QUICK),
                }
            )
            client.wait(job["job_id"], timeout=120)
            client.merge_job_spans(job["job_id"])
            doc = export_trace(take_spans(), deterministic=True)
            return job["job_id"], doc
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_joined_trace_is_one_deterministic_tree(self, tracing, tmp_path):
        job_a, doc_a = self._run_against_fresh_server(tmp_path / "a")
        job_b, doc_b = self._run_against_fresh_server(tmp_path / "b")

        # Both runs hit a fresh server: same job id, same point work.
        assert job_a == job_b == "job-000001"

        spans = {s["span_id"]: s for s in doc_a["spans"]}
        by_name = {}
        for s in doc_a["spans"]:
            by_name.setdefault(s["name"], []).append(s)

        # ONE tree: the client's submit span is the only root...
        roots = [s for s in doc_a["spans"] if s["parent_id"] is None]
        assert [r["name"] for r in roots] == ["client.submit"]

        # ...and it is a transitive ancestor of the server-side spans.
        def ancestors(s):
            names = []
            while s["parent_id"] is not None:
                s = spans[s["parent_id"]]
                names.append(s["name"])
            return names

        [job_span] = by_name["service.job"]
        assert ancestors(job_span) == ["client.submit"]
        [sweep] = by_name["runner.sweep"]
        assert "client.submit" in ancestors(sweep)
        assert len(by_name["runner.point"]) == len(QUICK["rates"])

        # Byte-deterministic across fully fresh client+server runs.
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(
            doc_b, sort_keys=True
        )

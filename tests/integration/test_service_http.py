"""End-to-end service tests over a real socket.

A live :class:`ExperimentServer` on an ephemeral port, driven purely
through :class:`ServiceClient` — the same path the CLI commands take.
Covers the PR's acceptance criteria: HTTP-fetched metrics byte-identical
to a direct ``Runner.run``, duplicate concurrent submissions simulating
nothing twice, malformed documents surfacing as structured 400s, and a
killed-and-restarted service resuming a half-done job from the
checkpointed cache.
"""

import json
import threading

import pytest

from repro.experiments import EvaluationCache, Runner, scenario_family
from repro.obs import RunLedger
from repro.service import ExperimentScheduler, ServiceClient, ServiceError, make_server

QUICK = {"rates": [0.04, 0.08], "cycles": 300}


def quick_request():
    return {"version": 1, "family": "saturation-sweep", "params": dict(QUICK)}


@pytest.fixture
def live(tmp_path):
    """(client, server) over a real ephemeral-port socket."""
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


class TestRoundTrip:
    def test_health(self, live):
        client, _ = live
        doc = client.health()
        assert doc["ok"] is True
        assert doc["api_version"] == 1

    def test_submit_poll_fetch_matches_direct_runner(self, live):
        client, _ = live
        job = client.submit(quick_request())
        assert job["state"] in ("queued", "running", "done")
        done = client.wait(job["job_id"], timeout=120)
        assert done["state"] == "done"
        assert done["points_done"] == done["n_points"] == 2

        fetched = client.result(job["job_id"])
        direct = Runner().run(scenario_family("saturation-sweep", **QUICK))
        # JSON floats round-trip exactly (shortest-repr), so equality is
        # exact, not approximate.
        assert fetched["metrics"] == [r.metrics for r in direct]

    def test_npz_export_is_byte_deterministic(self, live, tmp_path):
        client, server = live
        job = client.submit(quick_request())
        client.wait(job["job_id"], timeout=120)
        over_http = client.result_npz(job["job_id"], out=tmp_path / "got.npz")
        assert (tmp_path / "got.npz").read_bytes() == over_http
        release = server.scheduler.release(job["job_id"])
        assert over_http == release.read_bytes()

    def test_trace_streams_ndjson_rows(self, live):
        client, _ = live
        job = client.submit(
            {
                "version": 1,
                "family": "telemetry-profile",
                "params": {"rates": [0.1], "cycles": 512, "window": 128},
            }
        )
        client.wait(job["job_id"], timeout=120)
        rows = list(client.trace(job["job_id"], point=0))
        assert rows[0]["type"] == "prologue"
        assert len(rows) == 1 + rows[0]["n_windows"]
        assert {r["type"] for r in rows[1:]} == {"window"}

    def test_audit_lists_jobs_and_cache(self, live):
        client, _ = live
        job = client.submit(quick_request())
        client.wait(job["job_id"], timeout=120)
        audit = client.jobs()
        assert [j["job_id"] for j in audit["jobs"]] == [job["job_id"]]
        assert audit["cache"]["size"] >= 2


class TestDeduplication:
    def test_duplicate_concurrent_submissions_simulate_once(self, live):
        client, server = live
        first = client.submit(quick_request())
        second = client.submit(quick_request())  # enqueued while #1 runs
        done_first = client.wait(first["job_id"], timeout=120)
        done_second = client.wait(second["job_id"], timeout=120)
        assert done_first["state"] == done_second["state"] == "done"
        # Zero additional simulations: every point of the duplicate job
        # was served from the shared cache...
        assert done_second["cache_hits"] == done_second["n_points"]
        assert done_second["cache_hit_ratio"] == 1.0
        # ...and the scheduler's cache counted exactly 2 misses total.
        assert server.scheduler.cache.misses == 2
        # Byte-identical results share one release version.
        a = client.result(first["job_id"])["release"]
        b = client.result(second["job_id"])["release"]
        assert a == b


class TestErrors:
    @pytest.mark.parametrize(
        ("request_doc", "code"),
        [
            ({"family": "saturation-sweep"}, "missing_version"),
            ({"version": 2, "family": "x"}, "unsupported_version"),
            ({"version": 1}, "missing_spec"),
            ({"version": 1, "family": "no-such-family"}, "invalid_family"),
            ({"version": 1, "scenarios": [{"bad": 1}]}, "invalid_scenario"),
        ],
    )
    def test_malformed_specs_are_structured_400s(self, live, request_doc, code):
        client, _ = live
        with pytest.raises(ServiceError) as err:
            client.submit(request_doc)
        assert err.value.status == 400
        assert err.value.code == code

    def test_unknown_job_is_404(self, live):
        client, _ = live
        with pytest.raises(ServiceError) as err:
            client.status("job-424242")
        assert err.value.status == 404
        assert err.value.code == "not_found"

    def test_result_of_unfinished_job_is_409(self, live):
        client, server = live
        server.scheduler.stop()  # nothing will dispatch
        job = client.submit(quick_request())
        with pytest.raises(ServiceError) as err:
            client.result(job["job_id"])
        assert err.value.status == 409
        assert err.value.code == "job_not_done"

    def test_unreachable_server(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.code == "unreachable"


class TestRestartResume:
    def test_killed_service_resumes_half_done_job(self, tmp_path):
        state = tmp_path / "state"
        # Stage the on-disk remains of a service killed mid-job: the job's
        # ledger says 'running' with one point done, and the cache
        # checkpoint holds that point's result (the dispatcher flushes
        # after every point).
        cold = ExperimentScheduler(state, auto_start=False)
        record = cold.submit(quick_request())
        scenarios = scenario_family("saturation-sweep", **QUICK)
        half = EvaluationCache()
        Runner(cache=half).run(scenarios[:1])
        half.flush(cold.cache_path)
        with RunLedger(cold.ledger_dir / f"{record.job_id}.ndjson") as ledger:
            ledger.append("job.running")
            ledger.append("point.completed", point=0, cached=False)

        # Boot a fresh server over the same state dir — the "restart".
        server = make_server("127.0.0.1", 0, state)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        try:
            done = client.wait(record.job_id, timeout=120)
            assert done["state"] == "done"
            assert done["resumed"] == 1
            # The checkpointed first point was not recomputed.
            assert done["cache_hits"] >= 1
            assert server.scheduler.cache.misses <= 1
            fetched = client.result(record.job_id)
            direct = Runner().run(scenarios)
            assert fetched["metrics"] == [r.metrics for r in direct]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


class TestCliClientCommands:
    """The CLI's service client commands against a live socket."""

    def test_submit_status_fetch_jobs(self, live, capsys):
        from repro.cli import main

        client, _ = live
        url = ["--url", client.base_url]
        assert (
            main(
                [
                    "submit",
                    *url,
                    "--family",
                    "saturation-sweep",
                    "--param",
                    "rates=[0.04]",
                    "--param",
                    "cycles=300",
                    "--wait",
                    "--json",
                ]
            )
            == 0
        )
        job = json.loads(capsys.readouterr().out)
        assert job["state"] == "done"
        assert main(["status", *url, job["job_id"]]) == 0
        assert job["job_id"] in capsys.readouterr().out
        assert main(["fetch", *url, job["job_id"], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["metrics"]) == 1
        assert main(["jobs", *url]) == 0
        assert job["job_id"] in capsys.readouterr().out

    def test_unknown_job_exits_2(self, live, capsys):
        from repro.cli import main

        client, _ = live
        assert main(["status", "--url", client.base_url, "job-000099"]) == 2
        assert "not_found" in capsys.readouterr().err

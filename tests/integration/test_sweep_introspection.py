"""End-to-end sweep introspection over a live service socket.

The PR's acceptance criteria, pinned against real HTTP:

* the run ledger survives a kill: a service staged as "killed mid-job"
  (torn final ledger line included) restarts, requeues, finishes — and
  replaying the ledger reconstructs the resumed job's final per-point
  states exactly as the live :class:`JobRecord` reports them;
* deterministic ledger and profile exports are byte-stable across runs
  and across ``--jobs`` values;
* the progress endpoint reports live, monotone counts with an ETA while
  a sweep runs, converging on ``done == n_points``;
* the aggregated sweep profile of a ``jobs=2`` run equals the merge of
  its per-point profiles, independent of merge order;
* the ``?state=`` audit filter and the CLI's ``status --watch`` /
  ``obs top`` / ``jobs --state`` / ``obs profile --job`` faces all work
  against a live server.
"""

import json
import random
import threading
import time

import pytest

from repro.experiments import EvaluationCache, Runner, scenario_family
from repro.obs import RunLedger, merge_profiles, replay_ledger
from repro.service import (
    ExperimentScheduler,
    ServiceClient,
    ServiceError,
    make_server,
)

QUICK = {"rates": [0.04, 0.08], "cycles": 300}


def quick_request():
    return {"version": 1, "family": "saturation-sweep", "params": dict(QUICK)}


def profiled_request(n_rates=4):
    rates = [round(0.03 + 0.03 * i, 2) for i in range(n_rates)]
    return {
        "version": 1,
        "family": "saturation-sweep",
        "params": {"rates": rates, "cycles": 300},
        "profile": True,
    }


def batched_request():
    params = {"rates": [0.04, 0.08, 0.12, 0.16], "cycles": 300, "engine": "batched"}
    return {"version": 1, "family": "saturation-sweep", "params": params}


def boot(state_dir, *, jobs=1):
    """A live server over ``state_dir``; caller must ``shut`` it."""
    server = make_server("127.0.0.1", 0, state_dir, jobs=jobs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, thread, ServiceClient(f"http://{host}:{port}")


def shut(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture
def live(tmp_path):
    server, thread, client = boot(tmp_path / "state")
    try:
        yield client, server
    finally:
        shut(server, thread)


class TestLedgerEndToEnd:
    def test_ledger_records_full_lifecycle(self, live):
        client, server = live
        job = client.submit(quick_request())
        done = client.wait(job["job_id"], timeout=120)

        doc = client.ledger(job["job_id"])
        events = doc["events"]
        assert doc["format"] == "repro.obs.ledger/1"
        assert events[0]["event"] == "job.submitted"
        assert events[-1]["event"] == "job.done"
        rep = replay_ledger(events)
        assert rep.job_id == job["job_id"]
        assert rep.state == "done"
        assert rep.n_points == done["n_points"] == 2
        assert rep.points_done == done["points_done"]
        assert rep.cache_hits == done["cache_hits"]
        assert rep.point_states == {0: "completed", 1: "completed"}
        # HTTP export and the scheduler's disk read agree event-for-event.
        assert events == server.scheduler.ledger_events(job["job_id"])

    def test_killed_service_replay_matches_resumed_record(self, tmp_path):
        state = tmp_path / "state"
        # Stage the remains of a service killed mid-job: first point
        # checkpointed in the cache, and a ledger that recorded the job
        # running and the first point's lifecycle before dying mid-append
        # (an unterminated final line — the worst crash the line-atomic
        # writer can leave behind).
        cold = ExperimentScheduler(state, auto_start=False)
        record = cold.submit(quick_request())
        job_id = record.job_id
        scenarios = scenario_family("saturation-sweep", **QUICK)
        half = EvaluationCache()
        Runner(cache=half).run(scenarios[:1])
        half.flush(cold.cache_path)
        cold.stop()

        ledger_path = state / "ledger" / f"{job_id}.ndjson"
        with RunLedger(ledger_path, job_id=job_id) as staged:
            staged.append("job.running")
            staged.append("point.dispatched", point=0, engine="batched")
            staged.append("point.simulating", point=0, worker=4242)
            staged.append("point.completed", point=0, cached=False)
        with open(ledger_path, "ab") as fh:
            fh.write(b'{"seq":99,"t":1.0,"event":"point.dis')  # torn append

        server, thread, client = boot(state)
        try:
            done = client.wait(job_id, timeout=120)
            assert done["state"] == "done"
            assert done["resumed"] == 1

            events = server.scheduler.ledger_events(job_id)
            # The torn tail was truncated on reopen; the boot-requeue's
            # event continued the surviving seq numbering.
            assert [e["seq"] for e in events] == list(range(len(events)))
            assert "job.requeued" in [e["event"] for e in events]
            assert all(e["event"] != "point.dis" for e in events)

            # Replay reconstructs the resumed job's final state exactly
            # as the live JobRecord reports it.
            rep = replay_ledger(events)
            assert rep.job_id == job_id
            assert rep.state == done["state"]
            assert rep.n_points == done["n_points"]
            assert rep.points_done == done["points_done"]
            assert rep.cache_hits == done["cache_hits"]
            assert rep.resumed == done["resumed"]
            assert rep.failed_points == 0
            assert set(rep.point_states.values()) <= {"completed", "cached"}
            # The checkpointed first point came back as a cache hit.
            assert rep.point_states[0] == "cached"

            # The HTTP-fetched export replays to the same state.
            over_http = replay_ledger(client.ledger(job_id)["events"])
            assert over_http.to_json() == rep.to_json()
        finally:
            shut(server, thread)

    def test_deterministic_exports_stable_across_jobs(self, tmp_path):
        """jobs=1 and jobs=2 sweeps export byte-identical documents."""
        exports = []
        for jobs in (1, 2):
            server, thread, client = boot(tmp_path / f"j{jobs}", jobs=jobs)
            try:
                quick = client.submit(quick_request())
                client.wait(quick["job_id"], timeout=120)
                prof = client.submit(profiled_request())
                client.wait(prof["job_id"], timeout=120)
                # jobs=2 runs this family as two batched chunks on the pool.
                batched = client.submit(batched_request())
                client.wait(batched["job_id"], timeout=120)
                exports.append(
                    tuple(
                        json.dumps(doc, sort_keys=True)
                        for doc in (
                            client.ledger(quick["job_id"], deterministic=True),
                            client.profile(prof["job_id"], deterministic=True),
                            client.ledger(batched["job_id"], deterministic=True),
                        )
                    )
                )
            finally:
                shut(server, thread)
        assert exports[0] == exports[1]
        # And stable across runs of the same server config.
        server, thread, client = boot(tmp_path / "again", jobs=2)
        try:
            quick = client.submit(quick_request())
            client.wait(quick["job_id"], timeout=120)
            again = json.dumps(
                client.ledger(quick["job_id"], deterministic=True),
                sort_keys=True,
            )
        finally:
            shut(server, thread)
        assert again == exports[0][0]


class TestProgressLive:
    def test_counts_are_live_monotone_and_complete(self, live):
        client, _ = live
        job = client.submit(
            {
                "version": 1,
                "family": "saturation-sweep",
                "params": {
                    "rates": [0.02, 0.05, 0.08, 0.11, 0.14, 0.17],
                    "cycles": 800,
                },
            }
        )
        job_id = job["job_id"]
        deadline = time.monotonic() + 120
        samples = [client.progress(job_id)]
        while samples[-1]["state"] not in ("done", "failed"):
            assert time.monotonic() < deadline, "sweep never finished"
            time.sleep(0.005)
            samples.append(client.progress(job_id))
        final = samples[-1]
        assert final["state"] == "done"
        assert final["points_done"] == final["n_points"] == 6
        assert final["pct"] == 100.0
        assert final["eta_s"] == 0.0
        done_counts = [s["points_done"] for s in samples]
        assert done_counts == sorted(done_counts)  # monotone
        # The first poll raced the dispatcher, not the finish line: it
        # observed the sweep before completion, with the live-tracker
        # fields present.
        assert samples[0]["points_done"] < 6
        assert {"in_flight", "throughput_pps", "eta_s"} <= samples[0].keys()

    def test_unknown_job_is_404(self, live):
        client, _ = live
        with pytest.raises(ServiceError) as err:
            client.progress("job-424242")
        assert err.value.status == 404
        assert err.value.code == "not_found"

    def test_state_filter_and_bad_state(self, live):
        client, _ = live
        job = client.submit(quick_request())
        client.wait(job["job_id"], timeout=120)
        done = client.jobs(state="done")
        assert [j["job_id"] for j in done["jobs"]] == [job["job_id"]]
        assert client.jobs(state="running")["jobs"] == []
        with pytest.raises(ServiceError) as err:
            client.jobs(state="bogus")
        assert err.value.status == 400
        assert err.value.code == "invalid"


class TestProfileAggregation:
    def test_endpoint_equals_merge_of_per_point_profiles(self, tmp_path):
        server, thread, client = boot(tmp_path / "state", jobs=2)
        try:
            job = client.submit(profiled_request())
            client.wait(job["job_id"], timeout=120)
            doc = client.profile(job["job_id"])
            assert doc["n_profiles"] == 4
            assert doc["state"] == "done"

            raw = server.scheduler.job_profiles(job["job_id"])
            assert len(raw) == 4 and all(p is not None for p in raw)
            expected = merge_profiles(raw).to_json()
            body = {
                k: v
                for k, v in doc.items()
                if k not in ("job_id", "state", "n_points")
            }
            assert body == expected

            # Order-independent: shuffling the per-point profiles merges
            # to the identical aggregate.
            shuffled = list(raw)
            random.Random(7).shuffle(shuffled)
            assert merge_profiles(shuffled).to_json() == expected
        finally:
            shut(server, thread)

    def test_unprofiled_job_reports_zero_profiles(self, live):
        client, _ = live
        job = client.submit(quick_request())
        client.wait(job["job_id"], timeout=120)
        doc = client.profile(job["job_id"])
        assert doc["n_profiles"] == 0
        assert doc["engines"] == {}


class TestCliIntrospection:
    """The new CLI faces, end to end against a live socket."""

    def test_submit_watch_top_profile(self, live, capsys):
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
                    "rates=[0.04, 0.08]",
                    "--param",
                    "cycles=300",
                    "--profile",
                    "--poll-interval",
                    "0.05",
                    "--wait",
                    "--json",
                ]
            )
            == 0
        )
        job = json.loads(capsys.readouterr().out)
        job_id = job["job_id"]
        assert job["state"] == "done"

        # --watch on a finished job renders one progress line and exits 0.
        assert main(["status", *url, job_id, "--watch"]) == 0
        out = capsys.readouterr().out
        assert job_id in out and "100.0%" in out and "2/2" in out

        assert main(["jobs", *url, "--state", "done"]) == 0
        out = capsys.readouterr().out
        assert job_id in out and "(done)" in out and "2/2" in out
        assert main(["jobs", *url, "--state", "failed", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["jobs"] == []

        assert main(["obs", "top", *url, "--count", "1"]) == 0
        assert job_id in capsys.readouterr().out

        assert main(["obs", "profile", "--job", job_id, *url]) == 0
        out = capsys.readouterr().out
        assert f"sweep profile: {job_id}" in out
        assert "engine" in out and "p99" in out

    def test_watch_rejects_bad_poll_interval(self, live, capsys):
        from repro.cli import main

        client, _ = live
        args = ["status", "--url", client.base_url, "job-000001"]
        assert main([*args, "--watch", "--poll-interval", "0"]) == 2
        assert "poll-interval" in capsys.readouterr().err

"""The ``service-session`` workload: ``repro serve`` driven over HTTP.

The server runs as a subprocess (``python -m repro serve``, or the
tracing launcher ``serve_traced.py``) on a state directory pre-filled
with 100 cache entries; the session adds 400 more. One closed-loop
client, one connection at a time, submits fresh 4-rate 4x4 family
sweeps (distinct seeds), and then resubmits the same requests, which
must all be cache hits. For every job it polls ``GET /jobs/<id>`` at a
fixed interval until the job is done, then fetches ``/result``. The
first poll of each job comes after a seeded random share of the
interval, so a job's latency is its completion plus a uniform wait, not
its completion rounded up to the poll grid: on the rounded grid a small
change in job time moves a percentile by a whole interval. The client
is plain ``http.client``, so a change to ``repro.service.client``
cannot change what is measured.

Why this traffic: each completed batch of points checkpoints the cache
by re-reading and rewriting the whole cache file. Fresh jobs write it,
resubmits only read it but still rewrite it, and the status polls read
while a job is writing.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

POLL_INTERVAL_S = 0.05
JOB_TIMEOUT_S = 60.0
N_JOBS = 100
JOB_RATES = (0.05, 0.1, 0.15, 0.2)
JOB_CYCLES = 50
PREFILL_POINTS = 100
PREFILL_CYCLES = 50

_LISTEN = re.compile(r"listening on http://[^:]+:(\d+)")


def child_env() -> dict[str, str]:
    """This environment, with the checkout's ``src`` first on the import path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + rest if rest else "")
    return env


def job_request(seed: int, k: int) -> dict:
    """The k-th session job: a 4-rate 4x4 sweep on the batched engine."""
    return {
        "version": 1,
        "family": "saturation-sweep",
        "params": {
            "rates": list(JOB_RATES),
            "width": 4,
            "height": 4,
            "cycles": JOB_CYCLES,
            "seed": seed * 100_000 + k,
            "engine": "batched",
        },
    }


def prefill_request(seed: int) -> dict:
    """Distinct low-rate 4x4 points, none shared with the session jobs."""
    return {
        "version": 1,
        "family": "saturation-sweep",
        "params": {
            "rates": [round(0.005 + 0.0001 * i, 4) for i in range(PREFILL_POINTS)],
            "width": 4,
            "height": 4,
            "cycles": PREFILL_CYCLES,
            "seed": seed * 100_000 + 99_999,
            "engine": "batched",
        },
    }


class Client:
    """Closed-loop HTTP client counting attempted and failed requests."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.attempted = 0
        self.failed = 0

    def call(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict | None]:
        self.attempted += 1
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            data = None if body is None else json.dumps(body).encode()
            headers = {} if data is None else {"Content-Type": "application/json"}
            conn.request(method, "/api/v1" + path, body=data, headers=headers)
            resp = conn.getresponse()
            payload = resp.read()
            status = resp.status
        except OSError:
            status, payload = 0, b""
        finally:
            conn.close()
        if not 200 <= status < 300:
            self.failed += 1
            return status, None
        return status, json.loads(payload)


class Server:
    """One ``repro serve`` subprocess on ``state_dir``, bound to a free port."""

    def __init__(self, state_dir: Path, log: Path, trace_out: Path | None = None) -> None:
        args = ["--port", "0", "--state-dir", str(state_dir)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(trace_out), *args]
        self._log = open(log, "ab")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        try:
            self.port = self._read_port(deadline=t0 + 120)
            self.client = Client(self.port)
            while self.client.call("GET", "/health")[0] != 200:
                if self.proc.poll() is not None or time.monotonic() > t0 + 120:
                    raise RuntimeError(f"server did not become healthy; see {log}")
                time.sleep(0.01)
            self.setup_s = time.monotonic() - t0
        except BaseException:
            self.stop()
            raise
        # Readiness probes are not session traffic.
        self.client.attempted = self.client.failed = 0

    def _read_port(self, deadline: float) -> int:
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                m = _LISTEN.search(line)
                if m:
                    return int(m.group(1))
            elif self.proc.poll() is not None:
                break
        raise RuntimeError("server did not report its port")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        """SIGTERM (the server checkpoints and exits), then reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def run_job(
    client: Client,
    request: dict,
    status_ms: list[float],
    spans: list[dict] | None = None,
    poll_s: float = POLL_INTERVAL_S,
    phase: float = 1.0,
) -> dict | None:
    """Submit, poll at a fixed interval until done, fetch the result.

    The first poll comes ``phase * poll_s`` after the submit returns.
    Returns the result document with ``latency_ms`` (submit to result in
    hand) added, or None if any step failed. With ``spans``, appends one
    ``client.job`` span per job and one child span per request, all
    carrying the job id as their operation id.
    """
    calls: list[tuple[str, float, float]] = []

    def call(name: str, method: str, path: str, body: dict | None = None):
        a = time.monotonic()
        reply = client.call(method, path, body)
        calls.append((name, a, time.monotonic()))
        return reply[1]

    t0 = time.monotonic()
    doc = call("client.submit", "POST", "/jobs", request)
    if doc is None:
        return None
    job_id = doc["job"]["job_id"]
    due = time.monotonic() + phase * poll_s
    while True:
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        due += poll_s
        doc = call("client.status", "GET", f"/jobs/{job_id}")
        status_ms.append((calls[-1][2] - calls[-1][1]) * 1e3)
        if doc is None:
            return None
        if doc["state"] in ("done", "failed") or calls[-1][1] - t0 > JOB_TIMEOUT_S:
            break
    if doc["state"] != "done":
        client.failed += 1
        return None
    result = call("client.result", "GET", f"/jobs/{job_id}/result")
    if result is None:
        return None
    t1 = time.monotonic()
    result["latency_ms"] = (t1 - t0) * 1e3
    if spans is not None:
        root = len(spans)
        spans.append({"id": root, "name": "client.job", "start": t0, "end": t1,
                      "parent": None, "op": job_id})
        spans.extend(
            {"id": root + i + 1, "name": name, "start": a, "end": b, "parent": root,
             "op": job_id}
            for i, (name, a, b) in enumerate(calls)
        )
    return result


def build_prefill(state_dir: Path, log: Path, seed: int) -> None:
    """Fill ``state_dir`` through the service itself (the code under test)."""
    server = Server(state_dir, log)
    try:
        result = run_job(server.client, prefill_request(seed), [], poll_s=0.2)
        if result is None or server.client.failed:
            raise RuntimeError(f"pre-fill job failed; see {log}")
    finally:
        server.stop()


def cold_start(prefill: Path, work: Path, log: Path) -> float:
    """Spawn a server on a fresh copy of the pre-fill; seconds to healthy."""
    state = work / "state"
    shutil.copytree(prefill, state)
    server = Server(state, log)
    server.stop()
    shutil.rmtree(state)
    return server.setup_s


def session(
    prefill: Path,
    work: Path,
    seed: int,
    trace_out: Path | None = None,
    n_jobs: int = N_JOBS,
) -> dict:
    """One measured session of ``n_jobs`` fresh and ``n_jobs`` resubmitted jobs."""
    state = work / "state"
    shutil.copytree(prefill, state)
    server = Server(state, work / "server.log", trace_out)
    client = server.client
    fresh, resubmit, status_ms = [], [], []
    phases = random.Random(seed)
    mark = trace_out is not None
    spans: list[dict] | None = [] if mark else None
    try:
        if mark:
            client.call("GET", "/health?perfbench_mark=start")
        t0 = time.monotonic()
        for k in range(n_jobs):
            fresh.append(run_job(client, job_request(seed, k), status_ms, spans,
                                 phase=phases.random()))
        if mark:
            client.call("GET", "/health?perfbench_mark=resubmit")
        for k in range(n_jobs):
            resubmit.append(run_job(client, job_request(seed, k), status_ms, spans,
                                    phase=phases.random()))
        wall = time.monotonic() - t0
        if mark:
            client.call("GET", "/health?perfbench_mark=end")
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    shutil.rmtree(state)
    checks = [
        ["every job reaches done", all(fresh) and all(resubmit),
         f"{sum(map(bool, fresh + resubmit))}/{2 * n_jobs}"],
        ["fresh jobs are cache misses",
         all(r["cache_hits"] == 0 for r in fresh if r), len(fresh)],
        ["resubmits are all cache hits",
         all(r["cache_hits"] == r["n_points"] for r in resubmit if r), len(resubmit)],
    ]
    return {
        "setup_s": server.setup_s,
        "wall_s": wall,
        "rss_mb": rss,
        "fresh_ms": [r["latency_ms"] for r in fresh if r],
        "resubmit_ms": [r["latency_ms"] for r in resubmit if r],
        "status_ms": status_ms,
        "checks": checks,
        "attempted": client.attempted,
        "failed": client.failed,
        "spans": spans,
        "sample": [
            {"job_id": r["job_id"], "family": "saturation-sweep",
             "params": job_request(seed, k)["params"], "metrics": r["metrics"]}
            for k, r in enumerate(fresh)
            if r and k % (n_jobs // 3) == seed % (n_jobs // 3)
        ],
    }

"""Benchmark of the HyPPI NoC reproduction: one workload per invocation.

    python3 perfbench/run.py --workload fig5-grid --seed 1 --seconds 35 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``fig5-grid`` and ``fig6-npb`` run ``Runner.run`` in a
  fresh interpreter per execution (``worker.py``), ``jobs=1``, each
  followed by re-runs of the sweep from its saved cache in fresh
  interpreters, for ``--seconds``;
* ``service-session`` drives ``repro serve`` over HTTP (``service.py``).

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` runs the workload once untraced and once with the layer
tracer installed (``tracer.py``), and prints the per-layer metrics of
the traced run plus ``trace.overhead_pct``, the traced run's extra wall
time. Outputs are checked in both modes; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. Working
files live under ``.perfbench/`` in the checkout and are removed at the
end, except the span files written by traced runs to ``.perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import service  # noqa: E402
import tracer  # noqa: E402

IN_PROCESS = ("fig5-grid", "fig6-npb")
WORKLOADS = IN_PROCESS + ("service-session",)
#: Server cold starts per service run; ``setup_s`` is their median.
SERVER_COLD_STARTS = 7
#: An in-process run repeats cycles of one fresh execution and this many
#: re-runs of the sweep from the cache it saved, each in a fresh
#: interpreter and each a cold start for ``setup_s``, until ``--seconds``
#: would be exceeded; it makes at least ``MIN_CYCLES``.
RESUBMITS_PER_CYCLE = 2
MIN_CYCLES = 3
WORKER_TIMEOUT_S = 170
WORK_DIR = ROOT / ".perfbench"


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_metrics(**samples: list[float]) -> dict:
    """Per-operation latency percentiles, with their sample counts."""
    out = {}
    for kind, values in samples.items():
        for q in (50, 90):
            out[f"{kind}_p{q}_ms"] = (percentile(values, q), len(values))
    return out


def completion_gaps_ms(points_ms: list[float], wall_ms: float) -> list[float]:
    """Intervals between a sweep's start, its point completions and its end."""
    stamps = sorted(points_ms)
    return [b - a for a, b in zip([0.0, *stamps], [*stamps, wall_ms])]


def progress_age_ms(gaps_ms: list[float], q: float) -> float:
    """The age of a sweep's progress that a share ``q`` of its time stays within.

    The age is the time since the last point's result completed, or
    since the start: within each gap between completions it grows from 0
    to the gap, so it stays within ``a`` for ``sum(min(gap, a))`` of the
    time. It is computed after the sweep from the completion times, so
    nothing but ``Runner.run`` runs while the sweep is timed.
    """
    gaps = sorted(gaps_ms)
    target = q * sum(gaps)
    below = 0.0
    for k, gap in enumerate(gaps):
        if below + (len(gaps) - k) * gap >= target:
            return (target - below) / (len(gaps) - k)
        below += gap
    return gaps[-1]


def spawn_worker(*args: str) -> dict:
    """Run ``worker.py``; returns its JSON result plus ``spawned``, its start."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=service.child_env(),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["spawned"] = t0
    return out


def traced_layers(trace_file: Path, ratio_mark: str | None = None) -> dict:
    doc = json.loads(trace_file.read_text())
    marks = {m["label"]: m for m in doc["marks"]}
    for layer, reason in doc["unmeasured"].items():
        print(f"unmeasured layer {layer}: {reason}")
    cpu_s = marks["end"]["cpu"] - marks["start"]["cpu"]
    for layer, self_s in tracer.layer_self_times(marks["start"], marks["end"]).items():
        share = 100 * self_s / cpu_s
        print(f"layer {layer:12s} self {self_s:10.4f} s  {share:5.1f}% of CPU")
    return tracer.per_layer(
        marks["start"],
        marks["end"],
        doc["unmeasured"],
        ratio_start=marks[ratio_mark] if ratio_mark else None,
    )


def run_in_process(
    workload: str, seed: int, seconds: int, trace: bool, work: Path, out_dir: Path
) -> dict:
    common = ("--workload", workload, "--seed", str(seed))
    if trace:
        base = spawn_worker(*common)
        trace_file = out_dir / f"{workload}-seed{seed}.trace.json"
        traced = spawn_worker(*common, "--trace-out", str(trace_file))
        layers = traced_layers(trace_file)
        layers["trace.overhead_pct"] = 100.0 * (traced["wall_s"] / base["wall_s"] - 1)
        return {"execs": [base, traced], "metrics": {k: (v, 1) for k, v in layers.items()}}
    deadline = time.monotonic() + seconds
    fresh: list[dict] = []
    resubmits: list[dict] = []
    cycles: list[float] = []
    # Cycles of one fresh execution and its re-runs, interleaved so that
    # every kind of sample spreads over the whole run.
    while len(cycles) < MIN_CYCLES or (
        time.monotonic() + statistics.median(cycles) <= deadline
    ):
        start = time.monotonic()
        cache_file = work / f"cache-{len(cycles)}.json"
        fresh.append(spawn_worker(*common, "--cache-out", str(cache_file)))
        for _ in range(RESUBMITS_PER_CYCLE):
            resubmits.append(spawn_worker(*common, "--resubmit", str(cache_file)))
        cycles.append(time.monotonic() - start)
    sweeps = [completion_gaps_ms(e["fresh_ms"], e["wall_s"] * 1e3) for e in fresh]
    gaps = [g for sweep in sweeps for g in sweep]
    setups = [e["ready"] - e["spawned"] for e in fresh + resubmits]
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(e["wall_s"] for e in fresh), len(fresh)),
        "peak_rss_mb": (statistics.median(e["rss_mb"] for e in fresh), len(fresh)),
        **op_metrics(
            # Each point's own time: from the previous point's result (or the
            # sweep's start) to its result in hand.
            fresh=[ms for sweep in sweeps for ms in sweep[:-1]],
            resubmit=[(e["done"] - e["spawned"]) * 1e3 for e in resubmits],
        ),
        "status_p50_ms": (progress_age_ms(gaps, 0.5), len(gaps)),
        "status_p90_ms": (progress_age_ms(gaps, 0.9), len(gaps)),
    }
    return {"execs": fresh + resubmits, "metrics": metrics}


def verify_sample(session: dict, work: Path) -> list[list]:
    path = work / "sample.json"
    path.write_text(json.dumps(session["sample"]))
    return spawn_worker("--verify-service", str(path))["checks"]


def run_service(seed: int, trace: bool, work: Path, out_dir: Path) -> dict:
    prefill = work / "prefill"
    service.build_prefill(prefill, work / "prefill.log", seed)
    if trace:
        # Two half-size sessions keep a traced run about as long as an
        # untraced one.
        half = service.N_JOBS // 2
        base = service.session(prefill, work, seed, n_jobs=half)
        trace_file = out_dir / f"service-session-seed{seed}.server-trace.json"
        traced = service.session(prefill, work, seed, trace_out=trace_file, n_jobs=half)
        layers = traced_layers(trace_file, ratio_mark="resubmit")
        layers["trace.overhead_pct"] = 100.0 * (traced["wall_s"] / base["wall_s"] - 1)
        client_file = out_dir / f"service-session-seed{seed}.client-trace.json"
        client_file.write_text(json.dumps(traced["spans"]))
        sessions = [base, traced]
        metrics = {k: (v, 1) for k, v in layers.items()}
    else:
        setups = [
            service.cold_start(prefill, work, work / "cold.log")
            for _ in range(SERVER_COLD_STARTS - 1)
        ]
        run = service.session(prefill, work, seed)
        sessions = [run]
        metrics = {
            "setup_s": (statistics.median(setups + [run["setup_s"]]), len(setups) + 1),
            "wall_s": (run["wall_s"], 1),
            "peak_rss_mb": (run["rss_mb"], 1),
            **op_metrics(
                fresh=run["fresh_ms"], resubmit=run["resubmit_ms"], status=run["status_ms"]
            ),
        }
    for s in sessions:
        s["checks"] = s["checks"] + verify_sample(s, work)
    return {"execs": sessions, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description="HyPPI NoC reproduction benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_file.is_file():
        print(
            "error: run from a checkout holding src/repro and BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_file.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    # Every process of the run (workers, servers, and this one, the HTTP
    # client) shares one CPU. On a virtual machine a thread woken on
    # another, idle virtual CPU waits until the host schedules that CPU,
    # and a service session wakes threads thousands of times.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    out_dir = WORK_DIR / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    work = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run with this pid
    work.mkdir(parents=True)
    try:
        # Untimed: compiles the checkout's bytecode, which imports do not
        # write when PYTHONDONTWRITEBYTECODE is set, and warms the page
        # cache, so that no cold start or sweep below compiles the program.
        spawn_worker("--warmup")
        if args.workload == "service-session":
            result = run_service(args.seed, bool(args.trace), work, out_dir)
        else:
            result = run_in_process(
                args.workload, args.seed, args.seconds, bool(args.trace), work, out_dir
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = [c for e in result["execs"] for c in e["checks"]]
    attempted = sum(e["attempted"] for e in result["execs"]) + len(checks)
    failed = sum(e["failed"] for e in result["execs"]) + sum(not ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    metrics = {}
    for m in declared:
        value, n = result["metrics"][m["name"]]
        print(f"{args.workload:16s} {m['name']:34s} {value:14.6f} {m['unit']:6s} n={n}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

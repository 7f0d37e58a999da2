"""One execution of an in-process workload, in a fresh interpreter.

Each execution runs in its own process so that every measurement starts
cold: ``repro``'s per-process memo caches (topologies, routing tables,
DSENT figures) are empty, as they are for a user's first call. The
parent (``run.py``) times the spawn; this process reports when it is
ready (imports plus scenario expansion) and then either

* runs the fresh sweep through ``Runner.run`` (``jobs=1``, no process
  pool, a fresh ``EvaluationCache``), stamping when each point's result
  is complete, and saves the cache with ``--cache-out``; or
* with ``--resubmit CACHE``, re-runs the same sweep from that saved
  cache, as a user re-runs a cached sweep: every point must be a hit.
  It reports when the results are in hand.

Outputs are checked outside every timer. With ``--trace-out`` the
scenario expansion and the fresh sweep run with the layer tracer
installed. The last line of stdout is one JSON object for the parent.

Run by ``run.py``; by hand::

    PYTHONPATH=src python3 perfbench/worker.py --workload fig6-npb --seed 1
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def expand(workload: str, seed: int):
    from repro.api import scenario_family
    from repro.tech import Technology

    if workload == "fig5-grid":
        # Fig. 5a: the electronic base, plain and with x3 express links.
        return scenario_family(
            "paper-grid",
            hops_options=(3,),
            base_technologies=(Technology.ELECTRONIC,),
            seed=seed,
        )
    if workload == "fig6-npb":
        # CG only: FT's all-to-all (65280 packets per run) would make this
        # workload 4x longer. The NPB traces are fixed skeletons, so the
        # seed selects nothing here.
        return scenario_family("npb-kernels", kernels=("CG",), hops_options=(0, 3))
    raise ValueError(f"unknown in-process workload {workload!r}")


def run_sweep(scenarios, cache):
    """One ``Runner.run``; returns (results, wall_s, per-point ms).

    A point's time is from the start of the run until the runner reports
    its result complete; the observer only stamps the clock.
    """
    from repro.api import Runner

    stamps: list[float] = []

    def observe(event: dict) -> None:
        if event["event"] in ("point.completed", "point.cached"):
            stamps.append(time.monotonic())

    t0 = time.monotonic()
    results = Runner(jobs=1, cache=cache, observer=observe).run(scenarios)
    wall = time.monotonic() - t0
    return results, wall, [(t - t0) * 1e3 for t in stamps]


# -- output checks -------------------------------------------------------


def check_fig5(results) -> list[list]:
    by_topo = {}
    for res in results:
        topo = res.scenario.topology
        express = topo.express_technology.value if topo.express_technology else None
        by_topo[(topo.base_technology.value, express)] = float(res.metrics["clear"])
    plain = by_topo[("electronic", None)]
    hyppi = by_topo[("electronic", "hyppi")]
    elec = by_topo[("electronic", "electronic")]
    phot = by_topo[("electronic", "photonic")]
    return [
        ["all CLEAR finite and positive", all(
            math.isfinite(v) and v > 0 for v in by_topo.values()
        ), len(by_topo)],
        ["HyPPI x3 CLEAR >= 1.8x electronic mesh", hyppi >= 1.8 * plain,
         round(hyppi / plain, 4)],
        ["Fig. 5a order HyPPI > electronic > photonic x3", hyppi > elec > phot,
         [round(hyppi, 3), round(elec, 3), round(phot, 3)]],
    ]


def check_npb(results) -> list[list]:
    lat = {r.scenario.label: float(r.metrics["avg_latency"]) for r in results}
    drained = sum(bool(r.metrics["drained"]) for r in results)
    mesh, express = lat["npb-cg-mesh"], lat["npb-cg-h3"]
    return [
        ["every run drains", drained == len(results), f"{drained}/{len(results)}"],
        ["CG: express beats mesh", express < mesh, round(mesh / express, 4)],
    ]


def verify_service(path: str) -> list[list]:
    """Compare sampled service jobs with a direct ``Runner.run``."""
    from repro.api import Runner, scenario_family

    checks = []
    for job in json.loads(Path(path).read_text()):
        params = {
            k: tuple(v) if isinstance(v, list) else v for k, v in job["params"].items()
        }
        direct = Runner(jobs=1).run(scenario_family(job["family"], **params))
        direct_metrics = json.loads(json.dumps([r.metrics for r in direct]))
        checks.append(
            [f"{job['job_id']} == direct Runner.run", direct_metrics == job["metrics"],
             len(direct_metrics)]
        )
    return checks


def resubmit(scenarios, cache_file: str) -> dict:
    """Re-run the sweep from the saved cache; every point must be a hit."""
    from repro.api import EvaluationCache, Runner

    cache = EvaluationCache.load(cache_file)
    results = Runner(jobs=1, cache=cache).run(scenarios)
    done = time.monotonic()
    checks = [["resubmit served from the cache", cache.stats["hits"] == len(results)
               and cache.stats["misses"] == 0, cache.stats]]
    return {"done": done, "checks": checks, "attempted": len(scenarios),
            "failed": len(scenarios) - len(results)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--trace-out", metavar="PATH", help="trace the fresh sweep; write spans here"
    )
    ap.add_argument("--cache-out", metavar="PATH", help="save the fresh sweep's cache")
    ap.add_argument("--resubmit", metavar="CACHE", help="re-run from a saved cache")
    ap.add_argument("--verify-service", metavar="JOBS_JSON")
    ap.add_argument(
        "--warmup", action="store_true", help="compile src, import repro.api and exit"
    )
    args = ap.parse_args()

    if args.warmup:
        import compileall

        # Modules imported lazily inside Runner.run would otherwise be
        # compiled inside the first timed sweep of a fresh checkout.
        compileall.compile_dir(str(HERE.parent / "src"), quiet=1)
        import repro.api  # noqa: F401

        print(json.dumps({}))
        return 0
    if args.verify_service:
        print(json.dumps({"checks": verify_service(args.verify_service)}))
        return 0

    from repro.api import EvaluationCache

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.mark("start")
    scenarios = expand(args.workload, args.seed)
    ready = time.monotonic()
    if args.resubmit:
        print(json.dumps({"ready": ready, **resubmit(scenarios, args.resubmit)}))
        return 0

    cache = EvaluationCache()
    results, wall, fresh_ms = run_sweep(scenarios, cache)
    if tracer is not None:
        tracer.mark("end")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.cache_out:
        cache.save(args.cache_out)

    if args.workload == "fig5-grid":
        checks = check_fig5(results)
    else:
        checks = check_npb(results)
    out = {
        "ready": ready,
        "wall_s": wall,
        "fresh_ms": fresh_ms,
        "rss_mb": rss_mb,
        "checks": checks,
        # A point counts as failed if its result never arrived.
        "attempted": len(scenarios),
        "failed": len(scenarios) - len(fresh_ms),
    }
    if tracer is not None:
        tracer.dump(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

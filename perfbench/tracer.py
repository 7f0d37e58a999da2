"""Per-layer tracing of ``repro`` from outside the program.

The benchmark measures each layer by wrapping that layer's functions at
run time. Nothing under ``src/`` is edited and no ``repro.bench`` or
``repro.obs.trace`` code is used, so a change to the program cannot
change how the program is measured.

Every wrapped call is a *frame* on a per-thread stack. A frame's
duration is the CPU time of its thread (``time.thread_time``), so a
thread that waits for the interpreter lock, a lock or a socket is not
charged for the wait, and concurrent server threads are not counted
twice. When a frame ends, its duration is added to its parent's child
time, and its *self time* (duration minus the time its children cover)
is added to its metric. Self times therefore partition the traced
process's CPU time between the layers; ``trace.coverage_pct`` is their
sum over the CPU time of the process in the window, which for the
single-threaded sweeps equals their wall time. Leaf functions are timed
without a span record. The one hot leaf, ``RoutingTable.path`` (about
1.5 million calls on the Fig. 5 grid, which runs on a single thread), is
timed by the cheaper wall clock to keep the cost of tracing down.

Counters are cumulative; :meth:`Tracer.mark` snapshots them, and the
per-layer metrics of a window are the difference of two snapshots. A
traced server takes its marks from ``GET ...?perfbench_mark=<label>``
requests: the program answers them as ordinary health checks, and the
wrapped HTTP handler takes the snapshot once the reply is written.

If a wrapped function has been moved or renamed, its layer is reported
as unmeasured (its metrics read 0 and ``trace.unmeasured_layers`` counts
it) instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import re
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

# CLOCK_MONOTONIC is system-wide on Linux, so spans recorded in the server
# process and in the benchmark client share one time axis.
now = time.monotonic
cpu = time.thread_time

#: The ten phase names of both engines' ``PhaseProfile``.
PHASES = (
    "setup",
    "arrivals",
    "injection",
    "vc_alloc",
    "switch_alloc",
    "drain",
    "finalize",
    "alloc_traversal",
    "scalar_replay",
    "clock",
)

LAYERS = (
    "topology",
    "analysis",
    "dsent",
    "traffic",
    "simulation",
    "experiments",
    "service",
    "obs",
)

#: (frame name, "module:attribute path", kind); the name's first part is
#: the layer, a top-level package of ``repro``. ``span`` is a frame
#: with a span record and ``leaf`` is timed and counted without one;
#: ``hot`` is a leaf timed by wall clock, for a function called so often
#: on a single thread that the CPU clock's cost would show;
#: ``gen`` times each resumption of a generator. The other kinds are spans
#: that also count work: ``point`` takes the scenario label as operation
#: id, ``trace`` counts packets, ``engine`` attaches a ``PhaseProfile``
#: and counts simulated cycles and flit hops, ``cache_get`` counts hits,
#: ``http``, ``submit`` and ``execute`` time requests and jobs.
#: ``_Handler.handle`` (the stdlib handler interface) and
#: ``ExperimentScheduler._execute`` are the only non-public seams: the
#: service has no public per-request or per-job entry point.
TARGETS = (
    ("topology.build", "repro.topology.mesh:build_mesh", "span"),
    ("topology.build", "repro.topology.mesh:build_express_mesh", "span"),
    ("topology.routing_init", "repro.topology.routing:RoutingTable.__init__", "span"),
    ("topology.path", "repro.topology.routing:RoutingTable.path", "hot"),
    ("analysis.evaluate", "repro.analysis.network_clear:evaluate_network", "span"),
    ("analysis.latency", "repro.analysis.latency:average_latency_cycles", "span"),
    ("analysis.flows", "repro.analysis.flows:assign_flows", "span"),
    ("analysis.power", "repro.analysis.power:network_power", "span"),
    ("dsent.eval", "repro.dsent.router_model:RouterPowerArea.evaluate", "leaf"),
    ("dsent.eval", "repro.dsent.link_model:NocLinkModel.evaluate", "leaf"),
    ("traffic.matrix", "repro.experiments.spec:TrafficSpec.matrix", "span"),
    ("traffic.trace", "repro.experiments.spec:TrafficSpec.trace", "trace"),
    ("simulation.batch", "repro.simulation.batch:BatchSimulator.run_batch", "engine"),
    ("simulation.interp", "repro.simulation.simulator:Simulator.run", "engine"),
    ("experiments.expand", "repro.experiments.registry:scenario_family", "span"),
    ("experiments.run", "repro.experiments.runner:Runner.run", "span"),
    ("experiments.run", "repro.experiments.runner:Runner.run_iter", "gen"),
    ("experiments.run", "repro.experiments.runner:evaluate_scenario", "point"),
    ("experiments.cache_get", "repro.experiments.cache:EvaluationCache.get", "cache_get"),
    ("experiments.cache_put", "repro.experiments.cache:EvaluationCache.put", "leaf"),
    ("experiments.cache_flush", "repro.experiments.cache:EvaluationCache.flush", "span"),
    ("service.http", "repro.service.server:_Handler.handle", "http"),
    ("service.accept", "repro.service.server:ExperimentServer.process_request", "span"),
    (
        "service.conn",
        "repro.service.server:ExperimentServer.process_request_thread",
        "span",
    ),
    ("service.submit", "repro.service.scheduler:ExperimentScheduler.submit", "submit"),
    ("service.exec", "repro.service.scheduler:ExperimentScheduler._execute", "execute"),
    ("service.schema", "repro.service.schema:parse_request", "span"),
    ("service.jobstore", "repro.service.jobs:JobStore.save", "span"),
    ("service.jobstore", "repro.service.jobs:JobStore.create", "span"),
    ("service.release_put", "repro.service.results:ResultStore.put", "span"),
    ("obs.ledger_append", "repro.obs.ledger:RunLedger.append", "span"),
    ("obs.sampler_tick", "repro.obs.pipeline:MetricsSampler.tick", "span"),
)

_MAX_SPANS = 200_000
_JOB_PATH = re.compile(r"/jobs/([^/?]+)(/[^?]*)?")
MARK_PARAM = "perfbench_mark="


def _route(method: str, path: str) -> tuple[str, str | None]:
    """Low-cardinality route label and the job id in ``path`` (if any)."""
    m = _JOB_PATH.search(path)
    if m is None:
        return f"{method} {path.split('?')[0]}", None
    return f"{method} /jobs/<id>{m.group(2) or ''}", m.group(1)


class Tracer:
    """Frames, counters and span records of one traced process."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: list[tuple] = []
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []
        self.marks: list[dict[str, Any]] = []
        self.unmeasured: dict[str, str] = {}
        # Spans on threads that carry no operation of their own (the
        # service's sweep drive thread) inherit the job being executed.
        self.current_op: str | None = None
        self._submitted: dict[str, float] = {}

    # -- frames ----------------------------------------------------------

    def _state(self) -> tuple:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = (
                [],
                defaultdict(lambda: [0, 0.0, 0.0]),
                defaultdict(float),
                defaultdict(list),
            )
            self._tls.st = st
            with self._lock:
                self._states.append(st)
        return st

    def enter(self, name: str, op: str | None = None) -> list:
        stack = self._state()[0]
        parent = stack[-1] if stack else None
        if op is None:
            op = parent[5] if parent is not None else self.current_op
        # [id, name, wall start, cpu start, child cpu, op, parent id]
        frame = [
            next(self._ids),
            name,
            now(),
            cpu(),
            0.0,
            op,
            parent[0] if parent is not None else None,
        ]
        stack.append(frame)
        return frame

    def leave(self, frame: list, label: str | None = None) -> float:
        """Close ``frame``; returns its wall-clock duration."""
        end_cpu = cpu()
        end = now()
        stack, acc, _extra, _samples = self._state()
        if stack and stack[-1] is frame:
            stack.pop()
        elif frame in stack:
            stack.remove(frame)
        dur = end_cpu - frame[3]
        if stack:
            stack[-1][4] += dur
        entry = acc[frame[1]]
        entry[0] += 1
        entry[1] += dur - frame[4]
        entry[2] += dur
        if len(self.spans) < _MAX_SPANS:
            self.spans.append(
                (
                    frame[0],
                    label or frame[1],
                    round(frame[2], 6),
                    round(end, 6),
                    frame[6],
                    frame[5],
                    threading.get_ident(),
                )
            )
        return end - frame[2]

    def add(self, name: str, value: float) -> None:
        self._state()[2][name] += value

    def sample(self, name: str, value: float) -> None:
        self._state()[3][name].append(value)

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Cumulative counters of every thread, merged."""
        acc: dict[str, list] = {}
        extra: dict[str, float] = defaultdict(float)
        samples: dict[str, list] = defaultdict(list)
        with self._lock:
            states = list(self._states)
        for _stack, a, x, s in states:
            for name, (calls, self_s, incl_s) in list(a.items()):
                cur = acc.setdefault(name, [0, 0.0, 0.0])
                cur[0] += calls
                cur[1] += self_s
                cur[2] += incl_s
            for name, value in list(x.items()):
                extra[name] += value
            for name, values in list(s.items()):
                samples[name].extend(list(values))
        return {
            "t": now(),
            "cpu": time.process_time(),
            "acc": acc,
            "extra": dict(extra),
            "samples": dict(samples),
        }

    def mark(self, label: str) -> None:
        snap = self.snapshot()
        snap["label"] = label
        self.marks.append(snap)

    def dump(self, path: str) -> None:
        doc = {
            "marks": self.marks,
            "unmeasured": self.unmeasured,
            "spans": [
                {
                    "id": s[0],
                    "name": s[1],
                    "start": s[2],
                    "end": s[3],
                    "parent": s[4],
                    "op": s[5],
                    "thread": s[6],
                }
                for s in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

    # -- wrapping --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that resolves; note the ones that do not."""
        try:
            from repro.obs.profile import PhaseProfile
        except ImportError as exc:
            PhaseProfile = None
            self.unmeasured["simulation.phase"] = f"PhaseProfile: {exc}"
        for name, target, kind in TARGETS:
            try:
                owner, attr, orig = _resolve(target)
            except (ImportError, AttributeError) as exc:
                self.unmeasured.setdefault(name.split(".")[0], f"{target}: {exc!r}")
                continue
            wrapper = self._wrapper(name, kind, orig, PhaseProfile)
            functools.update_wrapper(wrapper, orig)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                _rebind(orig, wrapper)

    def _wrapper(self, name: str, kind: str, fn: Callable, phase_profile: Any) -> Callable:
        if kind == "leaf":
            return self._leaf(name, fn)
        if kind == "hot":
            return self._leaf(name, fn, clock=now)
        if kind == "cache_get":
            return self._leaf(name, fn, after=_cache_hit)
        if kind == "gen":
            return self._gen(name, fn)
        if kind == "engine":
            return self._engine(name, fn, phase_profile)
        if kind == "http":
            return self._http(name, fn)
        if kind == "submit":
            return self._submit(name, fn)
        if kind == "execute":
            return self._execute(name, fn)
        if kind == "point":
            return self._span(name, fn, op_of=lambda args: args[0].label)
        if kind == "trace":
            return self._span(name, fn, after=_count_packets)
        return self._span(name, fn)

    def _span(self, name, fn, after=None, op_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.enter(name, op_of(args) if op_of is not None else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def _leaf(self, name, fn, after=None, clock=cpu):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack, acc, _x, _s = tracer._state()
                if stack:
                    stack[-1][4] += dur
                entry = acc[name]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def _gen(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = tracer.enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.leave(frame)
                    if getattr(item, "cached", True) is False:
                        tracer.add("points_evaluated", 1)
                    yield item
            finally:
                inner.close()

        return wrapper

    def _engine(self, name, fn, phase_profile):
        """Engine entry: attach a ``PhaseProfile`` and count simulated work."""
        tracer = self
        batched = name == "simulation.batch"

        def wrapper(*args, **kwargs):
            prof = kwargs.get("profile")
            if prof is None and phase_profile is not None:
                prof = kwargs["profile"] = phase_profile()
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            stats = result if batched else [result]
            tracer.add(name + "_points", len(stats))
            for st in stats:
                tracer.add("sim_cycles", int(st.cycles))
                tracer.add("flit_hops", int(st.link_flit_counts.sum()))
            if prof is not None:
                for phase, ns in prof.phases.items():
                    tracer.add("phase." + phase, ns / 1e9)
                tracer.add(
                    "scalar_replay_cycles", prof.counts.get("scalar_replay_cycles", 0)
                )
            return result

        return wrapper

    def _http(self, name, fn):
        """One HTTP request, from reading it to writing the reply.

        The route and job id are known only once the request line has
        been parsed, so they are attached when the frame closes.
        """
        tracer = self

        def wrapper(handler, *args, **kwargs):
            frame = tracer.enter(name, "-")
            try:
                return fn(handler, *args, **kwargs)
            finally:
                path = getattr(handler, "path", "") or ""
                route, job = _route(
                    getattr(handler, "command", None) or "?",
                    path.replace("/api/v1", "", 1),
                )
                frame[5] = job or "-"
                tracer.sample("http:" + route, tracer.leave(frame, label=route))
                if MARK_PARAM in path:
                    tracer.mark(path.split(MARK_PARAM, 1)[1].split("&")[0])

        return wrapper

    def _submit(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                record = fn(*args, **kwargs)
            except BaseException:
                tracer.leave(frame)
                raise
            job = getattr(record, "job_id", None)
            if job is not None:
                # Stamped before the frame closes: the dispatcher, woken
                # inside submit(), may otherwise start the job first.
                tracer._submitted[job] = now()
                frame[5] = job
            tracer.leave(frame)
            return record

        return wrapper

    def _execute(self, name, fn):
        tracer = self

        def wrapper(sched, job_id, *args, **kwargs):
            submitted = tracer._submitted.pop(job_id, None)
            frame = tracer.enter(name, job_id)
            if submitted is not None:
                tracer.sample("queue_wait", frame[2] - submitted)
            tracer.current_op = job_id
            try:
                return fn(sched, job_id, *args, **kwargs)
            finally:
                tracer.current_op = None
                tracer.sample("exec", tracer.leave(frame))

        return wrapper


def _cache_hit(tracer: Tracer, result: Any) -> None:
    if result is not None:
        tracer.add("cache_hits", 1)


def _count_packets(tracer: Tracer, trace: Any) -> None:
    tracer.add("packets", int(trace.n_packets))


def _resolve(target: str) -> tuple[Any, str, Callable]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    fn = getattr(owner, attr)
    if not callable(fn):
        raise AttributeError(f"{target} is not a function")
    return owner, attr, fn


def _rebind(orig: Callable, wrapper: Callable) -> None:
    """Point every loaded ``repro`` module's reference to ``orig`` at ``wrapper``.

    ``from x import f`` copies the reference into the importing module, so
    replacing ``x.f`` alone would miss those callers.
    """
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, wrapper)


# -- per-layer metrics -------------------------------------------------------


def per_layer(
    start: dict[str, Any],
    end: dict[str, Any],
    unmeasured: dict[str, str],
    *,
    ratio_start: dict[str, Any] | None = None,
) -> dict[str, float]:
    """Per-layer metrics of the window between two snapshots.

    Timings named ``*_s`` are self times summed over the window;
    ``service.*_ms`` are medians of per-request or per-job durations.
    ``experiments.cache_hit_ratio`` is taken from ``ratio_start`` to
    ``end`` when given (the service's resubmit pass).
    """

    def acc(name: str, i: int, a: dict[str, Any] = start) -> float:
        return end["acc"].get(name, [0, 0.0, 0.0])[i] - a["acc"].get(name, [0, 0.0, 0.0])[i]

    def extra(name: str, a: dict[str, Any] = start) -> float:
        return end["extra"].get(name, 0.0) - a["extra"].get(name, 0.0)

    def samples(name: str) -> list[float]:
        return end["samples"].get(name, [])[len(start["samples"].get(name, [])):]

    def median_ms(name: str) -> float:
        values = samples(name)
        return statistics.median(values) * 1e3 if values else 0.0

    cpu_s = end["cpu"] - start["cpu"]
    trace_s = acc("traffic.trace", 1)
    engine_s = acc("simulation.batch", 1) + acc("simulation.interp", 1)
    packets = extra("packets")
    flit_hops = extra("flit_hops")
    ratio_from = ratio_start if ratio_start is not None else start
    gets = acc("experiments.cache_get", 0, ratio_from)
    hits = extra("cache_hits", ratio_from)
    http_requests = sum(
        len(samples(k)) for k in end["samples"] if k.startswith("http:")
    )
    covered = sum(acc(name, 1) for name in end["acc"])
    out = {
        "topology.build_s": acc("topology.build", 1),
        "topology.routing_init_s": acc("topology.routing_init", 1),
        "topology.path_calls": acc("topology.path", 0),
        "topology.path_s": acc("topology.path", 1),
        "analysis.evaluate_s": acc("analysis.evaluate", 1),
        "analysis.latency_s": acc("analysis.latency", 1),
        "analysis.flows_s": acc("analysis.flows", 1),
        "analysis.power_s": acc("analysis.power", 1),
        "dsent.eval_s": acc("dsent.eval", 1),
        "traffic.matrix_s": acc("traffic.matrix", 1),
        "traffic.trace_s": trace_s,
        "traffic.trace_calls": acc("traffic.trace", 0),
        "traffic.packets": packets,
        "traffic.ns_per_packet": trace_s * 1e9 / packets if packets else 0.0,
        "simulation.batch_s": acc("simulation.batch", 1),
        "simulation.batch_calls": acc("simulation.batch", 0),
        "simulation.batch_points": extra("simulation.batch_points"),
        "simulation.cycles": extra("sim_cycles"),
        "simulation.flit_hops": flit_hops,
        "simulation.ns_per_flit_hop": engine_s * 1e9 / flit_hops if flit_hops else 0.0,
        "simulation.scalar_replay_cycles": extra("scalar_replay_cycles"),
        "simulation.interp_s": acc("simulation.interp", 1),
        "simulation.interp_calls": acc("simulation.interp", 0),
    }
    for phase in PHASES:
        out[f"simulation.phase.{phase}_s"] = extra("phase." + phase)
    out.update(
        {
            "experiments.expand_s": acc("experiments.expand", 1),
            "experiments.run_self_s": acc("experiments.run", 1),
            "experiments.points_evaluated": extra("points_evaluated"),
            "experiments.cache_gets": acc("experiments.cache_get", 0),
            "experiments.cache_hit_ratio": hits / gets if gets else 0.0,
            "experiments.cache_puts": acc("experiments.cache_put", 0),
            "experiments.cache_flushes": acc("experiments.cache_flush", 0),
            "experiments.cache_flush_s": acc("experiments.cache_flush", 1),
            "service.submit_ms": median_ms("http:POST /jobs"),
            "service.result_ms": median_ms("http:GET /jobs/<id>/result"),
            "service.queue_wait_ms": median_ms("queue_wait"),
            "service.exec_ms": median_ms("exec"),
            "service.schema_s": acc("service.schema", 1),
            "service.jobstore_saves": acc("service.jobstore", 0),
            "service.jobstore_save_s": acc("service.jobstore", 1),
            "service.release_put_s": acc("service.release_put", 1),
            "service.http_requests": http_requests,
            "obs.ledger_appends": acc("obs.ledger_append", 0),
            "obs.ledger_append_s": acc("obs.ledger_append", 1),
            "obs.sampler_ticks": acc("obs.sampler_tick", 0),
            "trace.coverage_pct": 100.0 * covered / cpu_s if cpu_s > 0 else 0.0,
            "trace.unmeasured_layers": float(len(unmeasured)),
        }
    )
    for layer in unmeasured:
        for key in out:
            if key.startswith(layer + "."):
                out[key] = 0.0
    return {k: float(v) for k, v in out.items()}


def layer_self_times(start: dict[str, Any], end: dict[str, Any]) -> dict[str, float]:
    """Self time of each layer over the window (for the human summary)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, (_calls, self_s, _incl) in end["acc"].items():
        layer = name.split(".")[0]
        if layer in totals:
            totals[layer] += self_s - start["acc"].get(name, [0, 0.0, 0.0])[1]
    return totals

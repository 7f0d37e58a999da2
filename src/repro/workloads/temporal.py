"""Temporal injection models beyond the Bernoulli open loop.

The paper's evaluations drive networks with two temporal shapes only: the
memoryless Bernoulli process (`repro.simulation.workload.synthetic_trace`)
and phase-structured NPB traces. Real interconnect traffic is neither —
measured NoC/datacenter workloads burst on many timescales. This module
adds the standard temporal models of the traffic literature, all emitting
the same :class:`~repro.traffic.trace.Trace` columns the simulator already
consumes:

* :func:`onoff_trace` — two-state ON/OFF (MMPP-style) bursty injection
  with geometric sojourn times; the classic Markov-modulated burst model.
* :func:`pareto_onoff_trace` — superposed ON/OFF sources with
  Pareto-distributed periods; heavy-tailed sojourns make the aggregate
  self-similar (Willinger et al., the canonical LRD traffic construction).
* :func:`modulated_trace` — a Bernoulli process under a deterministic
  time-varying rate envelope (sine / square / ramp), for diurnal-style
  load swings and rate steps.
* :func:`hotspot_overlay` — a *spatial* overlay usable with any temporal
  model: redirects a fraction of every source's traffic onto hotspot
  destinations while preserving per-source injection rates.

Every model draws per-source streams from :func:`repro.util.rng.derive_seed`,
so a trace is a pure function of ``(matrix, params, seed)`` — independent
of source iteration order and safe to regenerate in worker processes.
All models hit the requested *mean* rate; they differ in how the same
flit budget clumps in time, which is exactly the axis the Bernoulli
model cannot express.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.traffic.matrix import TrafficMatrix
from repro.traffic.trace import MAX_PACKET_FLITS, Trace
from repro.util.rng import derive_seed

__all__ = [
    "ENVELOPES",
    "hotspot_overlay",
    "mix_trace",
    "modulated_trace",
    "onoff_trace",
    "pareto_onoff_trace",
]

#: Supported rate-envelope shapes for :func:`modulated_trace`.
ENVELOPES = ("sine", "square", "ramp")


def _validate_common(injection_rate: float, cycles: int, packet_flits: int) -> None:
    if not 0 < injection_rate <= 1:
        raise ValueError(f"injection rate must be in (0, 1], got {injection_rate}")
    if cycles < 1:
        raise ValueError(f"need >= 1 cycle, got {cycles}")
    if not 1 <= packet_flits <= MAX_PACKET_FLITS:
        raise ValueError(
            f"packet size must be 1..{MAX_PACKET_FLITS}, got {packet_flits}"
        )


def _per_source_rates(
    traffic: TrafficMatrix, injection_rate: float, packet_flits: int
) -> tuple[np.ndarray, np.ndarray]:
    """(packet rates, destination probabilities) per source node."""
    tm = traffic.scaled_to_injection_rate(injection_rate)
    rates = tm.injection_rates() / packet_flits  # packets/node/cycle
    row_sums = tm.matrix.sum(axis=1, keepdims=True)
    dest_probs = np.divide(
        tm.matrix, row_sums, out=np.zeros_like(tm.matrix), where=row_sums > 0
    )
    return rates, dest_probs


def _source_rng(seed: int, source: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(int(seed), source))


class _Columns:
    """Per-source packet columns, gathered into one :class:`Trace`."""

    def __init__(self, n_nodes: int, packet_flits: int) -> None:
        self.n_nodes = n_nodes
        self.packet_flits = packet_flits
        self.times: list[np.ndarray] = []
        self.dsts: list[np.ndarray] = []
        self.counts = np.zeros(n_nodes, dtype=np.int64)

    def add(
        self,
        rng: np.random.Generator,
        times: np.ndarray,
        source: int,
        dest_probs: np.ndarray,
    ) -> None:
        """Draw ``source``'s destinations in one vectorized call."""
        if times.size == 0:
            return
        self.times.append(times)
        self.dsts.append(rng.choice(dest_probs.size, size=times.size, p=dest_probs))
        self.counts[source] = times.size

    def trace(self, name: str) -> Trace:
        n = int(self.counts.sum())
        return Trace.from_columns(
            self.n_nodes,
            np.concatenate(self.times) if self.times else [],
            np.repeat(np.arange(self.n_nodes), self.counts),
            np.concatenate(self.dsts) if self.dsts else [],
            np.full(n, self.packet_flits),
            name=name,
        )


def _bernoulli_times(
    rng: np.random.Generator, start: int, stop: int, prob: float
) -> list[int]:
    """Arrival cycles of a Bernoulli(prob) process on [start, stop)."""
    if prob <= 0 or start >= stop:
        return []
    times: list[int] = []
    t = start + int(rng.geometric(min(1.0, prob))) - 1
    while t < stop:
        times.append(t)
        t += int(rng.geometric(min(1.0, prob)))
    return times


def onoff_trace(
    traffic: TrafficMatrix,
    *,
    injection_rate: float,
    cycles: int,
    burst_len: float = 32.0,
    duty: float = 0.25,
    packet_flits: int = 1,
    seed: int = 0,
    name: str | None = None,
) -> Trace:
    """Two-state ON/OFF (MMPP-style) bursty injection trace.

    Each source alternates geometric ON periods of mean ``burst_len``
    cycles with geometric OFF periods sized so the long-run ON fraction is
    ``duty``. While ON it injects Bernoulli packets at ``rate / duty``, so
    the *mean* flit rate matches ``injection_rate`` but the offered load
    arrives in bursts ``1 / duty`` times the mean — at equal mean rate an
    ON/OFF workload therefore saturates a network no later than Bernoulli.

    Args:
        traffic: destination weights (rows; zero diagonal enforced by
            :class:`TrafficMatrix`).
        injection_rate: mean flits/node/cycle.
        cycles: injection window length.
        burst_len: mean ON-period length in cycles.
        duty: long-run fraction of time spent ON, in (0, 1]. The peak
            per-node packet rate ``rate / (duty * packet_flits)`` must not
            exceed one packet per cycle.
        packet_flits: packet size in flits.
        seed: integer base seed (per-source streams are derived from it).
        name: optional trace name.
    """
    _validate_common(injection_rate, cycles, packet_flits)
    if not 0 < duty <= 1:
        raise ValueError(f"duty must be in (0, 1], got {duty}")
    if burst_len < 1:
        raise ValueError(f"burst length must be >= 1 cycle, got {burst_len}")
    rates, dest_probs = _per_source_rates(traffic, injection_rate, packet_flits)
    peak = rates / duty
    if np.any(peak > 1.0):
        raise ValueError(
            "peak per-node packet rate exceeds 1/cycle; lower the injection "
            "rate, raise the duty cycle, or use larger packets"
        )
    p_on_end = 1.0 / burst_len
    mean_off = burst_len * (1.0 - duty) / duty
    if 0.0 < mean_off < 1.0:
        # A sub-cycle mean OFF period cannot be realized (OFF draws floor
        # at one cycle), which would silently undershoot the mean rate.
        raise ValueError(
            f"mean OFF period {mean_off:.3g} cycles is < 1 "
            f"(burst_len {burst_len:g}, duty {duty:g}); raise burst_len, "
            "lower the duty, or use duty=1 for no OFF periods"
        )
    cols = _Columns(traffic.n_nodes, packet_flits)
    for s in range(traffic.n_nodes):
        if rates[s] <= 0:
            continue
        rng = _source_rng(seed, s)
        times: list[int] = []
        t = 0
        # Stationary start: begin OFF with probability (1 - duty).
        if duty < 1.0 and rng.random() >= duty:
            t += int(rng.geometric(1.0 / mean_off))
        while t < cycles:
            on_len = int(rng.geometric(p_on_end))
            times.extend(_bernoulli_times(rng, t, min(t + on_len, cycles), peak[s]))
            t += on_len
            if duty < 1.0:
                t += int(rng.geometric(1.0 / mean_off))
        cols.add(rng, np.asarray(times, dtype=np.int64), s, dest_probs[s])
    return cols.trace(name or f"onoff-r{injection_rate:g}-d{duty:g}")


def pareto_onoff_trace(
    traffic: TrafficMatrix,
    *,
    injection_rate: float,
    cycles: int,
    alpha: float = 1.5,
    min_on: float = 8.0,
    duty: float = 0.25,
    packet_flits: int = 1,
    seed: int = 0,
    name: str | None = None,
) -> Trace:
    """Pareto-period ON/OFF sources (self-similar aggregate traffic).

    Like :func:`onoff_trace` but ON and OFF sojourns are Pareto distributed
    with tail index ``alpha``; for ``1 < alpha < 2`` the superposition of
    many such sources exhibits long-range dependence (burstiness that does
    not smooth out under aggregation), the classic heavy-tail construction
    of self-similar network traffic.

    Args:
        alpha: Pareto tail index; must exceed 1 so periods have a finite
            mean (values below 2 give the self-similar regime).
        min_on: minimum ON-period length in cycles (the Pareto scale).
        duty: long-run ON fraction in (0, 1]; the OFF scale is derived so
            the mean rate matches ``injection_rate``.
    """
    _validate_common(injection_rate, cycles, packet_flits)
    if alpha <= 1:
        raise ValueError(f"alpha must be > 1 for a finite mean period, got {alpha}")
    if min_on < 1:
        raise ValueError(f"min ON period must be >= 1 cycle, got {min_on}")
    if not 0 < duty <= 1:
        raise ValueError(f"duty must be in (0, 1], got {duty}")
    rates, dest_probs = _per_source_rates(traffic, injection_rate, packet_flits)
    peak = rates / duty
    if np.any(peak > 1.0):
        raise ValueError(
            "peak per-node packet rate exceeds 1/cycle; lower the injection "
            "rate, raise the duty cycle, or use larger packets"
        )
    min_off = min_on * (1.0 - duty) / duty
    if 0.0 < min_off < 1.0:
        # OFF periods floor at one cycle; a sub-cycle scale would inflate
        # them and silently undershoot the mean rate.
        raise ValueError(
            f"minimum OFF period {min_off:.3g} cycles is < 1 "
            f"(min_on {min_on:g}, duty {duty:g}); raise min_on, lower the "
            "duty, or use duty=1 for no OFF periods"
        )
    cols = _Columns(traffic.n_nodes, packet_flits)
    for s in range(traffic.n_nodes):
        if rates[s] <= 0:
            continue
        rng = _source_rng(seed, s)
        times: list[int] = []
        t = 0
        if duty < 1.0 and rng.random() >= duty:
            t += max(1, round(min_off * (1.0 + rng.pareto(alpha))))
        while t < cycles:
            on_len = max(1, round(min_on * (1.0 + rng.pareto(alpha))))
            times.extend(_bernoulli_times(rng, t, min(t + on_len, cycles), peak[s]))
            t += on_len
            if duty < 1.0:
                t += max(1, round(min_off * (1.0 + rng.pareto(alpha))))
        cols.add(rng, np.asarray(times, dtype=np.int64), s, dest_probs[s])
    return cols.trace(name or f"pareto-r{injection_rate:g}-a{alpha:g}")


def modulated_trace(
    traffic: TrafficMatrix,
    *,
    injection_rate: float,
    cycles: int,
    period: float = 256.0,
    depth: float = 0.5,
    envelope: str = "sine",
    packet_flits: int = 1,
    seed: int = 0,
    name: str | None = None,
) -> Trace:
    """Bernoulli injection under a deterministic time-varying rate envelope.

    The instantaneous rate is ``injection_rate * f(t)`` where ``f`` swings
    between ``1 - depth`` and ``1 + depth`` with period ``period`` cycles
    and unit mean, so the long-run rate still matches ``injection_rate``:

    * ``"sine"`` — smooth diurnal-style swing;
    * ``"square"`` — alternating high/low half-periods (rate steps);
    * ``"ramp"`` — sawtooth climb from low to high, then reset.

    Implemented by thinning a peak-rate Bernoulli process, which keeps the
    per-source work O(packets) instead of O(cycles).
    """
    _validate_common(injection_rate, cycles, packet_flits)
    if envelope not in ENVELOPES:
        raise ValueError(f"unknown envelope {envelope!r}; one of {ENVELOPES}")
    if not 0 <= depth < 1:
        raise ValueError(f"depth must be in [0, 1), got {depth}")
    if period < 2:
        raise ValueError(f"period must be >= 2 cycles, got {period}")
    rates, dest_probs = _per_source_rates(traffic, injection_rate, packet_flits)
    peak = rates * (1.0 + depth)
    if np.any(peak > 1.0):
        raise ValueError(
            "peak per-node packet rate exceeds 1/cycle; lower the injection "
            "rate or the modulation depth"
        )

    def factor(t: np.ndarray) -> np.ndarray:
        phase = (t % period) / period
        if envelope == "sine":
            return 1.0 + depth * np.sin(2.0 * np.pi * phase)
        if envelope == "square":
            return np.where(phase < 0.5, 1.0 + depth, 1.0 - depth)
        return 1.0 - depth + 2.0 * depth * phase  # ramp

    cols = _Columns(traffic.n_nodes, packet_flits)
    for s in range(traffic.n_nodes):
        if rates[s] <= 0:
            continue
        rng = _source_rng(seed, s)
        candidates = np.asarray(
            _bernoulli_times(rng, 0, cycles, peak[s]), dtype=np.int64
        )
        if candidates.size:
            accept = rng.random(candidates.size) < (
                factor(candidates) / (1.0 + depth)
            )
            candidates = candidates[accept]
        cols.add(rng, candidates, s, dest_probs[s])
    return cols.trace(name or f"{envelope}-r{injection_rate:g}-d{depth:g}")


def mix_trace(
    traffic: TrafficMatrix,
    *,
    injection_rate: float,
    cycles: int,
    components: Sequence[Sequence],
    packet_flits: int = 1,
    seed: int = 0,
    name: str | None = None,
) -> Trace:
    """Superpose several registered temporal models on one network.

    Real machines never run a single traffic class: a latency-sensitive
    request stream shares the fabric with bursty bulk transfers. Each
    ``components`` entry is ``(model, share)`` or ``(model, share,
    params)`` — ``model`` names a registered temporal model (not a
    skeleton, not ``"mix"`` itself), ``share`` is its positive weight of
    the total ``injection_rate`` (shares are normalized, so they need
    not sum to 1), and ``params`` is an optional mapping / ``(key,
    value)`` pair sequence of model keywords. All components draw
    destinations from the same ``traffic`` matrix and span the same
    ``cycles``.

    Component ``i`` seeds its own stream via ``derive_seed(seed, i)``,
    so the mix is a pure function of ``(matrix, components, seed)`` —
    adding a third component does not perturb the draws of the first
    two, and every component hits its exact mean-rate share (the
    superposition therefore hits ``injection_rate`` exactly in the
    mean, like every other model here).
    """
    # Lazy: the registry lives in workloads.spec, which imports this
    # module at load time.
    from repro.workloads.spec import TEMPORAL_MODELS

    _validate_common(injection_rate, cycles, packet_flits)
    if len(components) < 2:
        raise ValueError(
            f"a mix needs >= 2 components, got {len(components)}"
        )
    parsed: list[tuple[str, float, dict]] = []
    for entry in components:
        if not 2 <= len(entry) <= 3:
            raise ValueError(
                f"mix component must be (model, share[, params]), got {entry!r}"
            )
        model, share = str(entry[0]), float(entry[1])
        params = dict(entry[2]) if len(entry) == 3 else {}
        if model == "mix" or model not in TEMPORAL_MODELS:
            eligible = sorted(m for m in TEMPORAL_MODELS if m != "mix")
            raise ValueError(
                f"mix component model {model!r} must be one of {eligible}"
            )
        if share <= 0:
            raise ValueError(f"component share must be > 0, got {share}")
        parsed.append((model, share, params))
    total_share = sum(share for _, share, _ in parsed)
    parts: list[Trace] = []
    for i, (model, share, params) in enumerate(parsed):
        component = TEMPORAL_MODELS[model](
            traffic,
            injection_rate=injection_rate * share / total_share,
            cycles=cycles,
            packet_flits=packet_flits,
            seed=derive_seed(seed, i),
            **params,
        )
        parts.append(component)
    return Trace.from_columns(
        traffic.n_nodes,
        *(
            np.concatenate([getattr(part, key) for part in parts])
            for key in ("time", "src", "dst", "size_flits")
        ),
        name=name
        or "mix-" + "+".join(m for m, _, _ in parsed) + f"-r{injection_rate:g}",
    )


def hotspot_overlay(
    traffic: TrafficMatrix,
    *,
    hotspots: Sequence[int],
    fraction: float,
    name: str | None = None,
) -> TrafficMatrix:
    """Redirect a fraction of every source's traffic onto hotspot nodes.

    Returns a new matrix where each source keeps ``1 - fraction`` of its
    row shape and sends the remaining ``fraction`` uniformly to the
    ``hotspots`` (excluding itself). Row sums — per-source injection rates
    — are preserved exactly, so the overlay composes with any temporal
    model without shifting the operating point. A hotspot source with no
    other hotspot to target keeps its base row untouched.
    """
    if not 0 <= fraction <= 1:
        raise ValueError(f"hotspot fraction must be in [0, 1], got {fraction}")
    nodes = sorted(set(int(h) for h in hotspots))
    n = traffic.n_nodes
    if not nodes:
        raise ValueError("need at least one hotspot node")
    if nodes[0] < 0 or nodes[-1] >= n:
        raise ValueError(f"hotspot nodes must be in 0..{n - 1}, got {nodes}")
    out = traffic.matrix.copy()
    for s in range(n):
        row_sum = out[s].sum()
        if row_sum == 0:
            continue
        targets = [h for h in nodes if h != s]
        if not targets:
            continue
        out[s] *= 1.0 - fraction
        out[s, targets] += fraction * row_sum / len(targets)
    return TrafficMatrix(out, name=name or f"{traffic.name}+hotspot{len(nodes)}")

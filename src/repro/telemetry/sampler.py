"""Low-overhead windowed activity sampling for the cycle simulator.

The simulator already keeps cumulative per-router and per-link flit
counters for whole-run energy accounting. The sampler turns those into a
*time-resolved* view without touching the per-event hot path: every ``W``
cycles it snapshots the cumulative counters and stores the **difference**
against the previous snapshot as one window row. Window counts therefore
telescope — their sum is *exactly* the whole-run total, which is the
conservation invariant the telemetry power traces build on
(:mod:`repro.telemetry.power_trace`).

Cost model:

* **disabled** (``telemetry=None``, the default) — the run loop performs
  one integer comparison per cycle against a sentinel; no allocation, no
  attribute access, no behavioural change. Golden simulator outputs stay
  bit-identical (``tests/unit/test_simulator_golden.py``).
* **enabled** — O(n_routers + n_links) work per *window* (snapshot diff
  plus an occupancy point sample), amortized to nothing per cycle for
  realistic windows; the per-event hot path is untouched either way.

Window rows live in a ring buffer (:class:`TelemetryConfig.max_windows`);
evicted rows fold their totals into carry aggregates so conservation
holds even when only the most recent windows are retained.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

__all__ = ["TelemetryConfig", "TelemetryTrace", "WindowRow", "WindowObserver"]

#: One emitted window, as handed to a session observer: ``(start, end,
#: router_flit_deltas, link_flit_deltas, occupied_vcs, n_in_flight,
#: delivered, latency_sum)``.
WindowRow = tuple[int, int, "np.ndarray", "np.ndarray", "np.ndarray", int, int, int]

#: Callback receiving ``(global_window_index, row)`` as each window closes.
WindowObserver = Callable[[int, WindowRow], None]


@dataclass(frozen=True)
class TelemetryConfig:
    """How to sample a simulation run.

    ``window`` is the sampling period in cycles; ``max_windows`` bounds
    the ring buffer (None keeps every window — the default, so the
    conservation invariant is checkable against the full series).
    """

    window: int = 256
    max_windows: int | None = None

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"telemetry window must be >= 1 cycle, got {self.window}")
        if self.max_windows is not None and self.max_windows < 1:
            raise ValueError(
                f"max_windows must be >= 1 (or None), got {self.max_windows}"
            )

    def to_json(self) -> dict[str, object]:
        return {"window": self.window, "max_windows": self.max_windows}

    @classmethod
    def from_json(cls, data: dict[str, object]) -> "TelemetryConfig":
        return cls(**data)


@dataclass
class TelemetryTrace:
    """Time-resolved activity of one simulation run.

    All per-window arrays share the same first axis (window index, oldest
    retained window first). ``link_flits`` / ``router_flits`` count flit
    traversals *attributed to the cycle the flit left the component's
    upstream switch*; ``occupied_vcs`` and ``in_flight`` are point samples
    taken at each window's closing edge. ``delivered`` / ``latency_sum``
    bin packets by ejection cycle.

    Windows evicted from the ring buffer are folded into the ``carry_*``
    aggregates, so ``carry + retained windows == whole run`` always holds
    (:meth:`total_router_flits`, :meth:`total_link_flits`, ...).
    """

    window: int
    n_nodes: int
    n_links: int
    cycles: int
    """Total simulated cycles covered (== SimStats.cycles)."""
    starts: np.ndarray
    """Window start cycle (inclusive), int64 (n_windows,)."""
    ends: np.ndarray
    """Window end cycle (exclusive); the last window may be partial."""
    link_flits: np.ndarray
    """Flit traversals per link per window, int64 (n_windows, n_links)."""
    router_flits: np.ndarray
    """Flit traversals per router per window, int64 (n_windows, n_nodes)."""
    occupied_vcs: np.ndarray
    """Occupied input VCs per router, sampled at window close (n_windows, n_nodes)."""
    in_flight: np.ndarray
    """Flits in link pipelines at window close, int64 (n_windows,)."""
    delivered: np.ndarray
    """Packets ejected within each window, int64 (n_windows,)."""
    latency_sum: np.ndarray
    """Sum of packet latencies ejected within each window, int64."""
    dropped_windows: int = 0
    """Windows evicted from the ring buffer (oldest first)."""
    carry_router_flits: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    carry_link_flits: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    carry_delivered: int = 0
    carry_latency_sum: int = 0

    @property
    def n_windows(self) -> int:
        """Retained window count."""
        return int(self.starts.shape[0])

    def total_router_flits(self) -> np.ndarray:
        """Carry + window sums per router — equals SimStats.router_flit_counts."""
        return self.carry_router_flits + self.router_flits.sum(axis=0)

    def total_link_flits(self) -> np.ndarray:
        """Carry + window sums per link — equals SimStats.link_flit_counts."""
        return self.carry_link_flits + self.link_flits.sum(axis=0)

    def total_delivered(self) -> int:
        """Carry + window sums of ejected packets."""
        return self.carry_delivered + int(self.delivered.sum())

    def total_latency_sum(self) -> int:
        """Carry + window sums of ejected-packet latencies."""
        return self.carry_latency_sum + int(self.latency_sum.sum())

    def window_lengths(self) -> np.ndarray:
        """Cycles per retained window (the tail window may be shorter)."""
        return self.ends - self.starts

    def router_rates(self) -> np.ndarray:
        """Per-window router traversal rate, flits/router/cycle."""
        lengths = np.maximum(self.window_lengths(), 1)
        return self.router_flits.sum(axis=1) / (lengths * self.n_nodes)

    def link_rates(self) -> np.ndarray:
        """Per-window mean link utilization, flit traversals/link/cycle."""
        lengths = np.maximum(self.window_lengths(), 1)
        return self.link_flits.sum(axis=1) / (lengths * max(self.n_links, 1))

    def window_latencies(self) -> np.ndarray:
        """Per-window mean ejection latency (nan for windows with none)."""
        out = np.full(self.n_windows, math.nan)
        mask = self.delivered > 0
        out[mask] = self.latency_sum[mask] / self.delivered[mask]
        return out

    def occupancy_totals(self) -> np.ndarray:
        """Network-wide occupied VCs at each window close."""
        return self.occupied_vcs.sum(axis=1)


class TelemetrySession:
    """Internal flush machinery the simulator drives (one per run).

    The simulator calls :meth:`flush_to` whenever the clock crosses the
    next window boundary (including multi-window jumps from the idle
    fast-forward — intermediate windows are genuinely empty and record
    zero deltas) and :meth:`finalize` once after the run loop.

    Deliveries and latency sums are windowed the same way as the flit
    counters: the simulator maintains *running* totals (a packet ejected
    during cycle ``c`` is counted before the boundary flush at ``c + 1``)
    and each window stores the difference against the previous snapshot.
    That makes the per-window series available **online** — the optional
    ``observer`` callback receives every emitted window as it closes,
    which is how :class:`repro.control.ControlSession` drives adaptive
    controllers against a live run.
    """

    def __init__(
        self,
        config: TelemetryConfig,
        n_nodes: int,
        n_links: int,
        observer: "WindowObserver | None" = None,
    ) -> None:
        self.config = config
        self.n_nodes = n_nodes
        self.n_links = n_links
        self.window = config.window
        self.next_boundary = config.window
        self.observer = observer
        self._prev_router = np.zeros(n_nodes, dtype=np.int64)
        self._prev_link = np.zeros(n_links, dtype=np.int64)
        self._prev_delivered = 0
        self._prev_latency = 0
        self._rows: deque[
            tuple[int, int, np.ndarray, np.ndarray, np.ndarray, int, int, int]
        ]
        self._rows = deque()
        self._window_start = 0
        self._emitted = 0
        self.dropped_windows = 0
        self._carry_router = np.zeros(n_nodes, dtype=np.int64)
        self._carry_link = np.zeros(n_links, dtype=np.int64)
        self._carry_delivered = 0
        self._carry_latency = 0

    def _emit(
        self,
        end: int,
        router_counts: list[int],
        link_counts: list[int],
        occupied: list[int],
        n_in_flight: int,
        delivered: int,
        latency_sum: int,
    ) -> None:
        cur_router = np.asarray(router_counts, dtype=np.int64)
        cur_link = np.asarray(link_counts, dtype=np.int64)
        row = (
            self._window_start,
            end,
            cur_router - self._prev_router,
            cur_link - self._prev_link,
            np.asarray(occupied, dtype=np.int64),
            n_in_flight,
            delivered - self._prev_delivered,
            latency_sum - self._prev_latency,
        )
        self._prev_router = cur_router
        self._prev_link = cur_link
        self._prev_delivered = delivered
        self._prev_latency = latency_sum
        self._window_start = end
        cap = self.config.max_windows
        if cap is not None and len(self._rows) == cap:
            old = self._rows.popleft()
            self._carry_router += old[2]
            self._carry_link += old[3]
            self._carry_delivered += old[6]
            self._carry_latency += old[7]
            self.dropped_windows += 1
        self._rows.append(row)
        index = self._emitted
        self._emitted += 1
        if self.observer is not None:
            self.observer(index, row)

    def flush_to(
        self,
        t: int,
        router_counts: list[int],
        link_counts: list[int],
        occupied: list[int],
        n_in_flight: int,
        delivered: int,
        latency_sum: int,
    ) -> int:
        """Emit every full window up to cycle ``t``; returns the next boundary."""
        while self.next_boundary <= t:
            self._emit(
                self.next_boundary,
                router_counts,
                link_counts,
                occupied,
                n_in_flight,
                delivered,
                latency_sum,
            )
            self.next_boundary += self.window
        return self.next_boundary

    def finalize(
        self,
        t: int,
        router_counts: list[int],
        link_counts: list[int],
        occupied: list[int],
        n_in_flight: int,
        delivered_total: int,
        latency_sum_total: int,
    ) -> TelemetryTrace:
        """Flush the trailing (possibly partial) window and assemble the trace.

        ``delivered_total`` / ``latency_sum_total`` are the simulator's
        whole-run counters; a packet switched out of the network during
        cycle ``c`` was counted before the boundary flush at ``c + 1``,
        so window diffs attribute it to the window containing ``c``.
        """
        self.flush_to(
            t,
            router_counts,
            link_counts,
            occupied,
            n_in_flight,
            delivered_total,
            latency_sum_total,
        )
        if t > self._window_start:
            self._emit(
                t,
                router_counts,
                link_counts,
                occupied,
                n_in_flight,
                delivered_total,
                latency_sum_total,
            )

        n = len(self._rows)
        starts = np.fromiter((r[0] for r in self._rows), np.int64, n)
        ends = np.fromiter((r[1] for r in self._rows), np.int64, n)
        router_flits = (
            np.stack([r[2] for r in self._rows])
            if n
            else np.zeros((0, self.n_nodes), np.int64)
        )
        link_flits = (
            np.stack([r[3] for r in self._rows])
            if n
            else np.zeros((0, self.n_links), np.int64)
        )
        occupied = (
            np.stack([r[4] for r in self._rows])
            if n
            else np.zeros((0, self.n_nodes), np.int64)
        )
        in_flight = np.fromiter((r[5] for r in self._rows), np.int64, n)
        delivered = np.fromiter((r[6] for r in self._rows), np.int64, n)
        latency_sum = np.fromiter((r[7] for r in self._rows), np.int64, n)

        return TelemetryTrace(
            window=self.window,
            n_nodes=self.n_nodes,
            n_links=self.n_links,
            cycles=t,
            starts=starts,
            ends=ends,
            link_flits=link_flits,
            router_flits=router_flits,
            occupied_vcs=occupied,
            in_flight=in_flight,
            delivered=delivered,
            latency_sum=latency_sum,
            dropped_windows=self.dropped_windows,
            carry_router_flits=self._carry_router,
            carry_link_flits=self._carry_link,
            carry_delivered=self._carry_delivered,
            carry_latency_sum=self._carry_latency,
        )

"""Trace containers and packetization (BookSim-style trace mode).

The paper converts MPICL traces of the NAS Parallel Benchmarks into
BookSim-compatible traces, with two packet sizes: "1 flit per packet and 32
flits per packet. All large packets from the original network trace were
split up into smaller packets".

A :class:`Trace` is four int64 columns (injection cycle, source,
destination, size in flits), one entry per packet, in injection order.
Traces are built from *messages* (src, dst, bytes) grouped into *phases*
(e.g. one all-to-all exchange); the scheduler serializes each source's
packets at the injection bandwidth (1 flit/cycle) and separates phases by a
configurable compute gap, mimicking the bulk-synchronous structure of the
NPB kernels while keeping the paper's "temporal information is ignored"
simplification for energy accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from repro.traffic.matrix import TrafficMatrix

__all__ = [
    "FLIT_BYTES",
    "MAX_PACKET_FLITS",
    "PacketRecord",
    "Message",
    "Trace",
    "packetize_flits",
    "schedule_phases",
]

#: Flit payload: 64-bit flits (paper Table II).
FLIT_BYTES = 8

#: The larger of the paper's two packet sizes.
MAX_PACKET_FLITS = 32


@dataclass(frozen=True)
class PacketRecord:
    """One packet injection: time (cycle), source, destination, size."""

    time: int
    src: int
    dst: int
    size_flits: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"injection time must be >= 0, got {self.time}")
        if self.src == self.dst:
            raise ValueError(f"packet to self at node {self.src}")
        if not 1 <= self.size_flits <= MAX_PACKET_FLITS:
            raise ValueError(
                f"packet size must be 1..{MAX_PACKET_FLITS} flits, got {self.size_flits}"
            )


@dataclass(frozen=True)
class Message:
    """One application-level message before packetization."""

    src: int
    dst: int
    size_bytes: int

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"message to self at node {self.src}")
        if self.size_bytes < 1:
            raise ValueError(f"message must be >= 1 byte, got {self.size_bytes}")

    @property
    def size_flits(self) -> int:
        """Flits needed for the payload (64-bit flits)."""
        return -(-self.size_bytes // FLIT_BYTES)


def packetize_flits(n_flits: int) -> list[int]:
    """Split a flit count into the paper's two packet sizes.

    Full 32-flit packets first, remainder as 1-flit packets.

    >>> packetize_flits(70)
    [32, 32, 1, 1, 1, 1, 1, 1]
    """
    if n_flits < 1:
        raise ValueError(f"flit count must be >= 1, got {n_flits}")
    full, rest = divmod(n_flits, MAX_PACKET_FLITS)
    return [MAX_PACKET_FLITS] * full + [1] * rest


_COLUMNS = ("time", "src", "dst", "size_flits")


def _first(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


def _is_sorted(time: np.ndarray, src: np.ndarray, dst: np.ndarray) -> bool:
    """True if the rows are already in (time, src, dst) order."""
    dt, ds, dd = (c[1:] - c[:-1] for c in (time, src, dst))
    return not ((dt < 0) | ((dt == 0) & ((ds < 0) | ((ds == 0) & (dd < 0))))).any()


class Trace:
    """An injection-ordered packet trace for ``n_nodes`` endpoints.

    The trace is its four read-only int64 columns ``time``, ``src``,
    ``dst`` and ``size_flits`` (one entry per packet), checked and sorted
    by ``(time, src, dst)`` once, with array operations, when the trace is
    built. The sort is stable: packets with equal keys keep their input
    order. Generators build traces with :meth:`from_columns`;
    ``Trace(n_nodes, [PacketRecord, ...])`` and :attr:`packets` are the
    one-object-per-packet view for callers that want records.
    """

    def __init__(
        self,
        n_nodes: int,
        packets: Iterable[PacketRecord] = (),
        name: str = "trace",
    ) -> None:
        records = list(packets)
        self._set_columns(
            n_nodes, name, *([getattr(p, key) for p in records] for key in _COLUMNS)
        )

    @classmethod
    def from_columns(
        cls,
        n_nodes: int,
        time: np.ndarray | Sequence[int],
        src: np.ndarray | Sequence[int],
        dst: np.ndarray | Sequence[int],
        size_flits: np.ndarray | Sequence[int],
        *,
        name: str = "trace",
    ) -> "Trace":
        """Build a trace from per-packet columns in any order.

        The columns are copied; the same checks as for
        :class:`PacketRecord` input apply (endpoint range, self-loops,
        negative times, packet sizes).
        """
        trace = cls.__new__(cls)
        trace._set_columns(n_nodes, name, time, src, dst, size_flits)
        return trace

    def _set_columns(self, n_nodes, name, time, src, dst, size_flits) -> None:
        if n_nodes < 2:
            raise ValueError(f"trace needs >= 2 nodes, got {n_nodes}")
        given = (time, src, dst, size_flits)
        if len({len(c) for c in given}) != 1:
            raise ValueError(
                f"trace columns must have equal lengths, got {[len(c) for c in given]}"
            )
        rows = np.array(given, dtype=np.int64)
        if rows.ndim != 2:
            raise ValueError(f"trace columns must be 1-D, got shape {rows.shape}")
        if rows.shape[1]:
            self._check(n_nodes, *rows)
            if not _is_sorted(*rows[:3]):
                rows = rows[:, np.lexsort(rows[2::-1])]
        rows.flags.writeable = False
        self.n_nodes = n_nodes
        self.name = name
        self.time, self.src, self.dst, self.size_flits = rows
        self._records: tuple[PacketRecord, ...] | None = None

    @staticmethod
    def _check(n_nodes, time, src, dst, size) -> None:
        """Reject what :class:`PacketRecord` rejects, and foreign endpoints."""
        if time.min() < 0:
            raise ValueError(
                f"injection time must be >= 0, got {time[_first(time < 0)]}"
            )
        if (src == dst).any():
            raise ValueError(f"packet to self at node {src[_first(src == dst)]}")
        if size.min() < 1 or size.max() > MAX_PACKET_FLITS:
            bad = (size < 1) | (size > MAX_PACKET_FLITS)
            raise ValueError(
                f"packet size must be 1..{MAX_PACKET_FLITS} flits, "
                f"got {size[_first(bad)]}"
            )
        if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n_nodes:
            i = _first((src < 0) | (src >= n_nodes) | (dst < 0) | (dst >= n_nodes))
            pkt = PacketRecord(int(time[i]), int(src[i]), int(dst[i]), int(size[i]))
            raise ValueError(f"packet endpoints outside 0..{n_nodes - 1}: {pkt}")

    @property
    def packets(self) -> list[PacketRecord]:
        """One :class:`PacketRecord` per packet, in trace order (records
        are built on first use; each call returns a new list)."""
        if self._records is None:
            self._records = tuple(
                map(PacketRecord, *(getattr(self, key).tolist() for key in _COLUMNS))
            )
        return list(self._records)

    @property
    def n_packets(self) -> int:
        """Total packets in the trace."""
        return int(self.time.shape[0])

    @property
    def total_flits(self) -> int:
        """Total flits across all packets."""
        return int(self.size_flits.sum())

    @property
    def duration_cycles(self) -> int:
        """Last injection time + 1 (0 for an empty trace)."""
        if not self.n_packets:
            return 0
        return int(self.time[-1]) + 1

    def columns(self) -> dict[str, np.ndarray]:
        """The ``time``/``src``/``dst``/``size_flits`` columns by name
        (the read-only arrays themselves, not copies)."""
        return {key: getattr(self, key) for key in _COLUMNS}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.n_nodes == other.n_nodes
            and self.name == other.name
            and all(
                np.array_equal(getattr(self, key), getattr(other, key))
                for key in _COLUMNS
            )
        )

    def __repr__(self) -> str:
        return (
            f"Trace(n_nodes={self.n_nodes}, n_packets={self.n_packets}, "
            f"name={self.name!r})"
        )

    def flit_count_matrix(self) -> TrafficMatrix:
        """Per-pair flit counts (the paper's Table V input view)."""
        n = self.n_nodes
        m = np.bincount(
            self.src * n + self.dst, weights=self.size_flits, minlength=n * n
        )
        return TrafficMatrix(m.reshape(n, n), name=f"{self.name}-flits")

    def scaled(self, factor: float, *, name: str | None = None) -> "Trace":
        """Subsample packets to ~``factor`` of the trace, keeping order.

        Used to shrink full-fidelity traces to cycle-simulation size; the
        (src, dst) mix is preserved by deterministic stride sampling.
        """
        if not 0 < factor <= 1:
            raise ValueError(f"scale factor must be in (0, 1], got {factor}")
        if factor == 1.0:
            picked = slice(None)
            name = name or self.name
        else:
            # Packet int(i / factor) for i < int(n * factor).
            count = int(self.n_packets * factor)
            picked = (np.arange(count) * (1.0 / factor)).astype(np.int64)
            name = name or f"{self.name}-x{factor:g}"
        return Trace.from_columns(
            self.n_nodes, *(getattr(self, key)[picked] for key in _COLUMNS), name=name
        )


def schedule_phases(
    n_nodes: int,
    phases: Sequence[Iterable[Message]],
    *,
    inter_phase_gap: int = 64,
    flit_interval: int = 1,
    name: str = "trace",
) -> Trace:
    """Build a :class:`Trace` from per-phase message lists.

    Within a phase every source injects its packets serially; the next
    phase starts after every source has finished injecting plus
    ``inter_phase_gap`` compute cycles.

    ``flit_interval`` paces each source at one flit every ``flit_interval``
    cycles. The paper's MPICL traces came from a machine whose network
    interleaves computation with communication, and it notes the traces
    "will not saturate the NoC simulator"; pacing reproduces that operating
    point (a bulk-synchronous burst at full rate would drive an all-to-all
    far past saturation — see EXPERIMENTS.md).
    """
    if inter_phase_gap < 0:
        raise ValueError(f"inter-phase gap must be >= 0, got {inter_phase_gap}")
    if flit_interval < 1:
        raise ValueError(f"flit interval must be >= 1, got {flit_interval}")
    msg_src: list[int] = []
    msg_dst: list[int] = []
    msg_flits: list[int] = []
    phase_ends: list[int] = []
    for phase in phases:
        for msg in phase:
            msg_src.append(msg.src)
            msg_dst.append(msg.dst)
            msg_flits.append(msg.size_flits)
        phase_ends.append(len(msg_src))
    n_phases = len(phase_ends)
    msg_phase = np.repeat(
        np.arange(n_phases), np.diff(np.asarray([0, *phase_ends], dtype=np.int64))
    )

    # Packetize every message at once (packetize_flits: full packets
    # first, then 1-flit packets), keeping message order.
    full, rest = np.divmod(np.asarray(msg_flits, dtype=np.int64), MAX_PACKET_FLITS)
    per_msg = full + rest
    n_pkts = int(per_msg.sum())
    first = np.repeat(np.cumsum(per_msg) - per_msg, per_msg)
    index_in_msg = np.arange(n_pkts) - first
    size = np.where(index_in_msg < np.repeat(full, per_msg), MAX_PACKET_FLITS, 1)
    src = np.repeat(np.asarray(msg_src, dtype=np.int64), per_msg)
    dst = np.repeat(np.asarray(msg_dst, dtype=np.int64), per_msg)
    phase = np.repeat(msg_phase, per_msg)
    time = np.zeros(n_pkts, dtype=np.int64)
    if n_pkts:
        # A packet starts when its source's earlier packets of the same
        # phase are serialized: an exclusive prefix sum of sizes per
        # (phase, source) group, in message order (the sort is stable).
        order = np.lexsort((src, phase))
        g_phase, g_src, g_size = phase[order], src[order], size[order]
        before = np.cumsum(g_size) - g_size
        new_group = np.ones(n_pkts, dtype=bool)
        new_group[1:] = (g_phase[1:] != g_phase[:-1]) | (g_src[1:] != g_src[:-1])
        group_lo = np.flatnonzero(new_group)
        offset = before - before[group_lo][np.cumsum(new_group) - 1]
        group_flits = np.diff(np.append(before[group_lo], before[-1] + g_size[-1]))
        phase_flits = np.zeros(n_phases, dtype=np.int64)
        np.maximum.at(phase_flits, g_phase[group_lo], group_flits)
        # The next phase starts once the busiest source of this one is
        # done, plus the compute gap.
        phase_start = np.zeros(n_phases, dtype=np.int64)
        np.cumsum(phase_flits[:-1] * flit_interval + inter_phase_gap, out=phase_start[1:])
        time[order] = phase_start[g_phase] + offset * flit_interval
    return Trace.from_columns(n_nodes, time, src, dst, size, name=name)

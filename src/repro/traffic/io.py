"""Trace file I/O.

Serializes :class:`~repro.traffic.trace.Trace` objects in the line-oriented
text format BookSim-style trace tools use::

    # comment / header lines
    <cycle> <src> <dst> <size_flits>

one packet per line, whitespace-separated, sorted by injection cycle. The
header records the node count so round-trips are self-contained.

:func:`load_external_trace` additionally imports *foreign* dumps —
BookSim/Netrace-style text files without our header — tolerating 3-field
``<cycle> <src> <dst>`` lines (single-flit packets) and inferring the
node count, with per-line diagnostics for everything malformed. The
``repro workload import`` CLI routes such dumps into the binary npz
store.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.traffic.trace import MAX_PACKET_FLITS, Trace

__all__ = ["save_trace", "load_trace", "load_external_trace"]

_HEADER_PREFIX = "# repro-trace"


def save_trace(trace: Trace, path: str | pathlib.Path) -> None:
    """Write ``trace`` to ``path`` in the text trace format."""
    p = pathlib.Path(path)
    lines = [
        f"{_HEADER_PREFIX} nodes={trace.n_nodes} name={trace.name} "
        f"packets={trace.n_packets}"
    ]
    lines.extend(
        f"{t} {s} {d} {f}"
        for t, s, d, f in zip(
            trace.time.tolist(),
            trace.src.tolist(),
            trace.dst.tolist(),
            trace.size_flits.tolist(),
        )
    )
    p.write_text("\n".join(lines) + "\n")


def load_trace(path: str | pathlib.Path) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Raises:
        ValueError: on malformed lines, a missing/invalid header, or a
            packet count that differs from the header's ``packets=`` (a
            truncated file).
    """
    p = pathlib.Path(path)
    lines = p.read_text().splitlines()
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise ValueError(f"{p} is not a repro trace file (missing header)")
    header = dict(
        field.split("=", 1)
        for field in lines[0][len(_HEADER_PREFIX) :].split()
        if "=" in field
    )
    try:
        n_nodes = int(header["nodes"])
        expected = int(header["packets"]) if "packets" in header else None
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{p}: bad header {lines[0]!r}") from exc
    name = header.get("name", p.stem)

    rows: list[tuple[int, int, int, int]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"{p}:{lineno}: expected 4 fields, got {line!r}")
        try:
            rows.append(tuple(int(x) for x in parts))
        except ValueError as exc:
            raise ValueError(f"{p}:{lineno}: non-integer field in {line!r}") from exc
    if expected is not None and expected != len(rows):
        raise ValueError(f"{p}: header says {expected} packets, file holds {len(rows)}")
    return _from_rows(n_nodes, rows, name)


def _from_rows(n_nodes: int, rows: list[tuple[int, int, int, int]], name: str) -> Trace:
    cols = np.array(rows, dtype=np.int64).reshape(len(rows), 4).T
    return Trace.from_columns(n_nodes, *cols, name=name)


def load_external_trace(
    path: str | pathlib.Path,
    *,
    n_nodes: int | None = None,
    name: str | None = None,
    max_errors: int = 10,
) -> Trace:
    """Import a BookSim/Netrace-style text dump into a :class:`Trace`.

    Accepted per-packet lines (whitespace-separated integers)::

        <cycle> <src> <dst> <size_flits>
        <cycle> <src> <dst>              # size defaults to 1 flit

    Blank lines and ``#``/``%``/``//`` comments are skipped. ``n_nodes``
    defaults to ``max(src, dst) + 1`` over the file (pass it explicitly
    to pin the grid — endpoints beyond it are then errors). Self-loops,
    negative fields and oversized packets are malformed too.

    Raises:
        ValueError: listing up to ``max_errors`` offending lines with
            their line numbers, so a broken dump is diagnosable in one
            pass instead of one crash per line.
    """
    p = pathlib.Path(path)
    rows: list[tuple[int, int, int, int]] = []
    errors: list[str] = []
    n_bad = 0

    def bad(lineno: int, line: str, why: str) -> None:
        nonlocal n_bad
        n_bad += 1
        if n_bad <= max_errors:
            errors.append(f"{p.name}:{lineno}: {why}: {line!r}")
        elif n_bad == max_errors + 1:
            errors.append("... (further malformed lines suppressed)")

    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", "%", "//")):
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            bad(lineno, line, f"expected 3 or 4 fields, got {len(parts)}")
            continue
        try:
            fields = [int(x) for x in parts]
        except ValueError:
            bad(lineno, line, "non-integer field")
            continue
        time, src, dst = fields[:3]
        size = fields[3] if len(fields) == 4 else 1
        if time < 0 or src < 0 or dst < 0:
            bad(lineno, line, "negative field")
            continue
        if src == dst:
            bad(lineno, line, f"self-loop at node {src}")
            continue
        if not 1 <= size <= MAX_PACKET_FLITS:
            bad(lineno, line, f"packet size outside 1..{MAX_PACKET_FLITS}")
            continue
        if n_nodes is not None and (src >= n_nodes or dst >= n_nodes):
            bad(lineno, line, f"endpoint outside 0..{n_nodes - 1}")
            continue
        rows.append((time, src, dst, size))

    if errors:
        raise ValueError(
            f"{p}: {n_bad} malformed line(s):\n  " + "\n  ".join(errors)
        )
    if not rows:
        raise ValueError(f"{p}: no packet lines found")
    nodes = (
        n_nodes
        if n_nodes is not None
        else max(max(r[1], r[2]) for r in rows) + 1
    )
    return _from_rows(max(nodes, 2), rows, name or p.stem)

"""Persistent trace store: compressed NPY columns + JSON header.

The text format in :mod:`repro.traffic.io` is human-readable but scales
poorly (tens of bytes per packet, full parse on load). This module adds
the binary interchange format for large generated workloads::

    trace.npz (a ZIP archive, deflate-compressed)
    ├── header.json   format id, version, n_nodes, name, counts, extras
    ├── time.npy      int64  injection cycle per packet
    ├── src.npy       int32  source node per packet
    ├── dst.npy       int32  destination node per packet
    └── size.npy      int32  packet size in flits

Design points:

* **Versioned** — ``header.json`` carries ``format``/``version``; loaders
  reject unknown formats and newer versions loudly instead of
  misinterpreting bytes.
* **Byte-deterministic** — entry order, ZIP metadata (timestamps fixed to
  the DOS epoch), JSON key order and compression level are all pinned, so
  the same :class:`~repro.traffic.trace.Trace` always serializes to the
  identical file. That makes trace files content-addressable and lets CI
  diff them.
* **Column-native** — :func:`load_trace_npz` hands the stored columns
  to :meth:`Trace.from_columns` without a per-packet object;
  :func:`iter_trace_packets` streams :class:`PacketRecord` objects for
  callers that want records, and :func:`trace_columns` skips the
  :class:`Trace` checks altogether.
"""

from __future__ import annotations

import io
import json
import pathlib
import zipfile
from collections.abc import Iterator
from typing import Any

import numpy as np

from repro.traffic.trace import PacketRecord, Trace

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "iter_trace_packets",
    "load_trace_npz",
    "open_npz_archive",
    "read_trace_header",
    "save_trace_npz",
    "trace_columns",
    "write_npz_archive",
]

TRACE_FORMAT = "repro-trace-npz"
TRACE_VERSION = 1

_HEADER_NAME = "header.json"
#: (zip entry, header column key, dtype) for each packet column.
_COLUMNS = (
    ("time.npy", "time", np.int64),
    ("src.npy", "src", np.int32),
    ("dst.npy", "dst", np.int32),
    ("size.npy", "size_flits", np.int32),
)
#: DOS epoch: the zip timestamp every entry gets, for byte determinism.
_FIXED_DATE = (1980, 1, 1, 0, 0, 0)
_COMPRESS_LEVEL = 6


def _write_entry(zf: zipfile.ZipFile, name: str, payload: bytes) -> None:
    info = zipfile.ZipInfo(name, date_time=_FIXED_DATE)
    info.compress_type = zipfile.ZIP_DEFLATED
    info.create_system = 3  # fixed "unix" id, independent of writer OS
    info.external_attr = 0o644 << 16
    zf.writestr(info, payload, compresslevel=_COMPRESS_LEVEL)


def write_npz_archive(
    path: str | pathlib.Path,
    header: dict[str, Any],
    arrays: list[tuple[str, np.ndarray]],
) -> None:
    """Write a versioned, byte-deterministic npz column archive.

    The reusable core of the trace store: a canonical-JSON ``header.json``
    (which must carry ``format`` and ``version`` keys) followed by one NPY
    entry per ``(name, array)`` pair, in the given order, with pinned ZIP
    metadata. The same inputs always produce the identical file — the
    telemetry store (:mod:`repro.telemetry.report`) shares this writer.
    """
    if "format" not in header or "version" not in header:
        raise ValueError("archive header needs 'format' and 'version' keys")
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    with zipfile.ZipFile(pathlib.Path(path), "w") as zf:
        _write_entry(zf, _HEADER_NAME, header_bytes)
        for entry, arr in arrays:
            buf = io.BytesIO()
            np.save(buf, arr)
            _write_entry(zf, entry, buf.getvalue())


def open_npz_archive(
    path: str | pathlib.Path,
    *,
    expected_format: str,
    max_version: int,
    required_entries: tuple[str, ...] = (),
    kind: str = "trace",
) -> tuple[zipfile.ZipFile, dict[str, Any]]:
    """Open and validate an archive written by :func:`write_npz_archive`.

    Returns the open zip handle plus the parsed header; the caller owns
    closing the handle. Unknown formats, newer versions and missing
    entries fail loudly with the offending path in the message; ``kind``
    is the human-readable noun those messages use.
    """
    p = pathlib.Path(path)
    try:
        zf = zipfile.ZipFile(p, "r")
    except (zipfile.BadZipFile, OSError) as exc:
        raise ValueError(f"{p} is not a readable {kind} archive: {exc}") from exc
    try:
        names = set(zf.namelist())
        if _HEADER_NAME not in names:
            raise ValueError(
                f"{p}: missing {_HEADER_NAME}; not a {kind} file"
            )
        header = json.loads(zf.read(_HEADER_NAME).decode("utf-8"))
        if header.get("format") != expected_format:
            raise ValueError(
                f"{p}: format {header.get('format')!r} != {expected_format!r}"
            )
        version = header.get("version")
        if not isinstance(version, int) or version < 1 or version > max_version:
            raise ValueError(
                f"{p}: unsupported {kind} version {version!r} "
                f"(this reader handles <= {max_version})"
            )
        missing = [entry for entry in required_entries if entry not in names]
        if missing:
            raise ValueError(f"{p}: missing column entries {missing}")
        return zf, header
    except Exception:
        zf.close()
        raise


def save_trace_npz(
    trace: Trace, path: str | pathlib.Path, *, extra: dict[str, Any] | None = None
) -> None:
    """Write ``trace`` to ``path`` in the versioned npz trace format.

    ``extra`` is an optional JSON-safe metadata dictionary persisted in
    the header (e.g. the generating workload spec); it must round-trip
    through ``json.dumps`` or saving fails.
    """
    p = pathlib.Path(path)
    columns = trace.columns()
    header = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "n_nodes": trace.n_nodes,
        "name": trace.name,
        "n_packets": trace.n_packets,
        "total_flits": trace.total_flits,
        "duration_cycles": trace.duration_cycles,
        "columns": [entry for entry, _, _ in _COLUMNS],
        "extra": extra or {},
    }
    write_npz_archive(
        p,
        header,
        [
            (entry, columns[key].astype(dtype, copy=False))
            for entry, key, dtype in _COLUMNS
        ],
    )


def _open_validated(path: str | pathlib.Path) -> tuple[zipfile.ZipFile, dict[str, Any]]:
    return open_npz_archive(
        path,
        expected_format=TRACE_FORMAT,
        max_version=TRACE_VERSION,
        required_entries=tuple(entry for entry, _, _ in _COLUMNS),
    )


def read_trace_header(path: str | pathlib.Path) -> dict[str, Any]:
    """Read and validate only the JSON header of a trace file."""
    zf, header = _open_validated(path)
    zf.close()
    return header


def trace_columns(
    path: str | pathlib.Path,
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Load ``(header, columns)`` — the vectorized view of a trace file."""
    zf, header = _open_validated(path)
    with zf:
        columns: dict[str, np.ndarray] = {}
        for entry, key, _ in _COLUMNS:
            columns[key] = np.load(io.BytesIO(zf.read(entry)), allow_pickle=False)
    lengths = {key: arr.shape[0] for key, arr in columns.items()}
    if len(set(lengths.values())) != 1:
        raise ValueError(f"{path}: ragged column lengths {lengths}")
    if lengths["time"] != header["n_packets"]:
        raise ValueError(
            f"{path}: header says {header['n_packets']} packets, "
            f"columns hold {lengths['time']}"
        )
    return header, columns


def iter_trace_packets(path: str | pathlib.Path) -> Iterator[PacketRecord]:
    """Stream a trace file's packets as :class:`PacketRecord` objects.

    Column arrays are held in memory (a few bytes per packet), and
    records are materialized one at a time, so they never accumulate.
    """
    _, cols = trace_columns(path)
    time, src, dst, size = (
        cols["time"], cols["src"], cols["dst"], cols["size_flits"]
    )
    for i in range(time.shape[0]):
        yield PacketRecord(int(time[i]), int(src[i]), int(dst[i]), int(size[i]))


def load_trace_npz(path: str | pathlib.Path) -> Trace:
    """Load a trace file into a :class:`Trace` (exact save round-trip)."""
    header, cols = trace_columns(path)
    return Trace.from_columns(
        int(header["n_nodes"]),
        cols["time"],
        cols["src"],
        cols["dst"],
        cols["size_flits"],
        name=str(header["name"]),
    )

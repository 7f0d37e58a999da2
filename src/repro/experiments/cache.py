"""Evaluation memoization keyed on scenario content hashes.

The expensive evaluations behind the paper's sweeps (DSENT-backed
analytical CLEAR points, cycle simulations) are pure functions of their
:class:`~repro.experiments.spec.Scenario`; this cache remembers their
metric dictionaries so repeated design points — the plain meshes that
recur across every express option, a re-run of a benchmark, a CLI
invocation over a previously-explored grid — cost one dictionary lookup.

Entries persist in an append-only NDJSON log, one content-addressed
entry per line, that later processes reload (the hash is process-stable).
Appends follow the run ledger's discipline (:mod:`repro.obs.ledger`):
one ``write()`` of whole lines; readers take complete lines only. Several
processes may append to one log: ``O_APPEND`` keeps their writes whole
without a lock. A malformed line (a dead writer's torn tail, sealed by
the next flush that sees it or glued onto a later append) is skipped and
counted in ``cache.corrupt_lines``. A checkpoint (:meth:`EvaluationCache.flush`)
reads only the lines appended since its last read and appends only its
new entries.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import tempfile
import threading
import time
from typing import Any

from repro.experiments.spec import Scenario, scenario_hash, scenario_to_json
from repro.obs.ledger import complete_lines
from repro.obs.logs import fields, get_logger
from repro.obs.metrics import counter, gauge, histogram

__all__ = ["EvaluationCache", "SEMANTICS_EPOCH"]

_FORMAT_VERSION = 2

#: Semantics the cached metrics were computed under. Bump it whenever a
#: golden under ``tests/data/`` is re-recorded (``test_semantics_epoch``
#: enforces this): log lines of any other epoch are skipped, so a point
#: computed under older semantics is recomputed, never served.
SEMANTICS_EPOCH = 1

_log = get_logger("experiments.cache")

# Process-wide mirrors of the per-instance hit/miss counters: the service
# runs one cache per process, so ``/api/v1/metrics`` reports exactly
# ``EvaluationCache.stats`` (pinned by the service-smoke CI assertion).
_HITS = counter("cache.hits")
_MISSES = counter("cache.misses")
_ENTRIES = gauge("cache.entries")
_FLUSHES = counter("cache.flushes")
_FLUSH_MS = histogram("cache.flush_ms")
_CORRUPT = counter("cache.corrupt_lines")


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write ``text`` to ``path`` via temp-file-in-dir + atomic rename."""
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _encode(entries: dict[str, dict[str, Any]]) -> str:
    """One log line per entry, tagged with the format and epoch."""
    head = {"version": _FORMAT_VERSION, "epoch": SEMANTICS_EPOCH}
    return "".join(
        json.dumps({**head, "key": k, **e}, sort_keys=True, separators=(",", ":")) + "\n"
        for k, e in entries.items()
    )


class EvaluationCache:
    """In-memory scenario -> metrics store persisted as an append-only log."""

    def __init__(self) -> None:
        self._store: dict[str, dict[str, Any]] = {}
        # Entries the log lacks: put/merge add and flush takes them under
        # _lock, so a put racing a flush is never lost.
        self._pending: dict[str, dict[str, Any]] = {}
        self._lock = threading.Lock()
        # flush/save own the read cursor: (path, (st_dev, st_ino), bytes
        # of complete lines read, bytes read including a torn tail).
        self._flush_lock = threading.Lock()
        self._cursor: tuple[pathlib.Path, tuple[int, int], int, int] | None = None
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, scenario: Scenario) -> bool:
        return scenario_hash(scenario) in self._store

    def get(self, scenario: Scenario) -> dict[str, Any] | None:
        """Cached metrics for ``scenario``, counting the hit or miss."""
        entry = self._store.get(scenario_hash(scenario))
        if entry is None:
            self.misses += 1
            _MISSES.inc()
            return None
        self.hits += 1
        _HITS.inc()
        return entry["metrics"]

    def put(self, scenario: Scenario, metrics: dict[str, Any]) -> None:
        """Store ``metrics`` for ``scenario`` (overwrites silently)."""
        key = scenario_hash(scenario)
        entry = {"scenario": scenario_to_json(scenario), "metrics": dict(metrics)}
        with self._lock:
            self._store[key] = self._pending[key] = entry
            _ENTRIES.set(len(self._store))

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        with self._lock:
            self._store.clear()
            self._pending.clear()
        self.hits = 0
        self.misses = 0

    @property
    def stats(self) -> dict[str, int]:
        """Hit/miss/size counters (for logs and benchmark reports)."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self)}

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | pathlib.Path) -> None:
        """Compact the log at ``path``: one line per entry, replaced atomically.

        Run it offline: an append by another process, or a put by another
        thread, during the save may be missing from the new file.
        """
        p = pathlib.Path(path)
        with self._flush_lock:
            _atomic_write_text(p, _encode(dict(sorted(self._store.items()))))
            self._pending.clear()
            st = p.stat()
            self._cursor = (p, (st.st_dev, st.st_ino), st.st_size, st.st_size)

    def flush(self, path: str | pathlib.Path) -> int:
        """Checkpoint into the log at ``path``; returns the entry count.

        Merges the lines others appended since the last read (memory
        wins on a key collision: entries are content-addressed), then
        appends the entries put or merged since the last flush. A log
        not read before, or replaced or shrunk since, is read whole, and
        every entry it lacks is appended too.
        """
        start = time.perf_counter()
        p = pathlib.Path(path)
        with self._flush_lock, open(p, "a+b") as log:  # O_APPEND | O_CREAT
            on_disk = self._read_new(log.fileno(), p)
            with self._lock:
                pending, self._pending = self._pending, {}
                if on_disk is not None:
                    pending.update((k, e) for k, e in self._store.items() if k not in on_disk)
                n_entries = len(self._store)
            if pending:
                try:
                    self._append(log.fileno(), _encode(pending).encode())
                except BaseException:
                    with self._lock:  # keep them for the next flush
                        self._pending = {**pending, **self._pending}
                    raise
        elapsed_ms = (time.perf_counter() - start) * 1e3
        _FLUSHES.inc()
        _FLUSH_MS.observe(elapsed_ms)
        _log.debug("cache flushed", extra=fields(
            path=str(p), entries=n_entries, appended=len(pending), ms=round(elapsed_ms, 3)))
        return n_entries

    def _read_new(self, fd: int, path: pathlib.Path) -> set[str] | None:
        """Merge the complete lines appended to the log since the last read.

        Later lines win; blank lines (see :meth:`_append`) and lines of
        another format version or epoch are skipped, malformed ones are
        counted too. Returns the log's keys if read from the start.
        """
        st = os.fstat(fd)
        cur, ident = self._cursor, (st.st_dev, st.st_ino)
        fresh = cur is None or cur[:2] != (path, ident) or st.st_size < cur[2]
        offset = 0 if fresh else cur[2]
        raw = os.pread(fd, st.st_size - offset, offset)
        if fresh and raw.startswith(b"{"):
            try:
                old = json.loads(raw)  # format 1 was one JSON document
            except ValueError:  # a log of two or more lines
                old = {}
            if "entries" in old:
                raise ValueError(f"{path}: unsupported cache format version {old.get('version')!r}")
        lines, end = complete_lines(raw)
        entries: dict[str, dict[str, Any]] = {}
        corrupt = 0
        for line in filter(None, lines):
            try:
                doc = json.loads(line)
                if (doc.get("version"), doc.get("epoch")) == (_FORMAT_VERSION, SEMANTICS_EPOCH):
                    entries[doc["key"]] = {"scenario": doc["scenario"], "metrics": doc["metrics"]}
            except (ValueError, AttributeError, KeyError, TypeError):
                corrupt += 1
        if corrupt:
            _CORRUPT.inc(corrupt)
            _log.warning("skipped corrupt cache lines", extra=fields(path=str(path), lines=corrupt))
        with self._lock:
            for key, entry in entries.items():
                self._store.setdefault(key, entry)
            _ENTRIES.set(len(self._store))
        self._cursor = (path, ident, offset + end, offset + len(raw))
        return set(entries) if fresh else None

    def _append(self, fd: int, data: bytes) -> None:
        """Append ``data`` to the log in one ``write()``.

        A newline first seals a torn tail seen by the last read, so it
        cannot swallow the first new line (an append still in flight
        gets a blank line instead). The cursor skips the new lines if
        nothing else reached the log since that read.
        """
        path, ident, complete, seen = self._cursor
        data = b"\n" * (seen > complete) + data
        if os.write(fd, data) != len(data):  # the rest is a torn tail
            raise OSError(f"short write to {path}")
        if os.fstat(fd).st_size == seen + len(data):
            self._cursor = (path, ident, seen + len(data), seen + len(data))

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "EvaluationCache":
        """Rebuild a cache from a log (see :meth:`_read_new`).

        A whole-file JSON cache (format 1) raises ``ValueError``.
        """
        cache = cls()
        with open(path, "rb") as log:
            cache._read_new(log.fileno(), pathlib.Path(path))
        return cache

    @classmethod
    def load_or_create(cls, path: str | pathlib.Path) -> "EvaluationCache":
        """Load ``path`` if it exists, else an empty cache (new deployments)."""
        p = pathlib.Path(path)
        return cls.load(p) if p.exists() else cls()

    def merge(self, other: "EvaluationCache") -> None:
        """Absorb ``other``'s entries (other wins; the next flush appends them)."""
        with self._lock:
            self._store.update(other._store)
            self._pending.update(other._store)

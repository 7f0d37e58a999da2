"""Evaluation memoization keyed on scenario content hashes.

The expensive evaluations behind the paper's sweeps (DSENT-backed
analytical CLEAR points, cycle simulations) are pure functions of their
:class:`~repro.experiments.spec.Scenario`; this cache remembers their
metric dictionaries so repeated design points — the plain meshes that
recur across every express option, a re-run of a benchmark, a CLI
invocation over a previously-explored grid — cost one dictionary lookup.
Entries can be persisted as JSON for the analysis/report layer and
reloaded in a later process (the content hash is process-stable).

Persistence is safe under concurrent writers: :meth:`EvaluationCache.save`
publishes atomically (temp file + rename, so readers never observe a
half-written file) and :meth:`EvaluationCache.flush` additionally
serializes read-merge-write cycles through a sidecar lock file, so two
runners or service workers checkpointing into the same path union their
entries instead of silently dropping whichever flush lost the race.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import tempfile
import time
from collections.abc import Iterator
from typing import Any

from repro.experiments.spec import Scenario, scenario_hash, scenario_to_json
from repro.obs.logs import fields, get_logger
from repro.obs.metrics import counter, gauge, histogram

__all__ = ["EvaluationCache"]

_FORMAT_VERSION = 1

_log = get_logger("experiments.cache")

# Process-wide mirrors of the per-instance hit/miss counters: the service
# runs one cache per process, so ``/api/v1/metrics`` reports exactly
# ``EvaluationCache.stats`` (pinned by the service-smoke CI assertion).
_HITS = counter("cache.hits")
_MISSES = counter("cache.misses")
_ENTRIES = gauge("cache.entries")
_FLUSHES = counter("cache.flushes")
_FLUSH_MS = histogram("cache.flush_ms")
_LOCK_CONTENDED = counter("cache.lock_contention")
_LOCK_BROKEN = counter("cache.stale_locks_broken")

#: A lock file older than this is assumed to be a dead writer's leftovers.
_STALE_LOCK_S = 30.0


@contextlib.contextmanager
def _file_lock(path: pathlib.Path, timeout: float) -> Iterator[None]:
    """Advisory inter-process lock via exclusive sidecar-file creation.

    ``O_CREAT | O_EXCL`` is atomic on every platform/filesystem the repo
    targets; holders that die leave the lock behind, so acquisition
    breaks locks older than ``timeout`` seconds rather than deadlocking
    on a stale file.
    """
    lock = path.with_name(path.name + ".lock")
    deadline = time.monotonic() + timeout
    contended = False
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if not contended:
                contended = True
                _LOCK_CONTENDED.inc()
                _log.debug(
                    "cache lock contended",
                    extra=fields(path=str(path), timeout_s=timeout),
                )
            if time.monotonic() >= deadline:
                try:
                    age = time.time() - lock.stat().st_mtime
                except OSError:  # raced with the holder's release; retry
                    continue
                # Stale-breaking uses its own (long) threshold so a short
                # acquisition timeout never steals a *live* writer's lock.
                if age >= max(timeout, _STALE_LOCK_S):
                    _LOCK_BROKEN.inc()
                    _log.warning(
                        "breaking stale cache lock",
                        extra=fields(lock=str(lock), age_s=round(age, 3)),
                    )
                    with contextlib.suppress(OSError):
                        lock.unlink()
                    continue
                raise TimeoutError(
                    f"could not lock {path} within {timeout:g}s "
                    f"(held by another process via {lock})"
                ) from None
            time.sleep(0.005)
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        yield
    finally:
        os.close(fd)
        with contextlib.suppress(OSError):
            lock.unlink()


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


class EvaluationCache:
    """In-memory scenario -> metrics store with JSON persistence."""

    def __init__(self) -> None:
        self._store: dict[str, dict[str, Any]] = {}
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
        self._store[scenario_hash(scenario)] = {
            "scenario": scenario_to_json(scenario),
            "metrics": dict(metrics),
        }
        _ENTRIES.set(len(self._store))

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._store.clear()
        self.hits = 0
        self.misses = 0

    @property
    def stats(self) -> dict[str, int]:
        """Hit/miss/size counters (for logs and benchmark reports)."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self)}

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | pathlib.Path) -> None:
        """Write all entries to ``path`` as indented, diffable JSON.

        The write is atomic (temp file + rename): a concurrent
        :meth:`load` sees either the previous complete file or the new
        one, never a truncated JSON document.
        """
        payload = {"version": _FORMAT_VERSION, "entries": self._store}
        _atomic_write_text(
            pathlib.Path(path), json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )

    def flush(self, path: str | pathlib.Path, *, timeout: float = 10.0) -> int:
        """Merge this cache into the file at ``path`` under a lock.

        The concurrent-writer checkpoint primitive: merge the current
        on-disk entries (if any) into this cache in place (memory wins
        on hash collisions — entries are content-addressed, so a
        collision is the same metrics anyway), and atomically publish a
        snapshot of the union, all while holding ``path``'s sidecar lock
        file. Concurrent flushers converge on the union instead of
        overwriting each other, and a :meth:`put` from another thread
        during the flush stays in memory for the next one. Returns the
        published entry count.
        """
        start = time.perf_counter()
        p = pathlib.Path(path)
        with _file_lock(p, timeout):
            if p.exists():
                for key, entry in self._parse(p)["entries"].items():
                    self._store.setdefault(key, entry)
            snapshot = dict(self._store)
            payload = {"version": _FORMAT_VERSION, "entries": snapshot}
            _atomic_write_text(
                p, json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
        _ENTRIES.set(len(self._store))
        _FLUSHES.inc()
        elapsed_ms = (time.perf_counter() - start) * 1e3
        _FLUSH_MS.observe(elapsed_ms)
        _log.debug(
            "cache flushed",
            extra=fields(path=str(p), entries=len(snapshot), ms=round(elapsed_ms, 3)),
        )
        return len(snapshot)

    @staticmethod
    def _parse(path: pathlib.Path) -> dict[str, Any]:
        payload = json.loads(path.read_text())
        version = payload.get("version")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported cache format version {version!r}")
        return payload

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "EvaluationCache":
        """Rebuild a cache from :meth:`save` output."""
        cache = cls()
        cache._store = dict(cls._parse(pathlib.Path(path))["entries"])
        _ENTRIES.set(len(cache._store))
        return cache

    @classmethod
    def load_or_create(cls, path: str | pathlib.Path) -> "EvaluationCache":
        """Load ``path`` if it exists, else an empty cache (new deployments)."""
        p = pathlib.Path(path)
        return cls.load(p) if p.exists() else cls()

    def merge(self, other: "EvaluationCache") -> None:
        """Absorb ``other``'s entries (other wins on key collisions)."""
        self._store.update(other._store)

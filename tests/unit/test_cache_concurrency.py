"""Concurrent-writer safety of the EvaluationCache log.

The service checkpoints the shared cache after every completed point
while other processes (a second service, a CLI run against the same
state dir) may append to the same log. ``flush`` must append whole
lines holding only the new entries: no lost entries, no partial entries,
ever, and a writer killed mid-append must leave a log that still loads
and takes appends.
"""

import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

from repro.experiments import EvaluationCache, Scenario, scenario_family
from repro.experiments.cache import _atomic_write_text
from repro.obs import metrics_snapshot

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _point(worker: int, i: int) -> Scenario:
    """A cheap, distinct design point (spec only — never evaluated)."""
    rate = round(0.0001 * (worker * 1000 + i + 1), 6)
    [scenario] = scenario_family("saturation-sweep", rates=[rate])
    return scenario


def _hammer(path: str, worker: int, n_entries: int) -> int:
    """One writer process: merge its private entries one flush at a time."""
    for i in range(n_entries):
        cache = EvaluationCache()
        cache.put(_point(worker, i), {"value": worker * 1000 + i})
        cache.flush(path)
    return n_entries


# A writer process appending _point(7, i) entries, one flush each, until killed.
_KILLED_WRITER = """
import itertools, sys
from repro.experiments import EvaluationCache, scenario_family

cache = EvaluationCache()
for i in itertools.count():
    rate = round(0.0001 * (7 * 1000 + i + 1), 6)
    [point] = scenario_family("saturation-sweep", rates=[rate])
    cache.put(point, {"i": i, "pad": "x" * 32_768})
    cache.flush(sys.argv[1])
"""


class TestConcurrentFlush:
    def test_process_pool_hammer_loses_nothing(self, tmp_path):
        path = tmp_path / "cache.json"
        workers, per_worker = 4, 10
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_hammer, str(path), w, per_worker)
                for w in range(workers)
            ]
            assert [f.result(timeout=120) for f in futures] == [per_worker] * workers
        final = EvaluationCache.load(path)
        assert len(final) == workers * per_worker
        for w in range(workers):
            for i in range(per_worker):
                assert final.get(_point(w, i)) == {"value": w * 1000 + i}

    def test_threaded_flush_merges_all_entries(self, tmp_path):
        path = tmp_path / "cache.json"

        def write(worker: int) -> None:
            for i in range(15):
                cache = EvaluationCache()
                cache.put(_point(worker, i), {"i": i})
                cache.flush(path)

        threads = [threading.Thread(target=write, args=(w,)) for w in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        final = EvaluationCache.load(path)
        assert len(final) == 5 * 15

    def test_flush_merges_disk_entries_into_memory(self, tmp_path):
        path = tmp_path / "cache.json"
        a, b = EvaluationCache(), EvaluationCache()
        a.put(_point(0, 0), {"x": 1})
        b.put(_point(0, 1), {"x": 2})
        a.flush(path)
        b.flush(path)
        # b now holds the union, and so does the file.
        assert b.get(_point(0, 0)) == {"x": 1}
        final = EvaluationCache.load(path)
        assert final.get(_point(0, 0)) == {"x": 1}
        assert final.get(_point(0, 1)) == {"x": 2}

    def test_put_during_flush_survives(self, tmp_path, monkeypatch):
        """A put from another thread inside the flush window is kept.

        The service's dispatcher flushes the shared cache while the sweep
        thread keeps putting points into it. Wrapping the append step
        lands a put deterministically between the flush taking its
        pending entries and returning; the entry must stay in memory and
        reach the log on the next flush.
        """
        path = tmp_path / "cache.ndjson"
        shared = EvaluationCache()
        shared.put(_point(0, 0), {"x": 0})
        late = _point(0, 1)
        append = EvaluationCache._append

        def append_then_put(self, target, data):
            append(self, target, data)
            shared.put(late, {"x": 1})

        monkeypatch.setattr(EvaluationCache, "_append", append_then_put)
        assert shared.flush(path) == 1
        monkeypatch.undo()
        assert shared.get(late) == {"x": 1}
        assert shared.flush(path) == 2
        assert EvaluationCache.load(path).get(late) == {"x": 1}

    def test_puts_racing_flushes_on_shared_cache_lose_nothing(self, tmp_path):
        """Sweep threads putting while a dispatcher thread flushes."""
        import sys

        path = tmp_path / "cache.json"
        shared = EvaluationCache()
        writers, per_writer = 3, 40
        done = threading.Event()
        errors: list[Exception] = []

        def put_all(worker: int) -> None:
            for i in range(per_writer):
                shared.put(_point(worker, i), {"i": i})

        def flush_loop() -> None:
            try:
                while not done.is_set():
                    shared.flush(path)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            flusher = threading.Thread(target=flush_loop)
            putters = [
                threading.Thread(target=put_all, args=(w,)) for w in range(writers)
            ]
            flusher.start()
            for t in putters:
                t.start()
            for t in putters:
                t.join(timeout=60)
            done.set()
            flusher.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not flusher.is_alive()
        assert not any(t.is_alive() for t in putters)
        assert errors == []
        assert len(shared) == writers * per_writer
        shared.flush(path)
        assert len(EvaluationCache.load(path)) == writers * per_writer

    def test_flush_keeps_memory_entry_on_collision(self, tmp_path):
        path = tmp_path / "cache.json"
        disk, mem = EvaluationCache(), EvaluationCache()
        disk.put(_point(0, 0), {"x": "disk"})
        disk.flush(path)
        mem.put(_point(0, 0), {"x": "memory"})
        mem.flush(path)
        assert mem.get(_point(0, 0)) == {"x": "memory"}
        assert EvaluationCache.load(path).get(_point(0, 0)) == {"x": "memory"}

    def test_file_is_always_complete_json(self, tmp_path):
        """A concurrent load never raises and never returns a partial entry.

        Entries larger than a page make a reader likely to catch an
        append half-written; it must see a prefix of the flushed entries.
        """
        path = tmp_path / "cache.ndjson"
        n = 30
        points = [_point(9, i) for i in range(n)]
        pad = "x" * 10_000
        stop = threading.Event()
        bad: list[object] = []

        def read_loop() -> None:
            while not stop.is_set():
                if not path.exists():
                    continue
                try:
                    loaded = EvaluationCache.load(path)
                except Exception as exc:  # pragma: no cover
                    bad.append(exc)
                    continue
                got = [loaded.get(p) for p in points]
                seen = [m is not None for m in got]
                if (
                    seen != sorted(seen, reverse=True)
                    or len(loaded) != sum(seen)
                    or any(m not in (None, {"i": i, "pad": pad}) for i, m in enumerate(got))
                ):
                    bad.append(got)  # pragma: no cover

        reader = threading.Thread(target=read_loop)
        reader.start()
        try:
            writer = EvaluationCache()
            for i, point in enumerate(points):
                writer.put(point, {"i": i, "pad": pad})
                writer.flush(path)
        finally:
            stop.set()
            reader.join()
        assert bad == []
        assert len(EvaluationCache.load(path)) == n


class TestAppendOnlyLog:
    def test_flush_appends_only_new_lines(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        cache = EvaluationCache()
        for i in range(3):
            cache.put(_point(1, i), {"i": i})
        assert cache.flush(path) == 3
        before = path.read_bytes()
        assert before.count(b"\n") == 3
        for i in range(3, 7):
            cache.put(_point(1, i), {"i": i})
        assert cache.flush(path) == 7
        after = path.read_bytes()
        assert after.startswith(before)
        assert after.count(b"\n") == 3 + 4
        # An all-hit pass puts nothing, so its checkpoint writes nothing,
        # also from a process that loaded the log at boot.
        reborn = EvaluationCache.load(path)
        for cache_ in (cache, reborn):
            for i in range(7):
                assert cache_.get(_point(1, i)) == {"i": i}
            assert cache_.flush(path) == 7
        assert path.read_bytes() == after

    def test_load_ignores_torn_tail_and_later_append_lands(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        writer = EvaluationCache()
        writer.put(_point(2, 0), {"i": 0})
        writer.flush(path)
        with open(path, "ab") as fh:  # a writer killed mid-append
            fh.write(b'{"epoch":1,"key":"dead')
        loaded = EvaluationCache.load(path)
        assert len(loaded) == 1
        loaded.put(_point(2, 1), {"i": 1})
        assert loaded.flush(path) == 2
        final = EvaluationCache.load(path)
        assert len(final) == 2
        assert final.get(_point(2, 0)) == {"i": 0}
        assert final.get(_point(2, 1)) == {"i": 1}

    def test_first_flush_to_an_unread_log_appends_what_it_lacks(self, tmp_path):
        first, second = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        source = EvaluationCache()
        for i in range(3):
            source.put(_point(4, i), {"i": i})
        source.flush(first)
        loaded = EvaluationCache.load(first)  # nothing pending
        other = EvaluationCache()
        other.put(_point(4, 0), {"i": 0})
        other.flush(second)
        assert loaded.flush(second) == 3
        assert second.read_bytes().count(b"\n") == 3
        assert len(EvaluationCache.load(second)) == 3

    def test_replaced_log_is_reread_and_refilled(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        mine = EvaluationCache()
        for i in range(3):
            mine.put(_point(6, i), {"i": i})
        mine.flush(path)
        compactor = EvaluationCache()
        compactor.put(_point(6, 9), {"i": 9})
        compactor.save(path)  # replaced by a smaller log
        mine.put(_point(6, 3), {"i": 3})
        assert mine.flush(path) == 5
        assert mine.get(_point(6, 9)) == {"i": 9}
        assert len(EvaluationCache.load(path)) == 5

    def test_append_racing_another_writer_is_read_back(self, tmp_path, monkeypatch):
        # Another process appends between this cache's read and its own
        # append; the next flush must still read that line.
        path = tmp_path / "cache.ndjson"
        mine, theirs = EvaluationCache(), EvaluationCache()
        theirs.flush(path)
        append = EvaluationCache._append

        def other_writer_first(self, fd, data):
            if self is mine:
                theirs.put(_point(5, 1), {"i": 1})
                theirs.flush(path)
            append(self, fd, data)

        mine.put(_point(5, 0), {"i": 0})
        monkeypatch.setattr(EvaluationCache, "_append", other_writer_first)
        mine.flush(path)
        monkeypatch.undo()
        assert mine.get(_point(5, 1)) is None
        assert mine.flush(path) == 2
        assert mine.get(_point(5, 1)) == {"i": 1}
        assert len(EvaluationCache.load(path)) == 2

    def test_glued_line_is_skipped_and_counted(self, tmp_path):
        # A writer that never saw a dead writer's torn tail appends its
        # first line onto it: one malformed complete line.
        source = EvaluationCache()
        for i in range(3):
            source.put(_point(3, i), {"i": i})
        source.save(tmp_path / "lines.ndjson")
        lines = (tmp_path / "lines.ndjson").read_bytes().splitlines(keepends=True)
        path = tmp_path / "cache.ndjson"
        path.write_bytes(lines[0] + b'{"epoch":1,"ke' + lines[1] + lines[2])
        before = metrics_snapshot()["counters"].get("cache.corrupt_lines", 0)
        loaded = EvaluationCache.load(path)
        assert metrics_snapshot()["counters"]["cache.corrupt_lines"] == before + 1
        assert len(loaded) == 2
        glued = [i for i in range(3) if loaded.get(_point(3, i)) is None]
        assert len(glued) == 1
        # The lost entry costs one recompute; the log keeps taking appends.
        loaded.put(_point(3, glued[0]), {"i": glued[0]})
        loaded.flush(path)
        assert len(EvaluationCache.load(path)) == 3

    def test_sigkilled_writer_leaves_loadable_log(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        # Lines of several pages make a kill inside write() likely to
        # leave a torn tail.
        child = subprocess.Popen(
            [sys.executable, "-c", _KILLED_WRITER, str(path)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        try:
            deadline = time.monotonic() + 60
            while not path.exists() or path.read_bytes().count(b"\n") < 10:
                assert child.poll() is None, "writer exited early"
                assert time.monotonic() < deadline, "writer made no progress"
                time.sleep(0.01)
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait()
        loaded = EvaluationCache.load(path)
        n = len(loaded)
        assert n >= 10
        for i in range(n):
            assert loaded.get(_point(7, i)) == {"i": i, "pad": "x" * 32_768}
        loaded.put(_point(8, 0), {"after": True})
        assert loaded.flush(path) == n + 1
        final = EvaluationCache.load(path)
        assert len(final) == n + 1
        assert final.get(_point(8, 0)) == {"after": True}


class TestLockPrimitives:
    def test_atomic_write_replaces_whole_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        _atomic_write_text(target, "new contents")
        assert target.read_text() == "new contents"
        # No temp droppings left behind.
        assert list(tmp_path.iterdir()) == [target]

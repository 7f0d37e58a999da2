"""Concurrent-writer safety of the EvaluationCache checkpoint file.

The service checkpoints the shared cache after every completed point
while other processes (a second service, a CLI run against the same
state dir) may be flushing the same file. ``flush`` must merge-and-
publish atomically: no lost entries, no torn JSON, ever.
"""

import json
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments import EvaluationCache, Scenario, scenario_family
from repro.experiments.cache import _atomic_write_text, _file_lock


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
        thread keeps putting points into it. Wrapping the publish step
        lands a put deterministically between the flush's snapshot and
        its return; the entry must stay in memory and reach the file on
        the next flush.
        """
        from repro.experiments import cache as cache_mod

        path = tmp_path / "cache.json"
        shared = EvaluationCache()
        shared.put(_point(0, 0), {"x": 0})
        late = _point(0, 1)
        publish = cache_mod._atomic_write_text

        def publish_then_put(target, text):
            publish(target, text)
            shared.put(late, {"x": 1})

        monkeypatch.setattr(cache_mod, "_atomic_write_text", publish_then_put)
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
        path = tmp_path / "cache.json"
        stop = threading.Event()
        torn: list[Exception] = []

        def read_loop() -> None:
            while not stop.is_set():
                if path.exists():
                    try:
                        json.loads(path.read_text())
                    except json.JSONDecodeError as exc:  # pragma: no cover
                        torn.append(exc)

        reader = threading.Thread(target=read_loop)
        reader.start()
        try:
            for i in range(30):
                cache = EvaluationCache()
                cache.put(_point(9, i), {"i": i})
                cache.flush(path)
        finally:
            stop.set()
            reader.join()
        assert torn == []


class TestLockPrimitives:
    def test_lock_excludes_second_holder(self, tmp_path):
        target = tmp_path / "file.json"
        with _file_lock(target, 5.0):
            assert (tmp_path / "file.json.lock").exists()
            with pytest.raises(TimeoutError):
                with _file_lock(target, 0.1):
                    pass  # pragma: no cover
        assert not (tmp_path / "file.json.lock").exists()

    def test_stale_lock_is_broken(self, tmp_path):
        import os
        import time

        target = tmp_path / "file.json"
        lock = tmp_path / "file.json.lock"
        lock.write_text("999999\n")  # a dead writer's leftovers
        old = time.time() - 3600
        os.utime(lock, (old, old))
        with _file_lock(target, 1.0):
            pass  # acquiring broke the stale lock instead of timing out
        assert not lock.exists()

    def test_atomic_write_replaces_whole_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        _atomic_write_text(target, "new contents")
        assert target.read_text() == "new contents"
        # No temp droppings left behind.
        assert list(tmp_path.iterdir()) == [target]

"""Concurrent ResultCache use: threads and processes sharing one cache dir.

The service layer (``repro.service``) makes concurrent access the *default*
pattern: every job worker thread runs grid cells against one shared cache
root, and a CLI grid run may be hammering the same directory from another
process at the same time.  The cache's contract under that load:

* writes are atomic (temp file + ``os.replace``), so a reader never observes
  a half-written entry — every load is either a full trusted payload or a
  miss, never ``corrupt``;
* last-writer-wins on one key is harmless because two writers of the same
  key by construction carry the same content;
* I/O failures (root occupied by a file, entry path occupied by a
  directory) are counted per instance and degrade to cache-less operation
  instead of raising.
"""

import json
import multiprocessing
import threading

import pytest

from repro.grid.cache import ResultCache, content_key


def _entry(index: int):
    """Deterministic (inputs, key, payload) triple number ``index``."""
    inputs = {"cell": index, "content": f"entry-{index}"}
    payload = {
        "algorithm": "hillclimb",
        "layout": [["a", "b"], ["c"]],
        "estimated_cost": 1.0 + index,
    }
    return inputs, content_key(inputs), payload


def _hammer(root: str, indices, iterations: int):
    """One worker's loop: store and load every given entry repeatedly.

    Runs in a thread or a child process; returns the cache's counters so the
    caller can assert nothing was ever distrusted.
    """
    cache = ResultCache(root)
    seen_payloads = 0
    for _ in range(iterations):
        for index in indices:
            inputs, key, payload = _entry(index)
            cache.store(key, inputs, payload)
            loaded = cache.load(key)
            if loaded is not None:
                assert loaded == payload
                seen_payloads += 1
    return {
        "hits": cache.hits,
        "corrupt": cache.corrupt,
        "stale": cache.stale,
        "store_failures": cache.store_failures,
        "load_failures": cache.load_failures,
        "seen": seen_payloads,
    }


class TestThreadedAccess:
    def test_threads_hammering_same_key_never_see_partial_writes(self, tmp_path):
        root = str(tmp_path)
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(_hammer(root, [0], 60)))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 4
        for counters in results:
            # Every concurrent load was a full, trusted payload: atomic
            # os.replace means no reader interleaves with a writer.
            assert counters["corrupt"] == 0
            assert counters["stale"] == 0
            assert counters["store_failures"] == 0
            assert counters["load_failures"] == 0
            assert counters["seen"] == counters["hits"] == 60
        _, key, payload = _entry(0)
        assert ResultCache(root).load(key) == payload

    def test_threads_on_disjoint_keys_share_one_root(self, tmp_path):
        root = str(tmp_path)
        results = []

        def run(index: int) -> None:
            results.append(_hammer(root, [index], 40))

        threads = [
            threading.Thread(target=run, args=(index,)) for index in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for counters in results:
            assert counters["corrupt"] == 0
            assert counters["load_failures"] == 0
        # All six entries landed intact.
        verify = ResultCache(root)
        for index in range(6):
            _, key, payload = _entry(index)
            assert verify.load(key) == payload
        assert verify.hits == 6

    def test_mixed_same_and_different_keys(self, tmp_path):
        root = str(tmp_path)
        results = []

        def run(indices) -> None:
            results.append(_hammer(root, indices, 30))

        # Every worker shares key 0 and owns one private key.
        threads = [
            threading.Thread(target=run, args=([0, 10 + index],))
            for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for counters in results:
            assert counters["corrupt"] == 0
            assert counters["seen"] == counters["hits"] == 60


def _hammer_in_child(root, indices, iterations, queue):  # pragma: no cover
    queue.put(_hammer(root, indices, iterations))


class TestMultiprocessAccess:
    def test_processes_hammering_one_cache_dir(self, tmp_path):
        root = str(tmp_path)
        context = multiprocessing.get_context()
        queue = context.Queue()
        workers = [
            # Everyone fights over key 0; each also owns a private key.
            context.Process(
                target=_hammer_in_child, args=(root, [0, 100 + rank], 25, queue)
            )
            for rank in range(3)
        ]
        for process in workers:
            process.start()
        results = [queue.get(timeout=60) for _ in workers]
        for process in workers:
            process.join(timeout=60)
            assert process.exitcode == 0
        for counters in results:
            assert counters["corrupt"] == 0
            assert counters["stale"] == 0
            assert counters["store_failures"] == 0
            assert counters["load_failures"] == 0
            assert counters["seen"] == counters["hits"] == 50
        verify = ResultCache(root)
        for index in (0, 100, 101, 102):
            _, key, payload = _entry(index)
            assert verify.load(key) == payload


class TestFailureCounters:
    def test_store_failures_counted_when_root_is_a_file(self, tmp_path):
        occupied = tmp_path / "not-a-dir"
        occupied.write_text("occupied")
        cache = ResultCache(occupied)
        inputs, key, payload = _entry(0)
        with pytest.warns(RuntimeWarning, match="cannot write"):
            cache.store(key, inputs, payload)
        cache.store(key, inputs, payload)  # later failures count silently
        assert cache.store_failures == 2
        assert cache.stores == 0
        # Lookups treat the unusable root as misses, not failures.
        assert cache.load(key) is None
        assert cache.misses == 1 and cache.load_failures == 0

    def test_load_failures_counted_when_entry_path_is_a_directory(self, tmp_path):
        cache = ResultCache(tmp_path)
        inputs, key, payload = _entry(1)
        # Occupy the entry's own path with a directory: reading it raises
        # IsADirectoryError — an OSError that is not "entry absent".
        cache.path_for(key).mkdir(parents=True)
        with pytest.warns(RuntimeWarning, match="cannot read"):
            assert cache.load(key) is None
        assert cache.load_failures == 1
        assert cache.misses == 0 and cache.corrupt == 0
        assert "degraded: 0 store / 1 load I/O failures" in cache.describe()

    def test_concurrent_writers_against_broken_root_only_count(self, tmp_path):
        occupied = tmp_path / "file-root"
        occupied.write_text("occupied")
        root = str(occupied)

        def run(results: list) -> None:
            cache = ResultCache(root)
            inputs, key, payload = _entry(2)
            for _ in range(10):
                cache.store(key, inputs, payload)
            results.append(cache.store_failures)

        results: list = []
        threads = [threading.Thread(target=run, args=(results,)) for _ in range(3)]
        # Caught here, not per thread: ``warnings.catch_warnings`` swaps
        # process-global state and is not thread-safe, so one thread leaving
        # it restores the filters under another still inside.
        with pytest.warns(RuntimeWarning, match="cannot write"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert results == [10, 10, 10]

    def test_interrupted_write_is_invisible_to_readers(self, tmp_path):
        """A torn write (simulated half-entry at the final path) is rejected
        as corrupt and recomputed — never served."""
        cache = ResultCache(tmp_path)
        inputs, key, payload = _entry(3)
        cache.store(key, inputs, payload)
        raw = cache.path_for(key).read_text()
        cache.path_for(key).write_text(raw[: len(raw) // 2])
        fresh = ResultCache(tmp_path)
        assert fresh.load(key) is None
        assert fresh.corrupt == 1

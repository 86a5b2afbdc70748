"""Job identity and result-cache behavior (repro.service)."""

import json

from repro.fuzz.oracles import DEFAULT_STEP_BUDGET
from repro.service import (
    AnalyzeJob,
    AttackJob,
    ExecJob,
    ResultCache,
    default_cache_version,
)
from repro.service.jobs import MatrixCellJob


class TestJobKeys:
    def test_same_payload_same_key(self):
        a = AnalyzeJob(source="void f() {}", label="x")
        b = AnalyzeJob(source="void f() {}", label="x")
        assert a.key() == b.key()

    def test_key_distinguishes_payload_fields(self):
        base = AnalyzeJob(source="void f() {}")
        assert base.key() != AnalyzeJob(source="void g() {}").key()
        assert base.key() != AnalyzeJob(source="void f() {}", legacy=True).key()

    def test_key_distinguishes_kinds(self):
        assert (
            AttackJob(attack="x").key().split("-")[0]
            != MatrixCellJob(row_id="x").key().split("-")[0]
        )
        assert AttackJob(attack="x").key().startswith("attack-")

    def test_key_stable_across_field_order(self):
        # keys hash a canonical JSON encoding, not repr() order
        job = AttackJob(attack="heap-overflow", env="stackguard")
        assert job.key() == AttackJob(env="stackguard", attack="heap-overflow").key()

    def test_exec_jobs_not_cacheable(self):
        assert ExecJob(source="int main() { return 0; }").CACHEABLE is False
        assert AnalyzeJob(source="").CACHEABLE is True

    def test_payload_is_jsonable(self):
        payload = MatrixCellJob(
            row_kind="seed", row_id="a", stdin=("x", 1), defense="vrt"
        ).payload()
        assert json.loads(json.dumps(payload)) == {
            "row_kind": "seed",
            "row_id": "a",
            "source": "",
            "stdin": ["x", 1],
            "defense": "vrt",
            "step_budget": DEFAULT_STEP_BUDGET,
        }


class TestResultCache:
    def test_memory_hit_and_miss_accounting(self):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)
        assert 0.0 < cache.hit_rate < 1.0

    def test_disk_persistence_across_instances(self, tmp_path):
        first = ResultCache(directory=str(tmp_path), version="v1")
        first.put("job-abc", {"answer": 42})
        second = ResultCache(directory=str(tmp_path), version="v1")
        assert second.get("job-abc") == {"answer": 42}
        assert second.disk_hits == 1

    def test_version_bump_invalidates(self, tmp_path):
        old = ResultCache(directory=str(tmp_path), version="detector-1")
        old.put("job-abc", {"stale": True})
        bumped = ResultCache(directory=str(tmp_path), version="detector-2")
        assert bumped.get("job-abc") is None
        assert bumped.misses == 1
        # the old version's entry is untouched, just unreachable
        assert ResultCache(directory=str(tmp_path), version="detector-1").get(
            "job-abc"
        ) == {"stale": True}

    def test_lru_eviction_accounting(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {"n": 1})
        cache.put("b", {"n": 2})
        assert cache.get("a") == {"n": 1}  # refresh a; b is now LRU
        cache.put("c", {"n": 3})
        assert cache.evictions == 1
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") == {"n": 1}

    def test_default_version_tracks_detector(self):
        from repro import __version__
        from repro.analysis import DETECTOR_VERSION

        version = default_cache_version()
        assert __version__ in version
        assert DETECTOR_VERSION in version

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path), version="v1")
        cache.put("job-abc", {"fine": True})
        path = tmp_path / "v1" / "job-abc.json"
        path.write_text("{not json")
        fresh = ResultCache(directory=str(tmp_path), version="v1")
        assert fresh.get("job-abc") is None

    def test_stats_shape(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path), version="v9")
        stats = cache.stats()
        assert stats["version"] == "v9"
        assert stats["persistent"] is True
        assert set(stats) >= {
            "hits",
            "misses",
            "evictions",
            "hit_rate",
            "entries",
            "write_errors",
        }


class TestCacheWriteFailures:
    """Disk errors are absorbed and counted, never raised to callers."""

    @staticmethod
    def _unwritable_dir(tmp_path):
        # a regular file where the cache directory should be makes every
        # mkdir fail with an OSError, even when running as root
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        return str(blocker / "cache")

    def test_put_swallows_oserror_and_counts_it(self, tmp_path):
        cache = ResultCache(directory=self._unwritable_dir(tmp_path), version="v1")
        assert cache.put("job-abc", {"answer": 42}) is False  # no raise
        assert cache.write_errors == 1
        # the in-memory tier still holds the value
        assert cache.get("job-abc") == {"answer": 42}
        assert cache.stats()["write_errors"] == 1

    def test_concurrent_get_put_stress_on_unwritable_directory(self, tmp_path):
        import threading

        # capacity must cover all 8*10 distinct keys: with a smaller LRU a
        # concurrent put can evict a key between its owner's put and get,
        # and this test is about OSError absorption, not eviction races
        cache = ResultCache(
            directory=self._unwritable_dir(tmp_path), version="v1", max_entries=128
        )
        errors = []
        barrier = threading.Barrier(8)

        def hammer(worker: int) -> None:
            try:
                barrier.wait(timeout=5)
                for index in range(50):
                    key = f"job-{worker}-{index % 10}"
                    cache.put(key, {"worker": worker, "index": index})
                    value = cache.get(key)
                    assert value is not None and value["worker"] == worker
            except Exception as error:  # noqa: BLE001 - recorded for assert
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(worker,)) for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert cache.write_errors == 8 * 50  # every disk write failed, quietly
        assert cache.stores == 8 * 50

    def test_put_swallows_unserializable_value_and_counts_it(self, tmp_path):
        """json.dumps must run inside the guarded region: a worker result
        that is not JSON-able is a write error, never an exception out of
        a job that already succeeded."""
        cache = ResultCache(directory=str(tmp_path), version="v1")
        poison = {"handle": object(), "ok": True}  # not JSON-serializable
        assert cache.put("job-poison", poison) is False  # no raise
        assert cache.write_errors == 1
        # the in-memory tier still serves the value
        assert cache.get("job-poison") is poison
        # nothing half-written reached the disk tier
        assert not list((tmp_path / "v1").glob("*"))

    def test_unserializable_result_keeps_job_succeeded(self, tmp_path, monkeypatch):
        """End to end through the engine: a cacheable job whose worker
        returns a non-JSON-able dict succeeds, with the cache counting
        the write error."""
        from repro.service import AnalyzeJob, ServiceEngine

        monkeypatch.setattr(
            AnalyzeJob,
            "run",
            staticmethod(lambda payload: {"handle": object(), "ok": True}),
        )
        with ServiceEngine(workers=2, cache_dir=str(tmp_path)) as engine:
            assert engine.analyze("void poison() {}")["ok"] is True
            assert engine.cache.write_errors == 1

    def test_failed_rename_leaves_no_tmp_file(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path), version="v1")
        # a directory at the entry's path makes the final rename fail
        (tmp_path / "v1" / "k1.json").mkdir(parents=True)
        assert cache.put("k1", {"answer": 42}) is False
        assert cache.write_errors == 1
        assert [path.name for path in (tmp_path / "v1").iterdir()] == ["k1.json"]

    def test_tmp_name_carries_the_writer_pid(self, tmp_path, monkeypatch):
        import os
        from pathlib import Path

        renamed = []
        real_replace = Path.replace

        def recording_replace(self, target):
            renamed.append(self.name)
            return real_replace(self, target)

        monkeypatch.setattr(Path, "replace", recording_replace)
        cache = ResultCache(directory=str(tmp_path), version="v1")
        assert cache.put("k1", {"answer": 42}) is True
        (tmp_name,) = renamed
        assert tmp_name.startswith(f"k1.json.{os.getpid():x}.")
        assert tmp_name.endswith(".tmp")

    def test_concurrent_writers_same_key_keep_entry_parseable(self, tmp_path):
        import json as json_module
        import threading

        cache = ResultCache(directory=str(tmp_path), version="v1")
        barrier = threading.Barrier(6)

        def write(worker: int) -> None:
            barrier.wait(timeout=5)
            for _ in range(20):
                cache.put("shared", {"worker": worker})

        threads = [
            threading.Thread(target=write, args=(worker,)) for worker in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert cache.write_errors == 0
        # per-writer tmp files + atomic replace: the entry is whole JSON
        on_disk = json_module.loads((tmp_path / "v1" / "shared.json").read_text())
        assert on_disk in [{"worker": worker} for worker in range(6)]
        assert not list((tmp_path / "v1").glob("*.tmp"))

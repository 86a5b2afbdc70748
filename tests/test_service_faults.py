"""Failure-path hardening suite: every worker crash, hang and cache failure
must resolve terminally.

Each failure is built from a seam the service already has, not injected:
a crashing or hanging worker is a function registered with
:func:`register_worker`; an unwritable disk is a cache ``directory`` that
is a regular file; a corrupt entry is a pre-written ``{"corrupt`` file;
a slow disk is a monkeypatched disk write that sleeps.  For each one,
every submitted job must resolve to a terminal :class:`JobStatus`,
``drain()`` must return, and no cache write error may flip a SUCCEEDED
outcome.
"""

import json
import threading
import time
from dataclasses import dataclass

import pytest

from repro.service import (
    Job,
    JobStatus,
    MetricsRegistry,
    ResultCache,
    Scheduler,
    ServiceEngine,
    WorkerPool,
    register_worker,
    render_prometheus,
)

TERMINAL = (JobStatus.SUCCEEDED, JobStatus.FAILED, JobStatus.TIMED_OUT)


@dataclass(frozen=True)
class EchoJob(Job):
    token: str = ""

    KIND = "test-echo"


@dataclass(frozen=True)
class CrashJob(EchoJob):
    KIND = "test-crash"


@dataclass(frozen=True)
class HangJob(EchoJob):
    KIND = "test-hang"


def _echo(payload):
    return {"token": payload.get("token", "")}


def _crash(payload):
    raise RuntimeError("worker crashed")


def _hang(payload):
    time.sleep(0.5)  # well past the 0.1 s deadline, then finish
    return _echo(payload)


@pytest.fixture(autouse=True)
def _workers():
    register_worker("test-echo", _echo)
    register_worker("test-crash", _crash)
    register_worker("test-hang", _hang)


def _corrupt(cache: ResultCache, key: str) -> None:
    """Leave a truncated entry on disk where ``key`` would be stored."""
    path = cache._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text('{"corrupt')


def _slow_writes(monkeypatch, cache: ResultCache, delay: float) -> list:
    """Make every disk write of ``cache`` sleep first; returns the log
    of written keys."""
    write = cache._write_disk
    written = []

    def slow(key, value):
        time.sleep(delay)
        written.append(key)
        return write(key, value)

    monkeypatch.setattr(cache, "_write_disk", slow)
    return written


#: Each real failure and the terminal status every job must reach.
EXPECTED = {
    "crash": JobStatus.FAILED,
    "hang": JobStatus.TIMED_OUT,
    "unwritable-disk": JobStatus.SUCCEEDED,
    "slow-disk": JobStatus.SUCCEEDED,
    "corrupt-cache": JobStatus.SUCCEEDED,
}


@pytest.mark.parametrize("failure", list(EXPECTED))
def test_every_fault_kind_resolves_terminally_and_drain_returns(
    failure, tmp_path, monkeypatch
):
    """The headline guarantee: real failures never hang a job."""
    directory = tmp_path / "cache"
    if failure == "unwritable-disk":
        directory.write_text("a regular file where the cache directory goes")
    cache = ResultCache(directory=str(directory), version="f1")
    job_class = {"crash": CrashJob, "hang": HangJob}.get(failure, EchoJob)
    jobs = [job_class(token=f"{failure}-{i}") for i in range(6)]
    if failure == "corrupt-cache":
        for job in jobs:
            _corrupt(cache, job.key())
    slow = _slow_writes(monkeypatch, cache, 0.01) if failure == "slow-disk" else []
    with Scheduler(pool=WorkerPool(max_workers=2), cache=cache) as scheduler:
        handles = scheduler.map(jobs, timeout=0.1)
        scheduler.drain()  # must return, never wedge
        outcomes = [handle.outcome(timeout=10) for handle in handles]
    assert all(outcome.status in TERMINAL for outcome in outcomes)
    assert all(outcome.status is EXPECTED[failure] for outcome in outcomes), outcomes
    # and the failure really happened
    if failure == "crash":
        assert all("worker crashed" in outcome.error for outcome in outcomes)
    elif failure == "unwritable-disk":
        assert cache.write_errors == 6
    elif failure == "slow-disk":
        assert len(slow) == 6
    elif failure == "corrupt-cache":
        assert (cache.misses, cache.disk_hits) == (6, 0)
        # the fresh result overwrote each corrupt entry
        for job in jobs:
            assert json.loads(cache._path(job.key()).read_text())["token"]


class TestCacheFaultSemantics:
    def test_unwritable_disk_never_flips_a_success(self, tmp_path):
        not_a_directory = tmp_path / "cache"
        not_a_directory.write_text("")
        cache = ResultCache(directory=str(not_a_directory), version="v")
        metrics = MetricsRegistry()
        with Scheduler(
            pool=WorkerPool(max_workers=2), cache=cache, metrics=metrics
        ) as scheduler:
            outcome = scheduler.submit(EchoJob(token="w")).outcome(timeout=5)
            assert outcome.status is JobStatus.SUCCEEDED
            assert cache.write_errors == 1
            # the in-memory tier still serves the result
            warm = scheduler.submit(EchoJob(token="w")).outcome(timeout=5)
            assert warm.from_cache
        counters = metrics.snapshot()["counters"]
        assert counters["scheduler.cache_write_errors"] == 1
        stages = [span["stage"] for span in outcome.trace["spans"]]
        assert "cache-write-error" in stages

    def test_corrupt_entry_reads_as_a_miss(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path), version="v")
        _corrupt(cache, "test-echo-k")
        assert cache.get("test-echo-k") is None  # tolerated, not raised
        assert cache.misses == 1

    def test_slow_disk_does_not_block_readers(self, tmp_path, monkeypatch):
        cache = ResultCache(directory=str(tmp_path), version="v")
        cache.put("seed", {"n": 0})
        written = _slow_writes(monkeypatch, cache, 0.5)

        done = threading.Event()
        threading.Thread(
            target=lambda: (cache.put("slow", {"n": 1}), done.set()),
            daemon=True,
        ).start()
        time.sleep(0.05)  # writer is now asleep inside the disk write
        started = time.monotonic()
        assert cache.get("seed") == {"n": 0}  # memory read: not serialized
        assert time.monotonic() - started < 0.3
        assert done.wait(5)
        assert written == ["slow"]


class TestEngineIntegration:
    def test_prometheus_rendering_includes_new_gauges(self, tmp_path):
        with ServiceEngine(workers=2, cache_dir=str(tmp_path)) as engine:
            engine.analyze("void f() {}")
            text = engine.metrics_prometheus()
        assert "# TYPE repro_scheduler_jobs_submitted_total counter" in text
        assert "repro_scheduler_queue_depth" in text
        assert "repro_cache_write_errors 0" in text
        assert 'repro_pool_info{backend="thread"} 1' in text
        # deterministic: identical state renders byte-identically
        assert text == render_prometheus(engine.metrics_snapshot())

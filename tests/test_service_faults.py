"""Failure-path hardening suite: every worker crash, hang and cache failure
must resolve terminally.

Each failure is built from a seam the service already has, not injected:
a crashing or hanging worker is an ``AnalyzeJob.run`` that crashes or
sleeps; an unwritable disk is a cache ``directory`` that
is a regular file; a corrupt entry is a pre-written ``{"corrupt`` file;
a slow disk is a monkeypatched disk write that sleeps.  For each one,
every request must end with its job's trace ``resolved`` in a terminal
status, the engine must close, and no cache write error may flip a
success.
"""

import json
import threading
import time
import uuid

import pytest

from repro.service import (
    AnalyzeJob,
    JobFailed,
    ResultCache,
    ServiceEngine,
    WorkerPool,
    render_prometheus,
)
from repro.service import engine as engine_module


def _echo(payload):
    return {"source": payload["source"]}


def _crash(payload):
    raise RuntimeError("worker crashed")


def _hang(payload):
    time.sleep(0.5)  # well past the 0.1 s deadline, then finish
    return _echo(payload)


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


def _status(engine: ServiceEngine, job: AnalyzeJob) -> str:
    """The status the job's trace resolved with."""
    last = engine.trace(job.key())["spans"][-1]
    assert last["stage"] == "resolved"
    return last["detail"]["status"]


#: Each real failure and the terminal status every job must reach.
EXPECTED = {
    "crash": "failed",
    "hang": "timed-out",
    "unwritable-disk": "succeeded",
    "slow-disk": "succeeded",
    "corrupt-cache": "succeeded",
}


@pytest.mark.parametrize("failure", list(EXPECTED))
def test_every_fault_kind_resolves_terminally_and_close_returns(
    failure, tmp_path, monkeypatch
):
    """The headline guarantee: real failures never hang a request."""
    directory = tmp_path / "cache"
    if failure == "unwritable-disk":
        directory.write_text("a regular file where the cache directory goes")
    worker = {"crash": _crash, "hang": _hang}.get(failure, _echo)
    monkeypatch.setattr(AnalyzeJob, "run", staticmethod(worker))
    monkeypatch.setattr(engine_module, "DEFAULT_TIMEOUT", 0.1)
    jobs = [AnalyzeJob(source=f"void f{i}() {{}}") for i in range(6)]
    answers = [None] * len(jobs)

    def request(index):
        try:
            answers[index] = engine.analyze(jobs[index].source)
        except JobFailed as error:
            answers[index] = str(error)

    with ServiceEngine(workers=2, cache_dir=str(directory)) as engine:
        cache = engine.cache
        if failure == "corrupt-cache":
            for job in jobs:
                _corrupt(cache, job.key())
        slow = _slow_writes(monkeypatch, cache, 0.01) if failure == "slow-disk" else []
        # six concurrent requests, as six HTTP request threads send them
        threads = [
            threading.Thread(target=request, args=(index,))
            for index in range(len(jobs))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        statuses = [_status(engine, job) for job in jobs]
    # close() returned: every held job finished or was cancelled
    assert engine.metrics.snapshot()["gauges"]["scheduler.queue_depth"] == 0
    assert statuses == [EXPECTED[failure]] * len(jobs)
    # and the failure really happened
    if failure == "crash":
        assert all("failed: RuntimeError: worker crashed" in a for a in answers)
    elif failure == "hang":
        assert all("timed-out: no result within 0.1s" in a for a in answers)
    else:
        assert answers == [{"source": job.source} for job in jobs]
    if failure == "unwritable-disk":
        assert cache.write_errors == 6
    elif failure == "slow-disk":
        assert len(slow) == 6
    elif failure == "corrupt-cache":
        assert (cache.misses, cache.disk_hits) == (6, 0)
        # the fresh result overwrote each corrupt entry
        for job in jobs:
            assert json.loads(cache._path(job.key()).read_text())["source"]


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_job_still_waiting_for_a_worker_is_cancelled_at_its_deadline(backend):
    """A job that has not started when its deadline passes is cancelled
    and never runs, on either backend: it is no straggler.  The process
    executor marks a job running once it enters its call queue, so the
    pool hands it only as many jobs as it has workers."""
    token = uuid.uuid4().hex
    long_job = AnalyzeJob(
        source="".join(f"void f{token}{i}() {{ int x = {i}; }}\n" for i in range(8000))
    )
    with WorkerPool(1, backend) as pool:
        first = pool.submit(long_job.run, long_job.payload())
        second = pool.submit(long_job.run, AnalyzeJob(source="void f() {}").payload())
        assert pool.wait(second, 0.05) is False
        assert second.cancelled()
        assert pool.stragglers == 0
        assert first.result(timeout=60)["findings"] == []


class TestCacheFaultSemantics:
    def test_unwritable_disk_never_flips_a_success(self, tmp_path, monkeypatch):
        not_a_directory = tmp_path / "cache"
        not_a_directory.write_text("")
        monkeypatch.setattr(AnalyzeJob, "run", staticmethod(_echo))
        job = AnalyzeJob(source="void w() {}")
        with ServiceEngine(workers=2, cache_dir=str(not_a_directory)) as engine:
            assert engine.analyze(job.source) == {"source": job.source}
            assert engine.cache.write_errors == 1
            stages = [span["stage"] for span in engine.trace(job.key())["spans"]]
            assert "cache-write-error" in stages
            assert _status(engine, job) == "succeeded"
            # the in-memory tier still serves the result
            assert engine.analyze(job.source) == {"source": job.source}
            assert "cache-hit" in [
                span["stage"] for span in engine.trace(job.key())["spans"]
            ]
        counters = engine.metrics.snapshot()["counters"]
        assert counters["scheduler.cache_write_errors"] == 1

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

"""Scheduler semantics: priorities, timeouts, failures, drain, caching;
and the batch path, :func:`run_jobs` straight over a :class:`WorkerPool`.

Custom test-only job kinds name test-local ``run`` functions so the
scheduler's control flow can be exercised without real analysis work
(thread backend only: a child process cannot import a closure).  The
pooled-path tests that also run on the process backend call
:func:`run_analyze`, which child processes import by reference.
"""

import threading
import time
import uuid
from concurrent.futures import Future

import pytest

from repro._record import record
from repro.service import scheduler as scheduler_module
from repro.service import (
    AnalyzeJob,
    HIGH_PRIORITY,
    Job,
    JobFailed,
    JobStatus,
    LOW_PRIORITY,
    MetricsRegistry,
    QueueFull,
    ResultCache,
    Scheduler,
    WorkerPool,
    run_jobs,
)
from repro.service.workers import run_analyze


@record(frozen=True)
class ProbeJob(Job):
    """Test-only job; ``token`` differentiates cache keys.  Its ``run``
    is set per test by the ``_workers`` fixture."""

    token: str = ""

    KIND = "test-probe"


@record(frozen=True)
class SleepJob(Job):
    """Test-only job that sleeps, then probes (``_workers`` fixture)."""

    duration: float = 0.0
    token: str = ""

    KIND = "test-sleep"


@record(frozen=True)
class GatedJob(Job):
    """Test-only job whose worker blocks until the test opens the gate
    (its ``run`` is set by :func:`_gate`)."""

    token: str = ""

    KIND = "test-gated"


def _gate() -> threading.Event:
    """Hold ``GatedJob``'s worker until the returned event is set."""
    release = threading.Event()

    def gated(payload):
        release.wait(timeout=5)
        return {"token": payload["token"]}

    GatedJob.run = staticmethod(gated)
    return release


def _calls(*jobs) -> list:
    """``run_jobs`` argument tuples: each job's payload."""
    return [(job.payload(),) for job in jobs]


def _slow_job(functions: int = 4000) -> AnalyzeJob:
    """An analysis of well over 0.1 s whose source no cache has seen."""
    token = uuid.uuid4().hex
    return AnalyzeJob(
        source="".join(
            f"void f{token}{i}() {{ int x = {i}; }}\n" for i in range(functions)
        )
    )


@pytest.fixture(autouse=True)
def _workers(request, monkeypatch):
    """Give the probe and sleep kinds workers with fresh per-test state."""
    state = {"ran": [], "lock": threading.Lock()}

    def probe(payload):
        with state["lock"]:
            state["ran"].append(payload.get("token", ""))
        return {"token": payload.get("token", "")}

    def sleepy(payload):
        time.sleep(payload["duration"])
        return probe(payload)

    monkeypatch.setattr(ProbeJob, "run", staticmethod(probe), raising=False)
    monkeypatch.setattr(SleepJob, "run", staticmethod(sleepy), raising=False)
    if request.cls is not None:
        request.cls.state = state
    yield state


class TestSchedulerBasics:
    state: dict

    def test_submit_and_result(self):
        with Scheduler(pool=WorkerPool(max_workers=2)) as scheduler:
            handle = scheduler.submit(ProbeJob(token="a"))
            assert handle.result(timeout=5) == {"token": "a"}
            outcome = handle.outcome()
            assert outcome.status is JobStatus.SUCCEEDED
            assert not outcome.from_cache

    def test_map_preserves_order(self):
        with Scheduler(pool=WorkerPool(max_workers=4)) as scheduler:
            handles = scheduler.map(
                [ProbeJob(token=str(index)) for index in range(16)]
            )
            assert [h.result(timeout=5)["token"] for h in handles] == [
                str(index) for index in range(16)
            ]

    def test_priority_order_with_single_worker(self):
        release = threading.Event()

        def blocker(payload):
            release.wait(timeout=5)
            return {}

        @record(frozen=True)
        class BlockJob(Job):
            KIND = "test-block"
            run = staticmethod(blocker)

        with Scheduler(pool=WorkerPool(max_workers=1)) as scheduler:
            blocking = scheduler.submit(BlockJob())
            low = scheduler.submit(ProbeJob(token="low"), priority=LOW_PRIORITY)
            high = scheduler.submit(ProbeJob(token="high"), priority=HIGH_PRIORITY)
            release.set()
            low.result(timeout=5)
            high.result(timeout=5)
            blocking.result(timeout=5)
        assert self.state["ran"] == ["high", "low"]

    def test_bounded_queue_rejects_overflow(self, monkeypatch):
        release = threading.Event()

        def blocker(payload):
            release.wait(timeout=5)
            return {}

        @record(frozen=True)
        class BlockJob(Job):
            token: str = ""

            KIND = "test-block"
            run = staticmethod(blocker)

        monkeypatch.setattr(scheduler_module, "MAX_QUEUE", 2)
        scheduler = Scheduler(pool=WorkerPool(max_workers=1))
        try:
            # one job occupies the worker; two fill the queue
            scheduler.submit(BlockJob(token="busy"))
            time.sleep(0.05)  # let the dispatcher pick it up
            scheduler.submit(BlockJob(token="q1"))
            scheduler.submit(BlockJob(token="q2"))
            with pytest.raises(QueueFull):
                scheduler.submit(BlockJob(token="q3"))
        finally:
            release.set()
            scheduler.shutdown()

    def test_batch_larger_than_the_queue_waits_for_room(self, monkeypatch):
        """``submit_waiting`` with more jobs than the queue holds waits
        for a dispatcher instead of raising QueueFull, and every result
        comes back in job order."""
        monkeypatch.setattr(scheduler_module, "MAX_QUEUE", 3)
        jobs = [GatedJob(token=f"job-{index}") for index in range(40)]
        release = _gate()
        timer = threading.Timer(0.2, release.set)
        timer.start()
        try:
            with WorkerPool(max_workers=2) as pool:
                with Scheduler(pool=pool) as scheduler:
                    handles = [scheduler.submit_waiting(job) for job in jobs]
                    results = [handle.result(timeout=30) for handle in handles]
        finally:
            timer.join(timeout=5)
        assert results == [{"token": job.token} for job in jobs]

class TestTimeoutsAndRetries:
    state: dict

    def test_timeout_marks_job_timed_out(self):
        with Scheduler(pool=WorkerPool(max_workers=1)) as scheduler:
            handle = scheduler.submit(SleepJob(duration=5.0), timeout=0.05)
            outcome = handle.outcome(timeout=5)
            assert outcome.status is JobStatus.TIMED_OUT
            assert "0.05" in outcome.error
            with pytest.raises(JobFailed):
                handle.result()

    def test_worker_exception_fails_without_retry(self):
        calls = []

        def broken(payload):
            calls.append(payload)
            raise ValueError("bad payload")

        @record(frozen=True)
        class BrokenJob(Job):
            KIND = "test-broken"
            run = staticmethod(broken)

        with Scheduler(pool=WorkerPool(max_workers=1)) as scheduler:
            outcome = scheduler.submit(BrokenJob()).outcome(timeout=5)
        assert outcome.status is JobStatus.FAILED
        assert "ValueError" in outcome.error
        assert len(calls) == 1  # the worker ran once


class TestLifecycleAndCache:
    state: dict

    def test_drain_waits_for_all(self):
        with Scheduler(pool=WorkerPool(max_workers=2)) as scheduler:
            handles = scheduler.map(
                [SleepJob(duration=0.01, token=str(i)) for i in range(8)]
            )
            scheduler.drain()
            assert all(handle.done() for handle in handles)

    def test_shutdown_without_wait_cancels_queued(self):
        release = threading.Event()

        def blocker(payload):
            release.wait(timeout=5)
            return {}

        @record(frozen=True)
        class BlockJob(Job):
            token: str = ""

            KIND = "test-block"
            run = staticmethod(blocker)

        scheduler = Scheduler(pool=WorkerPool(max_workers=1))
        running = scheduler.submit(BlockJob(token="run"))
        time.sleep(0.05)
        queued = scheduler.submit(BlockJob(token="queued"))
        release.set()
        scheduler.shutdown(wait=False)
        assert queued.outcome(timeout=5).status in (
            JobStatus.CANCELLED,
            JobStatus.SUCCEEDED,  # raced the dispatcher; either is legal
        )
        assert running.outcome(timeout=5).status is JobStatus.SUCCEEDED

    def test_submit_after_shutdown_rejected(self):
        scheduler = Scheduler(pool=WorkerPool(max_workers=1))
        scheduler.shutdown()
        with pytest.raises(RuntimeError):
            scheduler.submit(ProbeJob())

    def test_cache_short_circuits_second_submit(self):
        cache = ResultCache()
        with Scheduler(pool=WorkerPool(max_workers=1), cache=cache) as scheduler:
            first = scheduler.submit(ProbeJob(token="x")).outcome(timeout=5)
            second = scheduler.submit(ProbeJob(token="x")).outcome(timeout=5)
        assert not first.from_cache
        assert second.from_cache
        assert second.result == first.result
        assert self.state["ran"] == ["x"]  # worker ran exactly once

    def test_detector_version_bump_recomputes_analysis(self, tmp_path):
        source = "void f() {}"
        with Scheduler(
            pool=WorkerPool(max_workers=1),
            cache=ResultCache(directory=str(tmp_path), version="d1"),
        ) as scheduler:
            scheduler.submit(AnalyzeJob(source=source)).result(timeout=5)
            warm = scheduler.submit(AnalyzeJob(source=source)).outcome(timeout=5)
            assert warm.from_cache
        with Scheduler(
            pool=WorkerPool(max_workers=1),
            cache=ResultCache(directory=str(tmp_path), version="d2"),
        ) as scheduler:
            bumped = scheduler.submit(AnalyzeJob(source=source)).outcome(timeout=5)
        assert not bumped.from_cache  # version bump invalidated the entry

    def test_metrics_accounting(self):
        metrics = MetricsRegistry()
        cache = ResultCache()
        with Scheduler(
            pool=WorkerPool(max_workers=2), cache=cache, metrics=metrics
        ) as scheduler:
            for _ in range(2):
                scheduler.submit(ProbeJob(token="m")).result(timeout=5)
            scheduler.submit(SleepJob(duration=5.0), timeout=0.05).wait(5)
        snapshot = metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["scheduler.jobs_submitted"] == 3
        assert counters["scheduler.jobs_succeeded"] == 1
        assert counters["scheduler.cache_hits"] == 1
        assert counters["scheduler.jobs_timed_out"] == 1
        assert snapshot["histograms"]["scheduler.job_seconds"]["count"] == 1


class TestAbandonedWorkers:
    """Regression: jobs past their deadline must not starve the pool.

    A straggler keeps its worker until it returns; the pool counts it,
    and a job's deadline starts only once a worker is free for it.
    """

    state: dict

    def test_consecutive_timeouts_still_let_fresh_jobs_complete(self):
        metrics = MetricsRegistry()
        with WorkerPool(max_workers=2) as pool:
            with Scheduler(pool=pool, metrics=metrics) as scheduler:
                # four back-to-back timeouts: every pool worker is held
                # by a sleeping straggler at least once
                hung = scheduler.map(
                    [SleepJob(duration=0.4, token=f"hang-{i}") for i in range(4)],
                    timeout=0.05,
                )
                outcomes = [handle.outcome(timeout=5) for handle in hung]
                assert all(o.status is JobStatus.TIMED_OUT for o in outcomes)
                assert metrics.snapshot()["counters"][
                    "scheduler.jobs_timed_out"
                ] == 4
                # fresh jobs complete once the stragglers give their
                # workers back
                fresh = scheduler.map(
                    [ProbeJob(token=f"fresh-{i}") for i in range(6)]
                )
                for handle in fresh:
                    assert handle.outcome(timeout=5).status is JobStatus.SUCCEEDED
                scheduler.drain()  # must return, not wedge
                deadline = time.monotonic() + 5
                while pool.stragglers and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert pool.stragglers == 0

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_job_queued_behind_stragglers_succeeds(self, backend):
        """At one worker, three stragglers in a row and then a quick
        job: the quick job's deadline starts when the last straggler
        returns, so it succeeds on either backend."""
        stragglers = [_slow_job(8000) for _ in range(3)]
        healthy = AnalyzeJob(source="void f() {}", label="healthy")
        with WorkerPool(1, backend) as pool:
            with Scheduler(pool=pool) as scheduler:
                late = [scheduler.submit(job, timeout=0.05) for job in stragglers]
                quick = scheduler.submit(healthy, timeout=0.5)
                for handle in late:
                    assert handle.outcome(timeout=30).status is JobStatus.TIMED_OUT
                outcome = quick.outcome(timeout=30)
            assert outcome.status is JobStatus.SUCCEEDED, outcome.error
            assert outcome.result["label"] == "healthy"

    def test_pool_cancels_a_never_started_future(self):
        # a job past its deadline that never started is cancelled, not
        # counted: it holds no worker
        pending = Future()
        with WorkerPool(max_workers=1) as pool:
            assert pool.wait(pending, 0.01) is False
            assert pending.cancelled()
            assert pool.stragglers == 0


class TestTracing:
    state: dict

    def test_outcome_carries_full_span_record(self):
        with Scheduler(pool=WorkerPool(max_workers=1)) as scheduler:
            outcome = scheduler.submit(ProbeJob(token="tr")).outcome(timeout=5)
        stages = [span["stage"] for span in outcome.trace["spans"]]
        assert stages == [
            "submitted",
            "queued",
            "dispatched",
            "attempt",
            "resolved",
        ]
        assert outcome.trace["key"] == ProbeJob(token="tr").key()
        assert outcome.trace["trace_id"].startswith("t")
        ats = [span["at"] for span in outcome.trace["spans"]]
        assert ats == sorted(ats)

    def test_cache_hit_trace_and_buffer_lookup(self):
        cache = ResultCache()
        with Scheduler(pool=WorkerPool(max_workers=1), cache=cache) as scheduler:
            scheduler.submit(ProbeJob(token="warm")).result(timeout=5)
            warm = scheduler.submit(ProbeJob(token="warm")).outcome(timeout=5)
            key = ProbeJob(token="warm").key()
            buffered = scheduler.traces.get(key)
        stages = [span["stage"] for span in warm.trace["spans"]]
        assert stages == ["submitted", "cache-hit", "resolved"]
        # the buffer holds the latest submission's trace
        assert buffered is not None
        assert buffered.to_dict() == warm.trace

    def test_failure_spans(self):
        def broken(payload):
            raise RuntimeError("worker lost")

        @record(frozen=True)
        class BrokenJob(Job):
            token: str = ""

            KIND = "test-broken"
            run = staticmethod(broken)

        with Scheduler(pool=WorkerPool(max_workers=1)) as scheduler:
            outcome = scheduler.submit(BrokenJob(token="sp")).outcome(timeout=5)
        stages = [span["stage"] for span in outcome.trace["spans"]]
        assert stages == [
            "submitted",
            "queued",
            "dispatched",
            "attempt",
            "failed",
            "resolved",
        ]


@pytest.fixture(params=["thread", "process"])
def pool(request):
    with WorkerPool(2, request.param) as pool:
        yield pool


class TestPooledRunJobs:
    """The batch path: ``run_jobs`` over a pool, with no scheduler."""

    def test_job_order_is_kept_for_1100_jobs(self, pool):
        jobs = [
            AnalyzeJob(source="void f() {}", label=str(index))
            for index in range(1100)
        ]
        handles = run_jobs(run_analyze, _calls(*jobs), pool)
        labels = [handle.result()["label"] for handle in handles]
        assert labels == [job.label for job in jobs]

    def test_crashing_job_raises_job_failed(self, pool):
        """On the pool and inline alike, with the same message."""
        with pytest.raises(KeyError) as crash:
            run_analyze({})
        for runner in (pool, None):
            (handle,) = run_jobs(run_analyze, [({},)], runner)
            with pytest.raises(JobFailed) as failure:
                handle.result()
            assert str(failure.value) == (
                f"job run_analyze#0 failed: KeyError: {crash.value}"
            )

    def test_timed_out_job_raises_job_failed(self, pool):
        (handle,) = run_jobs(run_analyze, _calls(_slow_job()), pool, timeout=0.01)
        with pytest.raises(JobFailed) as failure:
            handle.result()
        assert str(failure.value) == (
            "job run_analyze#0 timed-out: no result within 0.01s"
        )

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_job_behind_a_straggler_is_not_charged_for_its_time(self, backend):
        """At one worker, a job queued behind one that blew its deadline
        starts its clock when the straggler returns, so it finishes
        instead of timing out too."""
        straggler = _slow_job(8000)  # runs several times the deadline
        healthy = AnalyzeJob(source="void f() {}", label="healthy")
        with WorkerPool(1, backend) as pool:
            first, second = run_jobs(
                run_analyze, _calls(straggler, healthy), pool, timeout=0.15
            )
            with pytest.raises(JobFailed, match="timed-out"):
                first.result()
            assert second.result()["label"] == "healthy"

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_straggler_from_an_earlier_call_still_holds_its_worker(
        self, backend
    ):
        """Stragglers are the pool's, not one ``run_jobs`` call's: a
        healthy job in the next call (the next fuzz round) waits for
        the straggler a previous call left running."""
        straggler = _slow_job(8000)
        healthy = AnalyzeJob(source="void f() {}", label="healthy")
        with WorkerPool(1, backend) as pool:
            (first,) = run_jobs(run_analyze, _calls(straggler), pool, timeout=0.15)
            with pytest.raises(JobFailed, match="timed-out"):
                first.result()
            (second,) = run_jobs(run_analyze, _calls(healthy), pool, timeout=0.15)
            assert second.result()["label"] == "healthy"
            assert pool.stragglers == 0

    def test_at_most_twice_the_pool_size_is_submitted_ahead(self, pool):
        """Count ``pool.submit`` calls: reading one handle lets one more
        job in, never more than ``2 × size`` unread at once, even while
        the thread workers are held."""
        window = 2 * pool.size
        submitted = []
        real_submit = pool.submit

        def counting_submit(function, *args):
            submitted.append(function)
            return real_submit(function, *args)

        pool.submit = counting_submit
        if pool.backend == "thread":
            release = _gate()
            jobs = [GatedJob(token=str(index)) for index in range(20)]
        else:
            release = threading.Event()
            jobs = [
                AnalyzeJob(source="void f() {}", label=str(index))
                for index in range(20)
            ]
        handles = run_jobs(jobs[0].run, _calls(*jobs), pool)
        try:
            first = next(handles)
            time.sleep(0.05)
            assert len(submitted) == window
        finally:
            release.set()
        first.result()
        read = 1
        for handle in handles:
            assert len(submitted) - read <= window
            handle.result()
            read += 1
        assert len(submitted) == read == len(jobs)

    def test_matrix_run_starts_no_dispatch_thread(self, tmp_path, monkeypatch):
        """``--jobs 2`` on the thread backend runs the sweep in the
        calling thread: no worker or dispatch thread starts."""
        from repro.cli import matrix_main

        started = []
        real_start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        out = tmp_path / "report.json"
        assert matrix_main(
            ["run", "--jobs", "2", "--defenses", "none", "--out", str(out)]
        ) == 0
        assert out.exists()
        assert started == []

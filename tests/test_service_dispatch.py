"""The engine's request path (cache, timeouts, failures, the bound on
held jobs, priority, traces) and the pool under it: stragglers and the
batch path, :func:`run_jobs` straight over a :class:`WorkerPool`.

The engine tests give real job kinds test-local workers (the ``probes``
fixture patches ``AnalyzeJob.run`` and ``AttackJob.run``), so a request
runs without real analysis work (thread backend only: a child process
cannot import a closure).  The tests that also run on the process
backend call the real workers, which child processes import by
reference.
"""

import sys
import threading
import time
import uuid
from concurrent.futures import Future

import pytest

from repro._record import record
from repro.defenses import ALL_DEFENSES
from repro.matrix.sweep import attack_rows, cell_jobs, evaluate_cell
from repro.service import (
    AnalyzeJob,
    AttackJob,
    Job,
    JobFailed,
    QueueFull,
    ResultCache,
    ServiceEngine,
    WorkerPool,
    run_jobs,
)
from repro.service import engine as engine_module
from repro.service.jobs import MatrixCellJob
from repro.service.workers import run_analyze

SOURCE = "void f() {}"


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


def _stages(engine: ServiceEngine, job: Job) -> list:
    return [span["stage"] for span in engine.trace(job.key())["spans"]]


@pytest.fixture
def probes(monkeypatch):
    """An analysis returns ``{"token": label}``; an attack sleeps
    ``state["sleep"]`` seconds, then returns ``{"token": attack}``.
    ``state["ran"]`` logs the tokens in the order their workers ran."""
    state = {"ran": [], "sleep": 0.0, "lock": threading.Lock()}

    def probe(token):
        with state["lock"]:
            state["ran"].append(token)
        return {"token": token}

    def sleepy(payload):
        time.sleep(state["sleep"])
        return probe(payload["attack"])

    monkeypatch.setattr(
        AnalyzeJob, "run", staticmethod(lambda payload: probe(payload["label"]))
    )
    monkeypatch.setattr(AttackJob, "run", staticmethod(sleepy))
    return state


@pytest.fixture
def deadline(monkeypatch):
    """Give one-job requests a 0.05 s deadline."""
    monkeypatch.setattr(engine_module, "DEFAULT_TIMEOUT", 0.05)


class TestEngineRequests:
    def test_request_returns_the_workers_result(self, probes):
        with ServiceEngine(workers=2) as engine:
            assert engine.analyze(SOURCE, label="a") == {"token": "a"}

    def test_sweep_preserves_order(self, probes):
        labels = [str(index) for index in range(16)]
        with ServiceEngine(workers=4) as engine:
            results = engine.sweep([(label, SOURCE) for label in labels])
        assert [result["token"] for result in results] == labels

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_one_job_request_runs_before_queued_matrix_cells(self, backend):
        """At one worker, held by a sleep while a whole matrix queues up,
        an analysis requested after the matrix runs first.  Queued
        behind the cells it would return after the last of them; ahead
        of them it returns while nearly all are held (a few may finish
        before the request thread reads the gauge)."""
        cells = len(cell_jobs(attack_rows(), [d.name for d in ALL_DEFENSES]))
        with ServiceEngine(workers=1, backend=backend, use_cache=False) as engine:
            asleep = engine.pool.submit(time.sleep, 0.5)
            matrix = threading.Thread(target=engine.matrix)
            matrix.start()
            while (
                engine.metrics.snapshot()["counters"].get("scheduler.jobs_submitted", 0)
                < cells
            ):
                time.sleep(0.001)
            assert not asleep.done()  # every cell is queued behind the sleep
            engine.analyze(f"void f{uuid.uuid4().hex}() {{}}")
            held = engine.metrics.snapshot()["gauges"]["scheduler.queue_depth"]
            matrix.join(timeout=60)
            assert not matrix.is_alive()
        assert held > cells // 2, (held, cells)

    def test_concurrent_requests_leave_no_held_job(self, probes):
        """Eight request threads on four workers, the interpreter
        switching threads every microsecond: every request gets its own
        results, and the engine's held-job count and the pool's
        hand-over count both return to zero."""
        answers = {}

        def client(index):
            labels = [f"{index}-{n}" for n in range(25)]
            if index % 2:
                got = [engine.analyze(SOURCE, label=label)["token"] for label in labels]
            else:
                got = [r["token"] for r in engine.sweep([(l, SOURCE) for l in labels])]
            answers[index] = got == labels

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ServiceEngine(workers=4, use_cache=False) as engine:
                threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                depth = engine.metrics.snapshot()["gauges"]["scheduler.queue_depth"]
                assert (depth, engine.pool._handed, engine.pool._held) == (0, 0, [])
        finally:
            sys.setswitchinterval(switch)
        assert answers == dict.fromkeys(range(8), True)

    def test_bounded_queue_rejects_overflow(self, probes, monkeypatch):
        """A bound of two held jobs: one attack holds the only worker,
        so a gallery can add one job and is shed at its second, and the
        job it added is cancelled."""
        release = threading.Event()
        monkeypatch.setattr(
            AttackJob,
            "run",
            staticmethod(lambda payload: release.wait(timeout=5) and {}),
        )
        monkeypatch.setattr(engine_module, "MAX_QUEUE", 2)
        with ServiceEngine(workers=1, use_cache=False) as engine:
            busy = threading.Thread(target=engine.attack, args=("busy",))
            busy.start()
            depth = lambda: engine.metrics.snapshot()["gauges"].get(
                "scheduler.queue_depth", 0
            )
            while depth() < 1:
                time.sleep(0.001)
            try:
                with pytest.raises(QueueFull, match=r"at capacity \(2 jobs\)"):
                    engine.gallery()
                assert depth() == 1
            finally:
                release.set()
                busy.join(timeout=5)
            assert not busy.is_alive()

    def test_matrix_larger_than_the_bound_waits_for_room(self, monkeypatch):
        """A 40-cell matrix under a bound of three held jobs, with the
        first cell holding the only worker for 0.2 s: the request waits
        for room and every cell comes back in order."""
        attacks = [row.row_id for row in attack_rows()[:4]]
        with ServiceEngine(workers=1, use_cache=False) as engine:
            expected = engine.matrix(attacks=attacks)
        release = threading.Event()

        def gated(payload):
            release.wait(timeout=5)
            return evaluate_cell(payload)

        monkeypatch.setattr(MatrixCellJob, "run", staticmethod(gated))
        monkeypatch.setattr(engine_module, "MAX_QUEUE", 3)
        timer = threading.Timer(0.2, release.set)
        timer.start()
        try:
            with ServiceEngine(workers=1, use_cache=False) as engine:
                assert engine.matrix(attacks=attacks) == expected
        finally:
            timer.join(timeout=5)
        assert len(expected["cells"]) == 40


class TestTimeoutsAndFailures:
    def test_timeout_fails_the_request(self, probes, deadline):
        probes["sleep"] = 0.3
        with ServiceEngine(workers=1) as engine:
            with pytest.raises(JobFailed) as failure:
                engine.attack("slow")
            assert engine.pool.stragglers == 1
        assert str(failure.value) == (
            f"job {AttackJob(attack='slow').key()} timed-out: no result within 0.05s"
        )

    def test_worker_exception_fails_without_retry(self, monkeypatch):
        calls = []

        def broken(payload):
            calls.append(payload)
            raise ValueError("bad payload")

        monkeypatch.setattr(AnalyzeJob, "run", staticmethod(broken))
        with ServiceEngine(workers=1) as engine:
            with pytest.raises(JobFailed) as failure:
                engine.analyze(SOURCE)
        assert str(failure.value) == (
            f"job {AnalyzeJob(source=SOURCE).key()} failed: ValueError: bad payload"
        )
        assert len(calls) == 1  # the worker ran once

    def test_request_after_close_fails(self, probes):
        engine = ServiceEngine(workers=1)
        engine.close()
        with pytest.raises(JobFailed, match="failed: RuntimeError"):
            engine.analyze(SOURCE, label="late")


class TestFailedRequests:
    def test_jobs_of_a_failed_sweep_are_finished_and_cached(self, monkeypatch):
        """A sweep whose first job crashes after its second is done: the
        request fails, but the second job's result is cached and its
        trace resolved, so asking for it again is a cache hit."""
        ran = []

        def worker(payload):
            ran.append(payload["label"])
            if payload["label"] == "crash":
                time.sleep(0.1)
                raise RuntimeError("worker crashed")
            return {"token": payload["label"]}

        monkeypatch.setattr(AnalyzeJob, "run", staticmethod(worker))
        kept = AnalyzeJob(source=SOURCE, label="kept")
        with ServiceEngine(workers=2) as engine:
            with pytest.raises(JobFailed, match="worker crashed"):
                engine.sweep([("crash", SOURCE), ("kept", SOURCE)])
            assert _stages(engine, kept)[-2:] == ["cached", "resolved"]
            assert engine.analyze(SOURCE, label="kept") == {"token": "kept"}
            assert _stages(engine, kept) == ["submitted", "cache-hit", "resolved"]
        assert sorted(ran) == ["crash", "kept"]

    def test_held_jobs_of_a_failed_sweep_are_cancelled(self, monkeypatch):
        """At one worker the crash puts a 0.1 s sleep ahead of its
        sibling, which is still held when the request fails: it is
        cancelled and never runs."""
        ran = []

        def worker(payload):
            ran.append(payload["label"])
            engine.pool.submit(time.sleep, 0.1, priority=0)
            raise RuntimeError("worker crashed")

        monkeypatch.setattr(AnalyzeJob, "run", staticmethod(worker))
        held = AnalyzeJob(source=SOURCE, label="held")
        with ServiceEngine(workers=1) as engine:
            with pytest.raises(JobFailed, match="worker crashed"):
                engine.sweep([("crash", SOURCE), ("held", SOURCE)])
            stages = _stages(engine, held)
        assert ran == ["crash"]
        assert stages == ["submitted", "attempt", "resolved"]
        assert engine.trace(held.key())["spans"][-1]["detail"] == {"status": "cancelled"}


class TestCacheAndMetrics:
    def test_cache_short_circuits_second_request(self, probes):
        with ServiceEngine(workers=1) as engine:
            first = engine.analyze(SOURCE, label="x")
            second = engine.analyze(SOURCE, label="x")
            stages = _stages(engine, AnalyzeJob(source=SOURCE, label="x"))
        assert second == first
        assert stages == ["submitted", "cache-hit", "resolved"]
        assert probes["ran"] == ["x"]  # worker ran exactly once

    def test_detector_version_bump_recomputes_analysis(self, tmp_path):
        job = AnalyzeJob(source=SOURCE)
        with ServiceEngine(workers=1) as engine:
            engine.cache = ResultCache(directory=str(tmp_path), version="d1")
            engine.analyze(SOURCE)
            engine.analyze(SOURCE)
            assert "cache-hit" in _stages(engine, job)
        with ServiceEngine(workers=1) as engine:
            engine.cache = ResultCache(directory=str(tmp_path), version="d2")
            engine.analyze(SOURCE)
            # the version bump invalidated the entry
            assert "cache-hit" not in _stages(engine, job)

    def test_metrics_accounting(self, probes, deadline):
        probes["sleep"] = 0.3
        with ServiceEngine(workers=2) as engine:
            for _ in range(2):
                engine.analyze(SOURCE, label="m")
            with pytest.raises(JobFailed):
                engine.attack("slow")
        snapshot = engine.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["scheduler.jobs_submitted"] == 3
        assert counters["scheduler.jobs_succeeded"] == 1
        assert counters["scheduler.cache_hits"] == 1
        assert counters["scheduler.jobs_timed_out"] == 1
        assert snapshot["histograms"]["scheduler.job_seconds"]["count"] == 1
        assert snapshot["gauges"]["scheduler.queue_depth"] == 0


class TestAbandonedWorkers:
    """Regression: jobs past their deadline must not starve the pool.

    A straggler keeps its worker until it returns; the pool counts it,
    and a job's deadline starts only once a worker is free for it.
    """

    def test_consecutive_timeouts_still_let_fresh_jobs_complete(
        self, probes, deadline
    ):
        probes["sleep"] = 0.4
        with ServiceEngine(workers=2, use_cache=False) as engine:
            # four back-to-back timeouts: every pool worker is held by a
            # sleeping straggler at least once
            for index in range(4):
                with pytest.raises(JobFailed, match="timed-out"):
                    engine.attack(f"hang-{index}")
            counters = engine.metrics.snapshot()["counters"]
            assert counters["scheduler.jobs_timed_out"] == 4
            # fresh requests complete once the stragglers give their
            # workers back
            for index in range(6):
                label = f"fresh-{index}"
                assert engine.analyze(SOURCE, label=label) == {"token": label}
            give_up = time.monotonic() + 5
            while engine.pool.stragglers and time.monotonic() < give_up:
                time.sleep(0.05)
            assert engine.pool.stragglers == 0

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_job_queued_behind_stragglers_succeeds(self, backend, monkeypatch):
        """At one worker, three concurrent requests that each blow the
        deadline and then a quick one: a job's deadline starts when a
        worker takes it, so the three time out one after another and
        the quick request, queued behind all of them, succeeds."""
        monkeypatch.setattr(engine_module, "DEFAULT_TIMEOUT", 0.1)
        sources = [_slow_job(8000).source for _ in range(3)]
        answers = {}

        def request(source):
            try:  # a one-job sweep: the worker, not this thread, parses it
                answers[source] = engine.sweep([("slow", source)])
            except JobFailed as error:
                answers[source] = str(error)

        with ServiceEngine(workers=1, backend=backend, use_cache=False) as engine:
            threads = [threading.Thread(target=request, args=(s,)) for s in sources]
            for thread in threads:
                thread.start()
            while engine.metrics.snapshot()["gauges"].get("scheduler.queue_depth", 0) < 3:
                time.sleep(0.001)
            quick = engine.analyze(SOURCE, label="healthy")
            for thread in threads:
                thread.join(timeout=30)
        assert quick["label"] == "healthy"
        assert all("timed-out: no result within 0.1s" in answers[s] for s in sources)

    def test_time_held_behind_another_request_is_not_charged(self, probes, deadline):
        """One worker: an attack that runs 0.4 s past its 0.05 s deadline,
        and an analysis requested while it runs.  The analysis waits in
        the heap for the straggler's worker, then runs and succeeds."""
        probes["sleep"] = 0.4
        with ServiceEngine(workers=1, use_cache=False) as engine:
            slow = threading.Thread(
                target=lambda: pytest.raises(JobFailed, engine.attack, "slow")
            )
            slow.start()
            while engine.pool._handed < 1:
                time.sleep(0.001)
            assert engine.analyze(SOURCE, label="quick") == {"token": "quick"}
            slow.join(timeout=5)
        assert probes["ran"] == ["slow", "quick"]

    def test_pool_cancels_a_never_started_future(self):
        # a job past its deadline that never started is cancelled, not
        # counted: it holds no worker
        pending = Future()
        with WorkerPool(max_workers=1) as pool:
            assert pool.wait(pending, 0.01) is False
            assert pending.cancelled()
            assert pool.stragglers == 0

class TestPoolPriority:
    def test_lower_priority_value_runs_first_then_submission_order(self):
        release = _gate()
        ran = []

        def record_token(token):
            ran.append(token)

        with WorkerPool(1) as pool:
            pool.submit(GatedJob.run, {"token": "busy"})
            for token, priority in (("a", 1), ("b", 0), ("c", 1), ("d", 0)):
                pool.submit(record_token, token, priority=priority)
            release.set()
        assert ran == ["b", "d", "a", "c"]


def _spin(seconds: float) -> None:
    """Hold the GIL for ``seconds``, as a pure-Python job does."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class TestThreadWorkersYield:
    def test_a_woken_thread_gets_the_gil_before_the_next_job(self):
        """One thread worker running 2 ms GIL-bound jobs back to back,
        the switch interval at 50 ms: a thread woken by a finished job
        runs as the worker moves on, not when the interval forces the
        worker to give up the GIL (the request thread's lot under a
        concurrent ``/matrix``)."""
        switch = sys.getswitchinterval()
        sys.setswitchinterval(0.05)
        try:
            with WorkerPool(1) as pool:
                spins = [pool.submit(_spin, 0.002, priority=1) for _ in range(300)]
                delays = []
                for _ in range(9):
                    stamp = pool.submit(time.perf_counter)
                    assert pool.wait(stamp, 5)
                    delays.append(time.perf_counter() - stamp.result())
                for spin in spins:
                    spin.cancel()
        finally:
            sys.setswitchinterval(switch)
        assert sorted(delays)[4] < 0.025, delays


class TestTracing:
    def test_trace_carries_full_span_record(self, probes):
        job = AnalyzeJob(source=SOURCE, label="tr")
        with ServiceEngine(workers=1, use_cache=False) as engine:
            engine.analyze(SOURCE, label="tr")
            trace = engine.trace(job.key())
        assert [span["stage"] for span in trace["spans"]] == [
            "submitted",
            "attempt",
            "resolved",
        ]
        assert trace["key"] == job.key()
        assert trace["trace_id"].startswith("t")
        ats = [span["at"] for span in trace["spans"]]
        assert ats == sorted(ats)

    def test_cache_hit_trace_and_buffer_lookup(self, probes):
        job = AnalyzeJob(source=SOURCE, label="warm")
        with ServiceEngine(workers=1) as engine:
            engine.analyze(SOURCE, label="warm")
            assert _stages(engine, job) == [
                "submitted",
                "attempt",
                "cached",
                "resolved",
            ]
            engine.analyze(SOURCE, label="warm")
            # the buffer holds the latest request's trace
            assert _stages(engine, job) == ["submitted", "cache-hit", "resolved"]
            assert engine.traces.get(job.key()).to_dict() == engine.trace(job.key())

    def test_failure_spans(self, monkeypatch):
        def broken(payload):
            raise RuntimeError("worker lost")

        monkeypatch.setattr(AnalyzeJob, "run", staticmethod(broken))
        with ServiceEngine(workers=1) as engine:
            with pytest.raises(JobFailed):
                engine.analyze(SOURCE, label="sp")
            stages = _stages(engine, AnalyzeJob(source=SOURCE, label="sp"))
        assert stages == ["submitted", "attempt", "failed", "resolved"]


class TestServeThreads:
    def test_serve_starts_n_worker_threads_and_no_dispatch_thread(
        self, monkeypatch
    ):
        """``repro-serve --workers 3`` under a gallery that holds every
        worker: three ``repro-worker`` threads, and nothing else of the
        service's own."""
        from repro.cli import serve_main
        from repro.service import ServiceClient
        from repro.service.server import ServiceHTTPServer

        release = threading.Event()
        monkeypatch.setattr(
            AttackJob,
            "run",
            staticmethod(lambda payload: release.wait(timeout=10) and {}),
        )
        before = set(threading.enumerate())
        seen = []
        serve_forever = ServiceHTTPServer.serve_forever

        def drive(server):
            client = ServiceClient(
                "http://127.0.0.1:%d" % server.server_address[1], timeout=10
            )
            gallery = threading.Thread(target=client.attacks)
            gallery.start()
            give_up = time.monotonic() + 10
            while time.monotonic() < give_up:
                seen[:] = [
                    thread.name
                    for thread in set(threading.enumerate()) - before
                    if thread.name.startswith("repro-")
                ]
                if len(seen) >= 3:
                    break
                time.sleep(0.01)
            time.sleep(0.05)  # room for a thread that should not start
            seen[:] = [
                thread.name
                for thread in set(threading.enumerate()) - before
                if thread.name.startswith("repro-")
            ]
            release.set()
            gallery.join(timeout=10)
            server.shutdown()

        def serve(server, *args, **kwargs):
            threading.Thread(target=drive, args=(server,)).start()
            serve_forever(server, *args, **kwargs)

        monkeypatch.setattr(ServiceHTTPServer, "serve_forever", serve)
        assert serve_main(["--port", "0", "--workers", "3", "--no-cache"]) == 0
        assert sorted(seen) == ["repro-worker_0", "repro-worker_1", "repro-worker_2"]


@pytest.fixture(params=["thread", "process"])
def pool(request):
    with WorkerPool(2, request.param) as pool:
        yield pool


class TestPooledRunJobs:
    """The batch path: ``run_jobs`` over a pool, with no engine."""

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

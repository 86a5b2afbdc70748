"""Tests for score_graph over a WorkerPool and the score job."""

from repro.score import demo_graph, score_graph
from repro.service import WorkerPool
from repro.service.jobs import ScoreJob


class TestScoreCorpus:
    def test_parallel_report_matches_sequential(self):
        sequential = score_graph(demo_graph()).to_json()
        with WorkerPool(4) as pool:
            parallel = score_graph(demo_graph(), pool=pool).to_json()
        assert parallel == sequential

    def test_worker_count_does_not_change_bytes(self):
        with WorkerPool(1) as pool:
            one = score_graph(demo_graph(), pool=pool).to_json()
        with WorkerPool(4) as pool:
            four = score_graph(demo_graph(), pool=pool).to_json()
        assert one == four

    def test_accepts_directory_path(self, tmp_path):
        from repro.score import DEMO_PACKAGES, render_package_source

        for package in DEMO_PACKAGES:
            (tmp_path / f"{package.name}.cpp").write_text(
                render_package_source(package)
            )
        with WorkerPool(2) as pool:
            score = score_graph(str(tmp_path), pool=pool)
        assert score.to_json() == score_graph(demo_graph()).to_json()

    def test_custom_attenuation_is_applied(self):
        with WorkerPool(2) as pool:
            score = score_graph(demo_graph(), attenuation=0.0, pool=pool)
        assert score.entry("core-pool").blast_radius == 5.0


class TestScoreJob:
    def test_key_tracks_registry_fingerprint(self):
        base = ScoreJob(source="void f() {}\n", label="a", registry="aaa")
        same = ScoreJob(source="void f() {}\n", label="a", registry="aaa")
        bumped = ScoreJob(source="void f() {}\n", label="a", registry="bbb")
        assert base.key() == same.key()
        assert base.key() != bumped.key()

    def test_job_is_cacheable(self):
        assert ScoreJob.CACHEABLE
        assert ScoreJob.KIND == "score"

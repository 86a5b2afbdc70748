"""Tests for score_graph over a ServiceEngine and the score.* metrics."""

from repro.score import demo_graph, score_graph
from repro.service import ServiceEngine
from repro.service.jobs import ScoreJob
from repro.service.metrics import render_prometheus


class TestScoreCorpus:
    def test_parallel_report_matches_sequential(self):
        sequential = score_graph(demo_graph()).to_json()
        with ServiceEngine(workers=4) as engine:
            parallel = score_graph(demo_graph(), engine=engine).to_json()
        assert parallel == sequential

    def test_worker_count_does_not_change_bytes(self):
        with ServiceEngine(workers=1) as engine:
            one = score_graph(demo_graph(), engine=engine).to_json()
        with ServiceEngine(workers=4) as engine:
            four = score_graph(demo_graph(), engine=engine).to_json()
        assert one == four

    def test_accepts_directory_path(self, tmp_path):
        from repro.score import DEMO_PACKAGES, render_package_source

        for package in DEMO_PACKAGES:
            (tmp_path / f"{package.name}.cpp").write_text(
                render_package_source(package)
            )
        with ServiceEngine(workers=2) as engine:
            score = score_graph(str(tmp_path), engine=engine)
        assert score.to_json() == score_graph(demo_graph()).to_json()

    def test_custom_attenuation_is_applied(self):
        with ServiceEngine(workers=2) as engine:
            score = score_graph(demo_graph(), attenuation=0.0, engine=engine)
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


class TestScoreMetrics:
    def test_score_families_reach_prometheus(self):
        with ServiceEngine(workers=2) as engine:
            score_graph(demo_graph(), engine=engine)
            text = render_prometheus(engine.metrics_snapshot())
        assert "# TYPE repro_score_packages_scored_total counter" in text
        assert "repro_score_packages_scored_total 7" in text
        assert "repro_score_risks_found_total 3" in text
        assert "repro_score_flawed_packages 2" in text
        assert "repro_score_max_blast_radius 15" in text

    def test_score_families_reach_json_snapshot(self):
        with ServiceEngine(workers=2) as engine:
            score_graph(demo_graph(), engine=engine)
            snapshot = engine.metrics_snapshot()
        assert snapshot["counters"]["score.packages_scored"] == 7
        assert snapshot["gauges"]["score.flawed_packages"] == 2

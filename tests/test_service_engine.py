"""ServiceEngine: parallel sweeps match sequential analysis exactly."""

import pytest

from repro.analysis import analyze_source
from repro.fuzz import FuzzConfig, run_campaign
from repro.service import ServiceEngine, WorkerPool
from repro.service.workers import report_from_payload, report_payload
from repro.workloads import corpus_sources

VULN_SOURCE = """
class A { public: double d; };
class B : public A { public: int x[8]; };
void f() { A a; B *b = new (&a) B(); }
"""


@pytest.fixture(scope="module")
def engine():
    with ServiceEngine(workers=4) as engine:
        yield engine


class TestAnalysisPaths:
    def test_single_analysis_matches_direct_call(self, engine):
        payload = engine.analyze(VULN_SOURCE, label="vuln")
        assert payload == report_payload(analyze_source(VULN_SOURCE), label="vuln")
        assert payload["flagged"]
        assert [f["rule"] for f in payload["findings"]] == [
            f.rule
            for f in sorted(
                analyze_source(VULN_SOURCE).findings,
                key=lambda f: (f.line, f.rule, f.function, f.message),
            )
        ]

    def test_parallel_corpus_sweep_equals_sequential(self, engine):
        parallel = engine.corpus_sweep()
        sequential = [
            report_payload(analyze_source(source), label=label)
            for label, source in corpus_sources()
        ]
        assert parallel == sequential

    def test_second_sweep_is_fully_cached(self):
        with ServiceEngine(workers=4) as engine:
            engine.corpus_sweep()
            stores_after_cold = engine.cache.stores
            engine.corpus_sweep()
            assert engine.cache.stores == stores_after_cold  # no recompute
            assert engine.cache.hits >= len(corpus_sources())

    def test_report_round_trips_through_payload(self, engine):
        payload = engine.analyze(VULN_SOURCE)
        rebuilt = report_from_payload(payload)
        direct = analyze_source(VULN_SOURCE)
        assert rebuilt.render() == direct.render()
        assert rebuilt.to_json() == direct.to_json()


class TestAttackPaths:
    def test_attack_summary(self, engine):
        result = engine.attack("data-bss-overflow")
        assert result["succeeded"]
        assert result["summary"] == "ATTACK-WINS"

    def test_attack_under_defense_detected(self, engine):
        result = engine.attack(
            "overflow-via-construction", env="checked-placement"
        )
        assert not result["succeeded"]
        assert result["detected_by"] == "bounds-check"

    def test_gallery_runs_everything(self, engine):
        from repro.attacks import all_attacks

        results = engine.gallery()
        assert [r["name"] for r in results] == [s.name for s in all_attacks()]

    def test_parallel_matrix_equals_sequential_worker(self, engine):
        from repro.matrix import attack_rows, run_sweep

        parallel = engine.matrix()
        sequential = run_sweep(rows=attack_rows())
        assert parallel["defenses"] == sequential["defenses"]
        assert parallel["attacks_succeeding"] == sequential["attacks_succeeding"]
        assert [
            (cell["attack"], cell["defense"], cell["summary"])
            for cell in parallel["cells"]
        ] == [
            (row["id"], defense, row["cells"][defense])
            for row in sequential["rows"]
            for defense in sequential["defenses"]
        ]

    def test_sub_matrix_selection(self, engine):
        result = engine.matrix(
            attacks=("data-bss-overflow",), defenses=("none", "shadow-memory")
        )
        assert result["defenses"] == ["none", "shadow-memory"]
        assert len(result["cells"]) == 2

    def test_sub_matrix_orders_defenses_by_roster(self, engine):
        result = engine.matrix(
            attacks=("overflow-via-construction", "data-bss-overflow"),
            defenses=("vrt", "none", "vrt"),
        )
        assert result["defenses"] == ["none", "vrt"]
        assert [(c["attack"], c["defense"]) for c in result["cells"]] == [
            ("overflow-via-construction", "none"),
            ("overflow-via-construction", "vrt"),
            ("data-bss-overflow", "none"),
            ("data-bss-overflow", "vrt"),
        ]
        assert result["attacks_succeeding"] == {"none": 2, "vrt": 0}

    def test_unknown_matrix_names_rejected_before_submitting(self, engine):
        submitted = engine.metrics_snapshot()["counters"].get(
            "scheduler.jobs_submitted", 0
        )
        with pytest.raises(KeyError, match="no attack named 'bogus'"):
            engine.matrix(attacks=("data-bss-overflow", "bogus"))
        with pytest.raises(KeyError, match="no defense named 'bogus'"):
            engine.matrix(defenses=("none", "bogus"))
        assert (
            engine.metrics_snapshot()["counters"].get("scheduler.jobs_submitted", 0)
            == submitted
        )


class TestExecAndIntrospection:
    def test_execute_returns_outcome(self, engine):
        result = engine.execute("int main(int a, char b) { return 41; }")
        assert result == {
            **result,
            "died": False,
            "return_value": 41,
            "hijacked": False,
        }
        assert result["steps"] > 0

    def test_execute_reports_simulated_death(self, engine):
        result = engine.execute(
            "int main(int a, char b) { int *p; p = 0; *p = 5; return 0; }"
        )
        assert result["died"] is True
        assert result["error_type"] == "SegmentationFault"

    def test_metrics_snapshot_shape(self, engine):
        snapshot = engine.metrics_snapshot()
        assert snapshot["pool"] == {
            "backend": "thread",
            "workers": 4,
            "stragglers": 0,
        }
        assert snapshot["cache"]["version"]
        assert set(snapshot) == {
            "counters", "gauges", "histograms", "cache", "analysis_cache", "pool"
        }
        assert "scheduler.jobs_submitted" in snapshot["counters"]

    def test_metrics_snapshot_reports_the_analysis_cache(self):
        from repro.analysis import analysis_cache_stats

        source = "int main() { int x; x = 41; return x + 1; }\n"
        with ServiceEngine(workers=1, use_cache=False) as engine:
            before = engine.metrics_snapshot()["analysis_cache"]
            engine.execute(source)
            engine.execute(source)  # same source: the AST comes from the LRU
            # A new source that starts with the same function: its
            # declaration comes from the declaration LRU.
            engine.execute(source + "int unused() { return 0; }")
            after = engine.metrics_snapshot()["analysis_cache"]
            assert after == analysis_cache_stats()
            text = engine.metrics_prometheus()
        assert set(after) == {"ast", "declarations", "reports"}
        for tier in after.values():
            assert set(tier) == {"entries", "hits", "misses"}
        assert after["ast"]["hits"] > before["ast"]["hits"]
        assert after["declarations"]["hits"] > before["declarations"]["hits"]
        assert f"repro_analysis_cache_ast_hits {after['ast']['hits']}" in text
        hits = after["declarations"]["hits"]
        assert f"repro_analysis_cache_declarations_hits {hits}" in text
        assert "# TYPE repro_analysis_cache_reports_misses gauge" in text

    def test_analysis_cache_state_never_reaches_a_report(self):
        from repro.analysis import clear_analysis_caches

        clear_analysis_caches()
        reports = []
        for _ in range(2):  # a cold cache, then the warm one it left
            with WorkerPool(2) as pool:
                reports.append(
                    run_campaign(FuzzConfig(seed=7, iterations=20), pool=pool)
                    .to_json()
                )
        assert reports[0] == reports[1]
        assert "analysis_cache" not in reports[0]

    def test_health(self, engine):
        health = engine.health()
        assert health["status"] == "ok"
        assert health["workers"] == 4
        assert health["cache"] is True

"""Tests for blast-radius propagation and the corpus score report."""

import json

import pytest

from repro.score import (
    DEFAULT_ATTENUATION,
    Package,
    PackageGraph,
    analyze_package_source,
    demo_graph,
    diff_score_reports,
    score_graph,
    score_packages,
)


def _chain_graph():
    return PackageGraph(
        [
            Package(name="base", source=""),
            Package(name="mid", source="", imports=("base",)),
            Package(name="top", source="", imports=("mid",)),
        ]
    )


def _risk(score):
    return {"score": score, "line": 1, "trigger": "PN-OVERSIZE"}


class TestPropagationMath:
    def test_entry_looks_a_package_up_by_name(self):
        score = score_packages(_chain_graph(), {"base": [_risk(8)], "mid": [], "top": []})
        assert [score.entry(name).name for name in ("top", "base", "mid")] == [
            "top",
            "base",
            "mid",
        ]
        with pytest.raises(KeyError):
            score.entry("absent")

    def test_blast_radius_attenuates_by_depth(self):
        risks = {"base": [_risk(8)], "mid": [], "top": []}
        score = score_packages(_chain_graph(), risks)
        # 8 * (1 + 0.5 for mid at depth 1 + 0.25 for top at depth 2)
        assert score.entry("base").blast_radius == 8 * 1.75
        assert score.entry("mid").blast_radius == 0.0

    def test_exposure_flows_down_the_import_chain(self):
        risks = {"base": [_risk(8)], "mid": [], "top": []}
        score = score_packages(_chain_graph(), risks)
        assert score.entry("mid").exposure == 8 * 0.5
        assert score.entry("top").exposure == 8 * 0.25

    def test_leaf_blast_equals_intrinsic(self):
        risks = {"base": [], "mid": [], "top": [_risk(6)]}
        score = score_packages(_chain_graph(), risks)
        assert score.entry("top").blast_radius == 6.0

    def test_zero_attenuation_stops_propagation(self):
        risks = {"base": [_risk(8)], "mid": [], "top": []}
        score = score_packages(_chain_graph(), risks, attenuation=0.0)
        assert score.entry("base").blast_radius == 8.0
        assert score.entry("mid").exposure == 0.0

    def test_bad_attenuation_is_rejected(self):
        with pytest.raises(ValueError, match="attenuation"):
            score_packages(_chain_graph(), {}, attenuation=1.5)

    def test_missing_package_risks_are_rejected(self):
        with pytest.raises(ValueError, match="no risks"):
            score_packages(_chain_graph(), {"base": []})


class TestDemoGraph:
    """The acceptance example: propagation reorders the ranking."""

    def test_blast_ranking_differs_from_flat_ranking(self):
        score = score_graph(demo_graph())
        assert score.ranking != score.flat_ranking
        assert score.flat_ranking[0] == "tool-report"
        assert score.ranking[0] == "core-pool"

    def test_core_pool_numbers(self):
        score = score_graph(demo_graph())
        entry = score.entry("core-pool")
        assert entry.intrinsic == 5
        assert entry.dependents == 5
        assert entry.blast_radius == 15.0

    def test_totals(self):
        totals = score_graph(demo_graph()).totals
        assert totals["packages"] == 7
        assert totals["flawed_packages"] == 2
        assert totals["max_blast_radius"] == 15.0


class TestReport:
    def test_to_json_is_byte_stable(self):
        first = score_graph(demo_graph()).to_json()
        second = score_graph(demo_graph()).to_json()
        assert first == second
        document = json.loads(first)
        assert list(document) == sorted(document)

    def test_report_carries_fingerprint(self):
        from repro.score import scoring_versions

        document = json.loads(score_graph(demo_graph()).to_json())
        assert document["fingerprint"] == scoring_versions()
        assert document["attenuation"] == DEFAULT_ATTENUATION

    def test_render_lists_ranking(self):
        text = score_graph(demo_graph()).render()
        lines = text.splitlines()
        assert lines[1].startswith("core-pool")
        assert "2/7 packages flawed" in lines[-1]

    def test_render_top_truncates(self):
        text = score_graph(demo_graph()).render(top=2)
        assert len(text.splitlines()) == 4  # header + 2 rows + totals


class TestAnalyzePackageSource:
    def test_risks_are_sorted_and_jsonable(self):
        source = demo_graph().package("core-pool").source
        risks = analyze_package_source(source, "core-pool")
        assert [r["trigger"] for r in risks] == ["PN-NO-SANITIZE", "PN-LEAK"]
        assert json.dumps(risks)

    def test_clean_source_has_no_risks(self):
        assert analyze_package_source("void f() { int x = 1; }\n") == []


class TestDiff:
    def test_identical_reports_have_no_differences(self):
        document = score_graph(demo_graph()).to_dict()
        assert diff_score_reports(document, document) == []

    def test_score_and_ranking_changes_are_reported(self):
        before = score_graph(demo_graph()).to_dict()
        after = score_graph(demo_graph(), attenuation=0.0).to_dict()
        lines = diff_score_reports(before, after)
        assert any("core-pool blast_radius" in line for line in lines)
        assert any(line.startswith("ranking:") for line in lines)

    def test_fingerprint_drift_is_reported_first(self):
        before = score_graph(demo_graph()).to_dict()
        after = json.loads(json.dumps(before))
        after["fingerprint"]["threat_registry"] = "something-else"
        lines = diff_score_reports(before, after)
        assert lines[0].startswith("fingerprint threat_registry")

    def test_package_set_changes_are_reported(self):
        before = score_graph(demo_graph()).to_dict()
        after = json.loads(json.dumps(before))
        after["packages"] = [
            p for p in after["packages"] if p["name"] != "tool-report"
        ]
        lines = diff_score_reports(before, after)
        assert "package removed: tool-report" in lines

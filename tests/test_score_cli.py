"""Tests for the repro-score front end."""

import json

import pytest

from repro.cli import score_main
from repro.score import DEMO_PACKAGES, render_package_source


@pytest.fixture()
def package_dir(tmp_path):
    for package in DEMO_PACKAGES:
        (tmp_path / f"{package.name}.cpp").write_text(
            render_package_source(package)
        )
    return str(tmp_path)


class TestRank:
    def test_rank_prints_table(self, package_dir, capsys):
        assert score_main(["rank", package_dir]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("core-pool")
        assert "2/7 packages flawed" in out

    def test_rank_json_is_byte_identical_across_runs(self, package_dir, capsys):
        score_main(["rank", package_dir, "--json"])
        first = capsys.readouterr().out
        score_main(["rank", package_dir, "--json"])
        second = capsys.readouterr().out
        assert first == second
        document = json.loads(first)
        assert list(document) == sorted(document)

    def test_rank_json_is_byte_identical_across_jobs(self, package_dir, capsys):
        score_main(["rank", package_dir, "--json"])
        sequential = capsys.readouterr().out
        score_main(["rank", package_dir, "--json", "--jobs", "1"])
        one_worker = capsys.readouterr().out
        score_main(["rank", package_dir, "--json", "--jobs", "4"])
        four_workers = capsys.readouterr().out
        assert sequential == one_worker == four_workers

    def test_rank_scores_a_deep_import_chain(self, tmp_path, capsys):
        names = [f"p{i:05d}" for i in range(1100)]
        for index, name in enumerate(names):
            imports = f"// imports: {names[index + 1]}\n" if index + 1 < len(names) else ""
            (tmp_path / f"{name}.cpp").write_text(imports + "void f() {}\n")
        assert score_main(["rank", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["packages"][-1]["dependents"] == 1099

    def test_rank_demo_flag_needs_no_directory(self, capsys):
        assert score_main(["rank", "--demo"]) == 0
        assert "core-pool" in capsys.readouterr().out

    def test_rank_top_limits_rows(self, package_dir, capsys):
        score_main(["rank", package_dir, "--top", "2"])
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_rank_out_writes_file(self, package_dir, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert (
            score_main(["rank", package_dir, "--json", "--out", str(target)])
            == 0
        )
        document = json.loads(target.read_text())
        assert document["ranking"][0] == "core-pool"


class TestScore:
    def test_score_prints_cwe_capec_attribution(self, package_dir, capsys):
        assert score_main(["score", package_dir]) == 0
        out = capsys.readouterr().out
        assert "PN-NO-SANITIZE" in out
        assert "CAPEC-116" in out
        assert "CWE-200" in out

    def test_score_json_carries_fingerprint(self, package_dir, capsys):
        from repro.score import scoring_versions

        score_main(["score", package_dir, "--json"])
        document = json.loads(capsys.readouterr().out)
        assert document["fingerprint"] == scoring_versions()


class TestDiff:
    def _report(self, package_dir, capsys, attenuation="0.5"):
        score_main(
            ["rank", package_dir, "--json", "--attenuation", attenuation]
        )
        return capsys.readouterr().out

    def test_equivalent_reports_exit_zero(self, package_dir, tmp_path, capsys):
        text = self._report(package_dir, capsys)
        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        before.write_text(text)
        after.write_text(text)
        assert score_main(["diff", str(before), str(after)]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_changed_reports_exit_one(self, package_dir, tmp_path, capsys):
        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        before.write_text(self._report(package_dir, capsys))
        after.write_text(self._report(package_dir, capsys, attenuation="0.0"))
        assert score_main(["diff", str(before), str(after)]) == 1
        assert "blast_radius" in capsys.readouterr().out


class TestBadInput:
    def test_missing_directory_exits_2(self, capsys):
        assert score_main(["rank", "/no/such/packages"]) == 2
        assert "no package directory" in capsys.readouterr().err

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        assert score_main(["rank", str(tmp_path)]) == 2
        assert "no *.cpp packages" in capsys.readouterr().err

    def test_cycle_exits_2(self, tmp_path, capsys):
        (tmp_path / "a.cpp").write_text("// imports: b\nvoid f() {}\n")
        (tmp_path / "b.cpp").write_text("// imports: a\nvoid f() {}\n")
        assert score_main(["rank", str(tmp_path)]) == 2
        assert "cycle" in capsys.readouterr().err

    def test_unknown_import_exits_2(self, tmp_path, capsys):
        (tmp_path / "a.cpp").write_text("// imports: ghost\nvoid f() {}\n")
        assert score_main(["rank", str(tmp_path)]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_bad_attenuation_exits_2(self, capsys):
        assert score_main(["rank", "--demo", "--attenuation", "2"]) == 2
        assert "--attenuation" in capsys.readouterr().err

    def test_negative_jobs_exits_2(self, capsys):
        assert score_main(["rank", "--demo", "--jobs", "-1"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_diff_on_non_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert score_main(["diff", str(bad), str(bad)]) == 2
        assert "not a score report" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pool",
        [["--jobs", "0"], ["--jobs", "2"], ["--jobs", "2", "--backend", "process"]],
        ids=["inline", "thread", "process"],
    )
    @pytest.mark.parametrize("command", ["rank", "score"])
    def test_unparsable_package_exits_2_naming_it(
        self, package_dir, command, pool, capsys
    ):
        with open(f"{package_dir}/broken.cpp", "w") as handle:
            handle.write("int main( {\n")
        assert score_main([command, package_dir, *pool]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: package broken: 1:11: expected identifier, got '{'\n"
        )

"""Tests for the command-line front ends."""

import pytest

from repro.cli import analyze_main, attacks_main


class TestSharedExitConvention:
    """Every front end exits 2 (EX_USAGE) on bad input."""

    @pytest.mark.parametrize(
        ("entry_point", "argv"),
        [
            ("repro.cli:attacks_main", ["--env", "no-such-env"]),
            ("repro.cli:analyze_main", ["/no/such/file.cpp"]),
            ("repro.cli:exec_main", ["/no/such/file.cpp"]),
            ("repro.cli:serve_main", ["--workers", "0"]),
            ("repro.cli:serve_main", ["--port", "70000"]),
            ("repro.cli:fuzz_main", ["run", "--jobs", "-1"]),
            ("repro.cli:matrix_main", ["run", "--jobs", "-1"]),
            ("repro.cli:regress_main", ["list", "--store", "/no/such/store"]),
            ("repro.cli:score_main", ["rank", "/no/such/packages"]),
            ("repro.bench:bench_main", ["--benchmarks-dir", "/no/such/dir"]),
            ("repro.cli:fuzz_main", ["run", "--batch-size", "0"]),
            ("repro.cli:fuzz_main", ["run", "--max-corpus", "0"]),
            (
                "repro.cli:matrix_main",
                [
                    "run", "--jobs", "0", "--no-regress", "--defenses", "none",
                    "--out", "/no/such/dir/r.json",
                ],
            ),
            ("repro.cli:score_main", ["rank", "--demo", "--top", "-1"]),
            ("repro.cli:fuzz_main", ["run", "--jobs", "0", "--step-budget", "0"]),
            ("repro.cli:fuzz_main", ["run", "--jobs", "0", "--step-budget", "-5"]),
            ("repro.cli:fuzz_main", ["run", "--jobs", "0", "--iterations", "-3"]),
            (
                "repro.cli:matrix_main",
                [
                    "run", "--jobs", "0", "--no-regress", "--defenses", "none",
                    "--step-budget", "0",
                ],
            ),
            (
                "repro.cli:regress_main",
                ["record", "--store", "/no/such/store", "--step-budget", "0"],
            ),
            ("repro.cli:serve_main", ["--port", "-1"]),
            ("repro.cli:fuzz_main", ["run", "--jobs", "0", "--stop-after", "-1"]),
            ("repro.cli:fuzz_main", ["run", "--jobs", "2", "--batch-timeout", "0"]),
            ("repro.cli:fuzz_main", ["run", "--jobs", "2", "--batch-timeout", "-1"]),
        ],
    )
    def test_bad_input_exits_2(self, entry_point, argv, capsys):
        import importlib

        module_name, function_name = entry_point.split(":")
        main = getattr(importlib.import_module(module_name), function_name)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_stop_after_is_refused_before_any_work(self, tmp_path, capsys):
        from repro.cli import fuzz_main

        checkpoints = tmp_path / "checkpoints"
        argv = ["run", "--stop-after", "-1", "--checkpoint-dir", str(checkpoints)]
        assert fuzz_main(argv) == 2
        assert capsys.readouterr().err == "error: --stop-after must be >= 0\n"
        assert not checkpoints.exists()

    def test_zero_iterations_is_a_seed_pass(self, tmp_path):
        from repro.cli import fuzz_main

        out = tmp_path / "report.json"
        argv = ["run", "--jobs", "0", "--iterations", "0", "--out", str(out)]
        assert fuzz_main(argv) == 0
        assert '"iterations": 0' in out.read_text()

    def test_every_project_script_is_covered(self):
        # The parametrized list above must track pyproject [project.scripts].
        from pathlib import Path

        pyproject = (
            Path(__file__).resolve().parent.parent / "pyproject.toml"
        ).read_text()
        scripts_section = pyproject.split("[project.scripts]")[1]
        scripts_section = scripts_section.split("\n[")[0]
        entry_points = {
            line.split("=")[1].strip().strip('"')
            for line in scripts_section.splitlines()
            if "=" in line
        }
        covered = {
            param[0]
            for mark in TestSharedExitConvention.test_bad_input_exits_2.pytestmark
            if mark.name == "parametrize"
            for param in mark.args[1]
        }
        assert entry_points == covered


class TestPooledJobFailure:
    """A job that fails on the pool exits 1 with one error line, writes
    no report, and prints no traceback."""

    @pytest.mark.parametrize(
        ("kind", "entry_point", "argv"),
        [
            (
                "matrix-cell",
                "matrix_main",
                ["run", "--no-regress", "--defenses", "none", "--out"],
            ),
            ("score", "score_main", ["rank", "--demo", "--out"]),
            ("score", "score_main", ["score", "--demo"]),
        ],
    )
    def test_failed_job_exits_1_without_a_report(
        self, kind, entry_point, argv, tmp_path, capsys, monkeypatch
    ):
        import repro.cli
        from repro.service.workers import WORKER_REGISTRY

        def crash(payload):
            raise RuntimeError("worker crashed")

        monkeypatch.setitem(WORKER_REGISTRY, kind, crash)
        out = tmp_path / "report.json"
        if argv[-1] == "--out":
            argv = argv + [str(out)]
        main = getattr(repro.cli, entry_point)
        assert main(argv + ["--jobs", "2", "--backend", "thread"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {kind} job failed: ")
        assert "worker crashed" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()


class TestBenchDiff:
    """``repro-bench diff`` — CI's >10%-regression gate on two summaries."""

    @staticmethod
    def _summary(tmp_path, name, means, rounds=10):
        import json

        path = tmp_path / name
        path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "benchmarks": {
                        bench: {"mean_s": mean, "rounds": rounds}
                        for bench, mean in means.items()
                    },
                }
            )
        )
        return str(path)

    def test_clean_diff_exits_0(self, tmp_path, capsys):
        from repro.bench import bench_main

        base = self._summary(tmp_path, "BENCH_a.json", {"test_x": 2.0e-4})
        new = self._summary(tmp_path, "BENCH_b.json", {"test_x": 1.0e-4})
        assert bench_main(["diff", new, base]) == 0
        out = capsys.readouterr().out
        assert "2.00x  test_x" in out
        assert "geomean speedup: 2.000x" in out

    def test_regression_past_threshold_exits_1(self, tmp_path, capsys):
        from repro.bench import bench_main

        base = self._summary(tmp_path, "BENCH_a.json", {"test_x": 1.0e-4})
        new = self._summary(tmp_path, "BENCH_b.json", {"test_x": 1.2e-4})
        assert bench_main(["diff", new, base]) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "FAIL" in captured.err
        # A wider tolerance lets the same pair through.
        assert bench_main(["diff", new, base, "--max-regression", "25"]) == 0

    def test_single_shot_benchmarks_are_not_gated(self, tmp_path):
        from repro.bench import bench_main

        base = self._summary(
            tmp_path, "BENCH_a.json", {"test_shape": 1.0e-4}, rounds=1
        )
        slower = self._summary(
            tmp_path, "BENCH_b.json", {"test_shape": 9.0e-4}, rounds=1
        )
        # No well-sampled overlap at all is a usage error, not a pass.
        assert bench_main(["diff", slower, base]) == 2

    def test_unreadable_summary_exits_2(self, tmp_path, capsys):
        from repro.bench import bench_main

        good = self._summary(tmp_path, "BENCH_a.json", {"test_x": 1.0e-4})
        assert bench_main(["diff", good, str(tmp_path / "missing.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestAttacksCli:
    def test_list(self, capsys):
        assert attacks_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "data-bss-overflow" in out
        assert "unprotected" in out

    def test_single_attack(self, capsys):
        assert attacks_main(["--attack", "data-bss-overflow"]) == 0
        out = capsys.readouterr().out
        assert "SUCCEEDED" in out

    def test_single_attack_verbose(self, capsys):
        attacks_main(["--attack", "stack-local-overwrite", "--verbose"])
        out = capsys.readouterr().out
        assert "padding_above_stud" in out

    def test_attack_under_defense(self, capsys):
        assert (
            attacks_main(
                ["--attack", "overflow-via-construction", "--env", "checked-placement"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "DETECTED by bounds-check" in out

    def test_unknown_env_rejected(self, capsys):
        assert attacks_main(["--env", "fortress"]) == 2
        assert "unknown environment" in capsys.readouterr().err

    def test_unknown_attack_rejected(self, capsys):
        assert attacks_main(["--attack", "nope"]) == 2
        assert "no attack named" in capsys.readouterr().err

    def test_matrix_table(self, capsys):
        from repro.attacks import all_attacks
        from repro.matrix import attack_rows, run_sweep

        assert attacks_main(["--matrix"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [scenario.name for scenario in all_attacks()]
        # header, rule, one row per gallery attack, rule, totals
        assert len(lines) == len(names) + 4
        assert [line.split()[0] for line in lines[2:-2]] == names
        totals = lines[-1].split()
        assert totals[:2] == ["attacks", "succeeding"]
        report = run_sweep(rows=attack_rows())
        assert [int(count) for count in totals[2:]] == list(
            report["attacks_succeeding"].values()
        )


class TestAnalyzeCli:
    def test_corpus_default(self, capsys):
        assert analyze_main([]) == 0
        out = capsys.readouterr().out
        assert "PN-OVERSIZE" in out
        assert "listing11-data-bss" in out

    def test_legacy_comparison(self, capsys):
        analyze_main(["--legacy"])
        out = capsys.readouterr().out
        assert "legacy-strict" in out

    def test_file_argument(self, tmp_path, capsys):
        source = tmp_path / "vuln.cpp"
        source.write_text(
            "class A { public: double d; };\n"
            "class B : public A { public: int x[8]; };\n"
            "A arena;\n"
            "void f() { B *b = new (&arena) B(); }\n"
        )
        exit_code = analyze_main([str(source)])
        out = capsys.readouterr().out
        assert "PN-OVERSIZE" in out
        assert exit_code == 1  # findings on user files → nonzero

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        source = tmp_path / "fine.cpp"
        source.write_text("void f() { int x = 1; }\n")
        assert analyze_main([str(source)]) == 0

    def test_json_output_is_deterministic(self, capsys):
        import json

        analyze_main(["--json"])
        first = capsys.readouterr().out
        analyze_main(["--json"])
        second = capsys.readouterr().out
        assert first == second
        document = json.loads(first[: first.index("}\n{") + 1])
        assert list(document) == sorted(document)  # sorted keys

    def test_parallel_jobs_output_matches_sequential(self, capsys):
        assert analyze_main([]) == 0
        sequential = capsys.readouterr().out
        assert analyze_main(["--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == sequential

    def test_parallel_json_matches_sequential(self, capsys):
        analyze_main(["--json"])
        sequential = capsys.readouterr().out
        analyze_main(["--json", "--jobs", "4"])
        parallel = capsys.readouterr().out
        assert parallel == sequential

    def test_missing_file_exits_2(self, capsys):
        assert analyze_main(["/no/such/file.cpp"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_jobs_value_exits_2(self, capsys):
        assert analyze_main(["--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestExecCli:
    def test_missing_file_exits_2(self, capsys):
        from repro.cli import exec_main

        assert exec_main(["/no/such/file.cpp"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_args_exit_2(self, tmp_path, capsys):
        from repro.cli import exec_main

        source = tmp_path / "ok.cpp"
        source.write_text("int main(int a, char b) { return 0; }\n")
        assert exec_main([str(source), "--args", "1,zap"]) == 2
        assert "bad integer" in capsys.readouterr().err

    def test_runs_simple_program(self, tmp_path, capsys):
        from repro.cli import exec_main

        source = tmp_path / "ok.cpp"
        source.write_text("int main(int a, char b) { return 12; }\n")
        assert exec_main([str(source)]) == 0
        assert "returned 12" in capsys.readouterr().out


class TestServeCli:
    def test_bad_workers_exits_2(self, capsys):
        from repro.cli import serve_main

        assert serve_main(["--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_port_out_of_range_exits_2_before_building_the_engine(
        self, capsys, monkeypatch
    ):
        import repro.service
        from repro.cli import serve_main

        def no_engine(**kwargs):
            raise AssertionError("engine built for a port that cannot bind")

        monkeypatch.setattr(repro.service, "ServiceEngine", no_engine)
        assert serve_main(["--port", "70000"]) == 2
        assert "--port" in capsys.readouterr().err

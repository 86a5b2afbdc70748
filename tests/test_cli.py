"""Tests for the command-line front ends."""

from pathlib import Path

import pytest

from repro.cli import analyze_main, attacks_main


REPO_ROOT = Path(__file__).resolve().parent.parent

#: The committed sweep baseline: a JSON report of the wrong kind for
#: every command that loads a campaign or score report.
MATRIX_BASELINE = str(REPO_ROOT / "corpus" / "matrix" / "baseline.json")

#: Bytes no UTF-8 decoder accepts.
UNDECODABLE = b"\xff\xfe\x00bad"
UTF8_ERROR = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"

#: MiniC++ no parser accepts, and the stderr template of its refusal.
UNPARSABLE = "int main( {\n"
PARSE_ERROR = "error: {unparsable}: 1:11: expected identifier, got '{{'\n"


#: ``(entry point, argv, exact stderr)`` for one bad input each;
#: ``{undecodable}``, ``{unparsable}``, ``{program}``, ``{store}`` and
#: ``{baseline}`` name per-test paths.  Test ids are
#: ``<entry point>-argv<index>``: a new row goes at the end or in the
#: slot of a removed row, so existing ids stay put.
BAD_INPUTS = [
    (
        "repro.cli:attacks_main",
        ["--env", "no-such-env"],
        "error: unknown environment 'no-such-env' (choose from: "
        "unprotected, stackguard, checked-placement, shadow-memory, nx, "
        "sanitize-on-reuse, shadow-return-stack, vtable-integrity, vrt, "
        "memory-tagging)\n",
    ),
    (
        "repro.cli:analyze_main",
        ["/no/such/file.cpp"],
        "error: cannot read /no/such/file.cpp: No such file or directory\n",
    ),
    (
        "repro.cli:exec_main",
        ["/no/such/file.cpp"],
        "error: cannot read /no/such/file.cpp: No such file or directory\n",
    ),
    (
        "repro.cli:serve_main",
        ["--workers", "0"],
        "error: --workers must be >= 1\n",
    ),
    (
        "repro.cli:serve_main",
        ["--port", "70000"],
        "error: --port must be 0-65535, got 70000\n",
    ),
    (
        "repro.cli:fuzz_main",
        ["run", "--jobs", "-1"],
        "error: --jobs must be >= 0\n",
    ),
    (
        "repro.cli:matrix_main",
        ["run", "--jobs", "-1"],
        "error: --jobs must be >= 0\n",
    ),
    (
        "repro.cli:regress_main",
        ["list", "--store", "/no/such/store"],
        "error: no regression store at /no/such/store\n",
    ),
    (
        "repro.cli:score_main",
        ["rank", "/no/such/packages"],
        "error: no package directory at /no/such/packages\n",
    ),
    (
        "repro.cli:analyze_main",
        ["{program}", "--jobs", "0", "--cache-dir", "{store}"],
        "error: --jobs must be >= 1\n",
    ),
    (
        "repro.cli:fuzz_main",
        ["run", "--batch-size", "0"],
        "error: --batch-size must be >= 1\n",
    ),
    (
        "repro.cli:fuzz_main",
        ["run", "--max-corpus", "0"],
        "error: --max-corpus must be >= 1\n",
    ),
    (
        "repro.cli:matrix_main",
        [
            "run", "--jobs", "0", "--no-regress", "--defenses", "none",
            "--out", "/no/such/dir/r.json",
        ],
        "error: cannot write /no/such/dir/r.json: No such file or directory\n",
    ),
    (
        "repro.cli:score_main",
        ["rank", "--demo", "--top", "-1"],
        "error: --top must be >= 0\n",
    ),
    (
        "repro.cli:fuzz_main",
        ["run", "--jobs", "0", "--step-budget", "0"],
        "error: --step-budget must be >= 1\n",
    ),
    (
        "repro.cli:fuzz_main",
        ["run", "--jobs", "0", "--step-budget", "-5"],
        "error: --step-budget must be >= 1\n",
    ),
    (
        "repro.cli:fuzz_main",
        ["run", "--jobs", "0", "--iterations", "-3"],
        "error: --iterations must be >= 0\n",
    ),
    (
        "repro.cli:matrix_main",
        [
            "run", "--jobs", "0", "--no-regress", "--defenses", "none",
            "--step-budget", "0",
        ],
        "error: --step-budget must be >= 1\n",
    ),
    (
        "repro.cli:regress_main",
        ["record", "--store", "/no/such/store", "--step-budget", "0"],
        "error: --step-budget must be >= 1\n",
    ),
    (
        "repro.cli:serve_main",
        ["--port", "-1"],
        "error: --port must be 0-65535, got -1\n",
    ),
    (
        "repro.cli:fuzz_main",
        ["run", "--jobs", "0", "--stop-after", "-1"],
        "error: --stop-after must be >= 0\n",
    ),
    (
        "repro.cli:fuzz_main",
        ["run", "--jobs", "2", "--batch-timeout", "0"],
        "error: --batch-timeout must be > 0\n",
    ),
    (
        "repro.cli:fuzz_main",
        ["run", "--jobs", "2", "--batch-timeout", "-1"],
        "error: --batch-timeout must be > 0\n",
    ),
    # A source file no UTF-8 decoder accepts.
    (
        "repro.cli:analyze_main",
        ["{undecodable}"],
        f"error: cannot read {{undecodable}}: {UTF8_ERROR}\n",
    ),
    (
        "repro.cli:exec_main",
        ["{undecodable}"],
        f"error: cannot read {{undecodable}}: {UTF8_ERROR}\n",
    ),
    (
        "repro.cli:fuzz_main",
        ["minimize", "{undecodable}"],
        f"error: cannot read {{undecodable}}: {UTF8_ERROR}\n",
    ),
    (
        "repro.cli:regress_main",
        ["record", "--store", "{store}", "--source", "{undecodable}"],
        f"error: cannot read {{undecodable}}: {UTF8_ERROR}\n",
    ),
    # A JSON report of the wrong kind.
    (
        "repro.cli:fuzz_main",
        ["report", "{baseline}"],
        "error: {baseline} is not a campaign report\n",
    ),
    (
        "repro.cli:fuzz_main",
        ["triage", "{baseline}"],
        "error: {baseline} is not a campaign report\n",
    ),
    (
        "repro.cli:regress_main",
        ["record", "--store", "{store}", "--from-report", "{baseline}"],
        "error: {baseline} is not a campaign report\n",
    ),
    (
        "repro.cli:score_main",
        ["diff", "{baseline}", "{baseline}"],
        "error: {baseline} is not a score report\n",
    ),
    # A source file that does not parse, or names no such entry.
    (
        "repro.cli:analyze_main",
        ["{unparsable}"],
        PARSE_ERROR,
    ),
    (
        "repro.cli:analyze_main",
        ["{unparsable}", "--jobs", "2"],
        PARSE_ERROR,
    ),
    (
        "repro.cli:analyze_main",
        ["--json", "{program}", "{unparsable}", "--jobs", "2"],
        PARSE_ERROR,
    ),
    (
        "repro.cli:exec_main",
        ["{unparsable}"],
        PARSE_ERROR,
    ),
    (
        "repro.cli:exec_main",
        ["{program}", "--entry", "nosuch"],
        "error: {program}: no function 'nosuch'\n",
    ),
]


#: Small MiniC++ programs for ``repro-exec``; the others come from the
#: paper corpus by key (see :func:`exec_program`).
EXEC_SOURCES = {
    "placement-overflow": (
        "class A { public: int x; };\n"
        "class B : public A { public: int y[4]; };\n"
        "A arena;\n"
        "int main(int argc, char **argv) {\n"
        "  B *b = new (&arena) B();\n"
        "  b->y[3] = 7;\n"
        "  cout << b->y[3];\n"
        "  return 3;\n"
        "}\n"
    ),
    "null-write": (
        "int main(int a, char b) {\n"
        "  int *p = 0;\n"
        "  *p = 5;\n"
        "  return 0;\n"
        "}\n"
    ),
}

#: Listing 13 with ``isGradStudent`` set: the second SSN lands on the
#: return slot, and 0x08048010 is the simulated ``system()`` entry.
HIJACK_ARGV = ["--entry", "addStudent", "--args", "1", "--stdin", "1,0x08048010,3"]

#: ``(program, argv, exit status, exact stdout)`` for ``repro-exec``.
EXEC_CASES = [
    (
        "listing13-stack-return",
        HIJACK_ARGV,
        0,
        "addStudent() returned None after 54 steps\n"
        "!! control-flow hijack: returned to 0x08048010\n"
        "placement: GradStudent (32B) at 0xbffffee0 arena 16B OVERFLOW\n"
        "event: system() invoked\n",
    ),
    (
        "placement-overflow",
        [],
        0,
        "main() returned 3 after 13 steps\n"
        "stdout: 7\n"
        "placement: B (20B) at 0x08050000 arena 4B OVERFLOW\n",
    ),
    (
        "null-write",
        [],
        1,
        "simulated process died: segmentation fault: invalid write at "
        "0x00000000 (address is unmapped)\n",
    ),
    (
        "listing13-stack-return",
        HIJACK_ARGV + ["--canary"],
        1,
        "simulated process died: *** stack smashing detected ***: "
        "addStudent terminated (canary 0x00000001 != 0x9e250d00)\n",
    ),
]


def exec_program(name: str) -> str:
    """The source of an :data:`EXEC_SOURCES` program or corpus listing."""
    from repro.workloads.corpus import FULL_CORPUS

    if name in EXEC_SOURCES:
        return EXEC_SOURCES[name]
    return next(program.source for program in FULL_CORPUS if program.key == name)


class TestSharedExitConvention:
    """Every front end exits 2 (EX_USAGE) on bad input, with one
    ``error: <message>`` line on stderr."""

    @pytest.mark.parametrize(
        ("entry_point", "argv", "stderr"),
        BAD_INPUTS,
        ids=[f"{row[0]}-argv{index}" for index, row in enumerate(BAD_INPUTS)],
    )
    def test_bad_input_exits_2(self, entry_point, argv, stderr, tmp_path, capsys):
        import importlib

        undecodable = tmp_path / "undecodable.cpp"
        undecodable.write_bytes(UNDECODABLE)
        unparsable = tmp_path / "unparsable.cpp"
        unparsable.write_text(UNPARSABLE)
        program = tmp_path / "program.cpp"
        program.write_text("int main(int a, char b) { return 0; }\n")
        paths = {
            "undecodable": str(undecodable),
            "unparsable": str(unparsable),
            "program": str(program),
            "store": str(tmp_path / "store"),
            "baseline": MATRIX_BASELINE,
        }
        module_name, function_name = entry_point.split(":")
        main = getattr(importlib.import_module(module_name), function_name)
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert capsys.readouterr().err == stderr.format(**paths)

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


class TestUndecodableSource:
    """A source file that is not UTF-8 is bad input, not a crash."""

    @pytest.mark.parametrize(
        ("entry_point", "argv"),
        [
            ("analyze_main", ["{source}"]),
            ("exec_main", ["{source}"]),
            ("fuzz_main", ["minimize", "{source}"]),
            ("regress_main", ["record", "--store", "{store}", "--source", "{source}"]),
        ],
    )
    def test_exits_2_without_a_traceback(
        self, entry_point, argv, tmp_path, capsys
    ):
        import repro.cli

        source = tmp_path / "undecodable.cpp"
        source.write_bytes(UNDECODABLE)
        paths = {"source": str(source), "store": str(tmp_path / "store")}
        main = getattr(repro.cli, entry_point)
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {source}: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


class TestWrongKindReport:
    """A JSON document without a report's required keys is refused with
    ``<path> is not a <noun>`` and exit 2."""

    @staticmethod
    def _campaign_report(tmp_path):
        from repro.fuzz import CampaignReport

        path = tmp_path / "campaign.json"
        path.write_text(CampaignReport(seed=7, iterations=0).to_json())
        return str(path)

    @pytest.mark.parametrize(
        ("entry_point", "argv"),
        [
            ("fuzz_main", ["report"]),
            ("fuzz_main", ["triage"]),
            ("regress_main", ["record", "--store", "{store}", "--from-report"]),
        ],
    )
    def test_a_sweep_report_is_not_a_campaign_report(
        self, entry_point, argv, tmp_path, capsys
    ):
        import repro.cli

        main = getattr(repro.cli, entry_point)
        argv = [arg.format(store=tmp_path / "store") for arg in argv]
        assert main(argv + [MATRIX_BASELINE]) == 2
        assert capsys.readouterr().err == (
            f"error: {MATRIX_BASELINE} is not a campaign report\n"
        )

    def test_triage_leaves_the_refused_file_untouched(self, tmp_path, capsys):
        from repro.cli import fuzz_main

        sweep = tmp_path / "sweep.json"
        sweep.write_bytes(Path(MATRIX_BASELINE).read_bytes())
        argv = ["triage", str(sweep), "--fingerprint", "ffff", "--note", "x"]
        assert fuzz_main(argv) == 2
        assert capsys.readouterr().err == f"error: {sweep} is not a campaign report\n"
        assert sweep.read_bytes() == Path(MATRIX_BASELINE).read_bytes()

    def test_campaign_report_still_loads(self, tmp_path, capsys):
        from repro.cli import fuzz_main

        assert fuzz_main(["report", self._campaign_report(tmp_path)]) == 0
        assert "campaign seed=7" in capsys.readouterr().out

    @pytest.mark.parametrize("refused", ["before", "after"])
    def test_score_diff_refuses_non_score_reports(self, refused, tmp_path, capsys):
        from repro.cli import score_main

        paths = {"before": self._campaign_report(tmp_path), "after": MATRIX_BASELINE}
        if refused == "after":
            score_main(["rank", "--demo", "--json", "--out", str(tmp_path / "s.json")])
            capsys.readouterr()
            paths["before"] = str(tmp_path / "s.json")
        assert score_main(["diff", paths["before"], paths["after"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {paths[refused]} is not a score report\n"

    def test_a_list_is_not_a_sweep_report(self, tmp_path, capsys):
        from repro.cli import matrix_main

        path = tmp_path / "list.json"
        path.write_text("[]")
        assert matrix_main(["report", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path} is not a matrix sweep report\n"


class TestInterruptedEntryPoints:
    """A hard Ctrl-C exits 130 with ``<prog>: interrupted`` everywhere."""

    @pytest.mark.parametrize(
        ("entry_point", "handler", "argv", "prog"),
        [
            ("attacks_main", "_attacks_run", [], "attacks"),
            ("analyze_main", "_analyze_run", [], "analyze"),
            ("exec_main", "_exec_run", ["prog.cpp"], "exec"),
            ("serve_main", "_serve_run", [], "serve"),
        ],
    )
    def test_keyboard_interrupt_exits_130(
        self, entry_point, handler, argv, prog, capsys, monkeypatch
    ):
        import repro.cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(f"repro.cli.{handler}", interrupted)
        assert getattr(repro.cli, entry_point)(argv) == 130
        captured = capsys.readouterr()
        assert captured.err == f"{prog}: interrupted\n"


class TestPooledJobFailure:
    """A job that fails, inline or on the thread backend, exits 1 with
    one error line, writes no report, and prints no traceback."""

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
            (
                "matrix-cell",
                "matrix_main",
                ["run", "--jobs", "0", "--no-regress", "--defenses", "none", "--out"],
            ),
            ("score", "score_main", ["rank", "--jobs", "0", "--demo", "--out"]),
            ("score", "score_main", ["score", "--jobs", "0", "--demo"]),
        ],
    )
    def test_failed_job_exits_1_without_a_report(
        self, kind, entry_point, argv, tmp_path, capsys, monkeypatch
    ):
        import repro.cli

        def crash(*args):
            raise RuntimeError("worker crashed")

        # the batch paths look their function up when they run, so patching
        # the module attribute reaches the pool
        target = {
            "matrix-cell": "repro.matrix.sweep.evaluate_cell",
            "score": "repro.score.propagate.analyze_package_source",
        }[kind]
        monkeypatch.setattr(target, crash)
        out = tmp_path / "report.json"
        if argv[-1] == "--out":
            argv = argv + [str(out)]
        if "--jobs" not in argv:
            argv = argv + ["--jobs", "2", "--backend", "thread"]
        main = getattr(repro.cli, entry_point)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {kind} job failed: ")
        assert "worker crashed" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()


class TestThreadBackendRunsInline:
    """On the thread backend a batch runs in the calling thread whatever
    ``--jobs`` says: its units are GIL-bound, so worker threads would
    only take turns at them."""

    @pytest.mark.parametrize(
        ("entry_point", "target", "argv"),
        [
            (
                "fuzz_main",
                "repro.fuzz.campaign.run_batch",
                ["run", "--seed", "3", "--iterations", "8", "--batch-size", "4",
                 "--no-minimize"],
            ),
            (
                "matrix_main",
                "repro.matrix.sweep.evaluate_cell",
                ["run", "--no-regress", "--defenses", "none"],
            ),
            (
                "regress_main",
                "repro.regress.replay.replay_chunk",
                ["replay", "--store", str(REPO_ROOT / "corpus" / "regress")],
            ),
            (
                "score_main",
                "repro.score.propagate.analyze_package_source",
                ["rank", "--demo"],
            ),
        ],
    )
    def test_every_unit_runs_on_the_calling_thread(
        self, entry_point, target, argv, tmp_path, monkeypatch
    ):
        import importlib
        import threading

        import repro.cli

        module_name, attribute = target.rsplit(".", 1)
        original = getattr(importlib.import_module(module_name), attribute)
        threads = []

        def recording(*args):
            threads.append(threading.get_ident())
            return original(*args)

        monkeypatch.setattr(target, recording)
        out = tmp_path / "report.json"
        main = getattr(repro.cli, entry_point)
        assert main(argv + ["--jobs", "2", "--out", str(out)]) == 0
        assert out.exists()
        assert threads
        assert set(threads) == {threading.get_ident()}


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

    @pytest.mark.parametrize(
        "env", ["vrt", "memory-tagging", "vtable-integrity", "shadow-memory"]
    )
    def test_armed_gallery_leaves_the_collector_no_more_than_unprotected(
        self, env, capsys
    ):
        """Every scenario disarms the machines it built, so an armed
        gallery pass frees them by reference counting."""
        import gc

        def garbage(label):
            gc.collect()
            gc.disable()
            try:
                assert attacks_main(["--env", label]) == 0
                return gc.collect()
            finally:
                gc.enable()

        garbage(env)  # first-use imports and caches
        assert garbage(env) <= garbage("unprotected")

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

    def test_json_legacy_prints_the_legacy_reports(self, capsys):
        """``--json --legacy`` prints each file's legacy reports after its
        detector report, in the order the text path renders them, and
        leaves the detector reports as ``--json`` alone prints them."""
        import json
        import re

        def documents(out):
            decoder, index, found = json.JSONDecoder(), 0, []
            while index < len(out):
                document, index = decoder.raw_decode(out, index)
                found.append(document)
                index += 1  # the newline after each document
            return found

        assert analyze_main(["--json"]) == 0
        plain = documents(capsys.readouterr().out)
        assert analyze_main(["--json", "--legacy"]) == 0
        legacy = documents(capsys.readouterr().out)
        assert analyze_main(["--legacy"]) == 0
        text_tools = re.findall(
            r"^(\S+): (?:no findings|\d+ finding\(s\))$", capsys.readouterr().out, re.MULTILINE
        )

        plain_tools = {document["tool"] for document in plain}
        legacy_only = {document["tool"] for document in legacy} - plain_tools
        assert legacy_only == {"legacy-strict", "legacy-audit", "legacy-grep"}
        assert [document["tool"] for document in legacy[1:]] == text_tools
        assert [d for d in legacy if d["tool"] not in legacy_only] == plain

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

    def test_cache_dir_at_one_job_serves_the_warm_run(self, tmp_path, capsys, monkeypatch):
        """``--cache-dir`` works at the default ``--jobs 1``: the cold run
        analyzes every file, the warm run none, and both print the
        uncached report."""
        from repro.service import workers
        from repro.workloads.corpus import FULL_CORPUS

        assert analyze_main(["--json"]) == 0
        uncached = capsys.readouterr().out
        calls = []
        run_analyze = workers.run_analyze
        monkeypatch.setattr(
            workers, "run_analyze", lambda payload: calls.append(1) or run_analyze(payload)
        )
        argv = ["--json", "--jobs", "1", "--cache-dir", str(tmp_path / "cache")]
        assert analyze_main(argv) == 0
        assert capsys.readouterr().out == uncached
        assert len(calls) == len(FULL_CORPUS)
        calls.clear()
        assert analyze_main(argv) == 0
        assert capsys.readouterr().out == uncached
        assert calls == []

    def test_cache_dir_written_by_the_service_is_warm(self, tmp_path, capsys, monkeypatch):
        """The cache keys are the service's job keys: a directory a
        ``ServiceEngine`` sweep wrote serves every file, legacy reports
        included."""
        from repro.service import ServiceEngine, workers

        cache_dir = str(tmp_path / "cache")
        with ServiceEngine(workers=2, cache_dir=cache_dir) as engine:
            engine.corpus_sweep(legacy=True)
        assert analyze_main(["--legacy"]) == 0
        uncached = capsys.readouterr().out

        def recompute(payload):
            raise AssertionError(f"recomputed {payload['label']}")

        monkeypatch.setattr(workers, "run_analyze", recompute)
        assert analyze_main(["--legacy", "--jobs", "2", "--cache-dir", cache_dir]) == 0
        assert capsys.readouterr().out == uncached

    def test_missing_file_exits_2(self, capsys):
        assert analyze_main(["/no/such/file.cpp"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_jobs_value_exits_2(self, capsys):
        assert analyze_main(["--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_octal_literal_exits_2(self, tmp_path, capsys):
        source = tmp_path / "octal.cpp"
        source.write_text("int main() { int x = 010; return x; }\n")
        assert analyze_main([str(source)]) == 2
        assert "1:22: invalid integer literal '010'" in capsys.readouterr().err


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

    def test_octal_literal_exits_2(self, tmp_path, capsys):
        from repro.cli import exec_main

        source = tmp_path / "octal.cpp"
        source.write_text("int main() { int x = 010; return x; }\n")
        assert exec_main([str(source)]) == 2
        assert "1:22: invalid integer literal '010'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("body", "argv", "reason"),
        [
            ("return g(a);", [], "unknown function 'g'"),
            ("return y;", [], "undefined variable 'y'"),
            ("int x; cin >> x; return x;", [], "simulated stdin exhausted"),
        ],
        ids=["undefined-function", "undefined-variable", "stdin-exhausted"],
    )
    def test_refused_program_exits_2(self, body, argv, reason, tmp_path, capsys):
        from repro.cli import exec_main

        source = tmp_path / "refused.cpp"
        source.write_text(f"int main(int a, int b) {{ {body} }}\n")
        assert exec_main([str(source)] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {source}: {reason}\n"

    @pytest.mark.parametrize(
        ("op", "operation"),
        [("/", "integer division"), ("%", "integer modulo")],
        ids=["divide", "modulo"],
    )
    def test_zero_divisor_is_a_simulated_death(self, op, operation, tmp_path, capsys):
        from repro.cli import exec_main

        source = tmp_path / "sigfpe.cpp"
        source.write_text(f"int main(int a, int b) {{ return a {op} b; }}\n")
        assert exec_main([str(source)]) == 1
        captured = capsys.readouterr()
        assert captured.out == (
            f"simulated process died: arithmetic fault (SIGFPE): {operation} by zero\n"
        )
        assert captured.err == ""

    def test_float_stdin_token_reads_into_a_double(self, tmp_path, capsys):
        from repro.cli import exec_main

        source = tmp_path / "gpa.cpp"
        source.write_text(
            "int main(int a, int b) "
            "{ double gpa; int n; cin >> gpa >> n; cout << gpa * n; return n; }\n"
        )
        assert exec_main([str(source), "--stdin", "2.5,0x3"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "main() returned 3 after 9 steps\nstdout: 7.5\n"
        assert captured.err == ""

    def test_runs_simple_program(self, tmp_path, capsys):
        from repro.cli import exec_main

        source = tmp_path / "ok.cpp"
        source.write_text("int main(int a, char b) { return 12; }\n")
        assert exec_main([str(source)]) == 0
        assert "returned 12" in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("program", "argv", "status", "stdout"),
        EXEC_CASES,
        ids=[case[0] + "-" + "-".join(case[1]) for case in EXEC_CASES],
    )
    def test_stdout_is_pinned(self, program, argv, status, stdout, tmp_path, capsys):
        from repro.cli import exec_main

        source = tmp_path / "prog.cpp"
        source.write_text(exec_program(program))
        assert exec_main([str(source)] + argv) == status
        assert capsys.readouterr().out == stdout


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

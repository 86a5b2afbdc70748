"""Tests for campaign orchestration, the service wiring, and the CLI."""

import json

from repro.cli import fuzz_main
from repro.fuzz import (
    CampaignReport,
    Divergence,
    DifferentialFuzzer,
    FuzzConfig,
    FuzzInput,
    auto_triage,
    batch_rng,
    run_batch,
    run_campaign,
)
from repro.service import WorkerPool
from repro.service.jobs import FuzzCampaignJob
from repro.service.workers import WORKER_REGISTRY


def _crash(payload):
    raise RuntimeError("batch worker crashed")


class TestSequentialCampaign:
    def test_small_campaign_deterministic(self):
        config = FuzzConfig(seed=11, iterations=30, minimize=False)
        a = run_campaign(config)
        b = run_campaign(config)
        assert a.to_json() == b.to_json()

    def test_seeds_reach_both_oracles(self):
        report = run_campaign(FuzzConfig(seed=3, iterations=0, minimize=False))
        assert set(report.families) == {
            "direct",
            "helper",
            "guarded",
            "tainted-array",
            "leak",
            "dos-loop",
            "taint-source",
        }
        for family, reach in report.families.items():
            assert reach["static"], f"{family} never tripped the detector"
            assert reach["dynamic"], f"{family} never tripped the simulator"

    def test_all_divergences_triaged(self):
        report = run_campaign(FuzzConfig(seed=3, iterations=60, minimize=False))
        assert report.untriaged == []

    def test_counts_add_up(self):
        report = run_campaign(FuzzConfig(seed=5, iterations=40, minimize=False))
        assert report.execs >= report.seeds
        assert report.execs + report.mutants_discarded >= 40
        assert report.corpus_size >= report.seeds - report.invalid
        assert 0.0 <= report.divergence_rate <= 1.0


class TestBatchWorker:
    def test_fuzz_campaign_job_registered(self):
        assert FuzzCampaignJob.KIND in WORKER_REGISTRY
        assert not FuzzCampaignJob.CACHEABLE

    def test_job_payload_is_canonical_jsonable(self):
        job = FuzzCampaignJob(
            seed=1,
            round=0,
            batch=2,
            iterations=10,
            corpus=(("void run() { }", (), "corpus", ""),),
            coverage=("rule:PN-LEAK",),
        )
        # key() canonical-JSON-encodes the payload; must not raise and
        # must be stable.
        assert job.key() == FuzzCampaignJob(**job.payload()).key()

    def test_run_batch_reports_only_deltas(self):
        fuzzer = DifferentialFuzzer(FuzzConfig(seed=2, iterations=0))
        fuzzer.run_seeds()
        payload = {
            "seed": 2,
            "round": 0,
            "batch": 0,
            "iterations": 20,
            "corpus": [
                (inp.source, inp.stdin, inp.family, inp.label)
                for inp in fuzzer.corpus
            ],
            "coverage": list(fuzzer.coverage.sorted_keys()),
        }
        result = run_batch(payload)
        assert result["execs"] + result["discarded"] == 20
        baseline = set(payload["coverage"])
        for key in result["new_coverage"]:
            assert key not in baseline

    def test_batch_rng_distinct_per_coordinates(self):
        a = batch_rng(1, 0, 0).random()
        b = batch_rng(1, 0, 1).random()
        c = batch_rng(1, 1, 0).random()
        assert len({a, b, c}) == 3


class TestServiceCampaign:
    def test_acceptance_500_execs_byte_identical(self, tmp_path):
        """The PR's acceptance gate: a fixed-seed campaign pushing 500+
        generated programs through the service worker pool produces a
        byte-identical report across two runs, every labeled-vulnerable
        family reaches both oracles, nothing is left un-triaged, every
        divergence is auto-recorded as a regression bundle, and an
        immediate replay of that corpus is green and deterministic for
        any worker count."""
        from repro.regress import RegressionStore, replay_store

        def one_run(workers, store=None):
            with WorkerPool(workers) as pool:
                return run_campaign(
                    FuzzConfig(seed=7, iterations=650, minimize=False),
                    pool=pool,
                    batch_size=60,
                    store=store,
                )

        store = RegressionStore(tmp_path / "store")
        first = one_run(4, store=store)
        # The batch partition is fixed (BATCHES_PER_ROUND), never derived
        # from the pool — so even a different worker count must reproduce
        # the report byte for byte.
        second = one_run(2)
        assert first.execs >= 500
        assert first.to_json() == second.to_json()
        assert first.untriaged == []
        for family, reach in first.families.items():
            assert reach["static"] and reach["dynamic"], family
        # Auto-record: one bundle per divergence; immediate replay green
        # and byte-identical whether sequential or fanned out.
        assert len(store) == len(first.divergences)
        sequential = replay_store(store)
        assert sequential.clean, sequential.render()
        for workers in (1, 2, 4):
            with WorkerPool(workers) as pool:
                fanned = replay_store(store, pool=pool)
            assert fanned.to_json() == sequential.to_json(), workers

    def test_batch_failure_is_counted_not_fatal(self, monkeypatch):
        monkeypatch.setitem(WORKER_REGISTRY, "fuzz-campaign", _crash)
        with WorkerPool(2) as pool:
            report = run_campaign(
                FuzzConfig(seed=4, iterations=40, minimize=False), pool=pool
            )
        assert report.batches_failed > 0
        # Seeds still ran locally; the report stays coherent.
        assert report.execs >= report.seeds

    def test_failed_batches_account_lost_iterations(self, monkeypatch):
        """Every iteration a crashed batch would have run is reported as
        lost — an "N iterations" claim must stay honest."""
        monkeypatch.setitem(WORKER_REGISTRY, "fuzz-campaign", _crash)
        with WorkerPool(2) as pool:
            report = run_campaign(
                FuzzConfig(seed=4, iterations=40, minimize=False), pool=pool
            )
        assert report.batches_failed > 0
        assert report.iterations_lost == 40  # every batch crashed
        assert "never executed" in report.render()
        restored = CampaignReport.from_dict(json.loads(report.to_json()))
        assert restored.iterations_lost == 40
        assert restored.batches_failed == report.batches_failed

    def test_healthy_campaign_loses_nothing(self):
        with WorkerPool(2) as pool:
            report = run_campaign(
                FuzzConfig(seed=4, iterations=40, minimize=False), pool=pool
            )
        assert report.iterations_lost == 0
        assert "never executed" not in report.render()


class TestCorpusSaturation:
    def seeded(self, max_corpus, protected=2):
        fuzzer = DifferentialFuzzer(FuzzConfig(seed=1, max_corpus=max_corpus))
        for index in range(protected):
            assert fuzzer.add_corpus(
                FuzzInput(f"void run() {{ int s{index} = 0; }}", (), "f"),
                protected=True,
            )
        return fuzzer

    def test_saturation_evicts_oldest_unprotected(self):
        fuzzer = self.seeded(max_corpus=3)
        first = FuzzInput("void run() { int a = 0; }", ())
        second = FuzzInput("void run() { int b = 0; }", ())
        assert fuzzer.add_corpus(first)
        # Full now: the next coverage-growing input must still enter,
        # displacing the oldest non-seed entry.
        assert fuzzer.add_corpus(second)
        assert fuzzer.saturations == 1
        assert [inp.key() for inp in fuzzer.corpus][-1] == second.key()
        assert first.key() not in {inp.key() for inp in fuzzer.corpus}
        assert len(fuzzer.corpus) == 3

    def test_current_members_are_deduplicated(self):
        fuzzer = self.seeded(max_corpus=3)
        entry = FuzzInput("void run() { int a = 0; }", ())
        assert fuzzer.add_corpus(entry)
        assert not fuzzer.add_corpus(entry)

    def test_all_seed_cap_is_not_evictable(self):
        fuzzer = self.seeded(max_corpus=2)
        assert not fuzzer.add_corpus(FuzzInput("void run() { int a = 0; }", ()))
        assert fuzzer.saturations == 1
        assert len(fuzzer.corpus) == 2

    def test_saturated_campaign_still_promotes_and_stays_deterministic(self):
        """The bugfix's acceptance: with a tight corpus cap the campaign
        keeps promoting (evicting deterministically) and the report is
        still byte-identical across worker counts."""

        def one_run(workers):
            with WorkerPool(workers) as pool:
                return run_campaign(
                    FuzzConfig(
                        seed=7, iterations=300, minimize=False, max_corpus=28
                    ),
                    pool=pool,
                    batch_size=60,
                )

        first = one_run(4)
        second = one_run(2)
        assert first.corpus_saturated > 0
        assert first.corpus_size == 28
        assert first.to_json() == second.to_json()


class TestReportAndTriage:
    def test_report_json_roundtrip(self):
        report = run_campaign(FuzzConfig(seed=9, iterations=30, minimize=False))
        restored = CampaignReport.from_dict(json.loads(report.to_json()))
        assert restored.to_json() == report.to_json()

    def test_render_mentions_every_divergence(self):
        report = run_campaign(FuzzConfig(seed=9, iterations=30, minimize=False))
        text = report.render()
        for div in report.divergences:
            assert div.fingerprint in text

    def test_manual_triage_wins_over_auto(self):
        div = Divergence(
            fingerprint="abc",
            kind="static-only",
            static_rules=("PN-TAINTED-COUNT",),
            dynamic_events=(),
            family="f",
            entry="run",
            source="void run() { }",
            stdin=(),
            triage="manual: reviewed",
        )
        assert auto_triage(div).triage == "manual: reviewed"

    def test_occurrences_merge_on_duplicate_fingerprint(self):
        config = FuzzConfig(seed=13, iterations=0)
        fuzzer = DifferentialFuzzer(config)
        fuzzer.run_seeds()
        total = sum(d.occurrences for d in fuzzer.divergences.values())
        assert total >= len(fuzzer.divergences)


class TestFuzzCli:
    def test_run_writes_report_and_gates(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = fuzz_main(
            [
                "run",
                "--seed",
                "3",
                "--iterations",
                "40",
                "--jobs",
                "0",
                "--no-minimize",
                "--out",
                str(out),
                "--fail-on-untriaged",
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == 2
        assert data["untriaged"] == 0
        rendered = capsys.readouterr().out
        assert "family reach" in rendered

    def test_report_bytes_do_not_depend_on_jobs_or_backend(self, tmp_path):
        # Minimization stays on: the minimizer's candidates go through the
        # same per-process AST cache as the campaign's own parses.
        reports = []
        for pool in (
            ["--jobs", "0"],
            ["--jobs", "2"],
            ["--jobs", "2", "--backend", "process"],
        ):
            out = tmp_path / f"report-{len(reports)}.json"
            argv = ["run", "--seed", "7", "--iterations", "40", "--out", str(out)]
            assert fuzz_main(argv + pool) == 0
            reports.append(out.read_bytes())
        assert json.loads(reports[0])["divergences"]
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]

    def test_report_rerenders_saved_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        fuzz_main(
            ["run", "--seed", "3", "--iterations", "20", "--jobs", "0",
             "--no-minimize", "--out", str(out)]
        )
        capsys.readouterr()
        assert fuzz_main(["report", str(out)]) == 0
        assert "campaign seed=3" in capsys.readouterr().out

    def test_triage_marks_fingerprint(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        fuzz_main(
            ["run", "--seed", "3", "--iterations", "40", "--jobs", "0",
             "--no-minimize", "--out", str(out)]
        )
        data = json.loads(out.read_text())
        assert data["divergences"], "campaign found no divergences to triage"
        fingerprint = data["divergences"][0]["fingerprint"]
        capsys.readouterr()
        code = fuzz_main(
            ["triage", str(out), "--fingerprint", fingerprint,
             "--note", "reviewed by hand"]
        )
        assert code == 0
        updated = json.loads(out.read_text())
        entry = next(
            d for d in updated["divergences"]
            if d["fingerprint"] == fingerprint
        )
        assert entry["status"] == "known-benign"
        assert "reviewed by hand" in entry["triage"]

    def test_triage_unknown_fingerprint_is_usage_error(self, tmp_path):
        out = tmp_path / "report.json"
        fuzz_main(
            ["run", "--seed", "3", "--iterations", "10", "--jobs", "0",
             "--no-minimize", "--out", str(out)]
        )
        code = fuzz_main(
            ["triage", str(out), "--fingerprint", "ffffffffffffffff",
             "--note", "x"]
        )
        assert code == 2

    def test_minimize_subcommand(self, tmp_path, capsys):
        source = tmp_path / "diverge.mc"
        source.write_text(
            "char pool[64];\n"
            "void run() {\n"
            "  int n = 0;\n"
            "  int waste = 9;\n"
            "  cin >> n;\n"
            "  char* p = new (pool) char[n];\n"
            "}\n"
        )
        code = fuzz_main(["minimize", str(source), "--stdin", "8,9"])
        assert code == 0
        output = capsys.readouterr().out
        assert "static-only" in output
        assert "waste" not in output.split("minimized source:")[1]

    def test_minimize_on_agreeing_input_reports_none(self, tmp_path, capsys):
        source = tmp_path / "agree.mc"
        source.write_text("void run() { int x = 1; }\n")
        assert fuzz_main(["minimize", str(source)]) == 1
        assert "no divergence" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, tmp_path):
        assert fuzz_main(["report", str(tmp_path / "absent.json")]) == 2
        assert fuzz_main(["minimize", str(tmp_path / "absent.mc")]) == 2

"""Tests for regression replay, rebaseline, the service fan-out, and
the repro-regress CLI (repro.regress.replay + repro.cli)."""

import json

import pytest

from repro.cli import matrix_main, regress_main
from repro.fuzz import FuzzConfig, run_campaign
from repro.regress import (
    BUNDLE_SCHEMA,
    RegressionBundle,
    RegressionStore,
    rebaseline_store,
    replay_bundle,
    replay_bundle_json,
    replay_store,
)
from repro.service import WorkerPool

from .test_regress_store import AGREEING, DIVERGING, make_bundle


def seeded_store(tmp_path, count=3):
    """A store with ``count`` distinct diverging bundles."""
    store = RegressionStore(tmp_path / "store")
    for index in range(count):
        store.record(make_bundle(stdin=(8 + index,)))
    return store


class TestReplayBundle:
    def test_green_replay(self):
        result = replay_bundle(make_bundle())
        assert result.ok and result.status == "ok"
        assert result.expected["kind"] == result.observed["kind"]

    def test_agreement_bundle_replays_ok(self):
        assert replay_bundle(make_bundle(source=AGREEING, stdin=())).ok

    def test_verdict_drift(self):
        bundle = make_bundle()
        bundle.expected_kind = "agree"
        bundle.expected_fingerprint = ""
        result = replay_bundle(bundle)
        assert result.status == "verdict-drift"
        assert "kind" in result.detail

    def test_triage_drift(self):
        bundle = make_bundle()
        bundle.triage = "wild-pointer: pretend this was the old label"
        result = replay_bundle(bundle)
        assert result.status == "triage-drift"
        assert "wild-pointer" in result.detail

    def test_manual_triage_is_sticky(self):
        bundle = make_bundle(triage="manual: reviewed by hand")
        assert replay_bundle(bundle).ok

    def test_stale_version_is_a_failure_not_a_skip(self):
        bundle = make_bundle()
        bundle.versions = dict(bundle.versions, detector="0")
        result = replay_bundle(bundle)
        assert result.status == "stale-version"
        assert "rebaseline" in result.detail
        # The escape hatch compares verdicts across versions.
        assert replay_bundle(bundle, check_versions=False).ok

    def test_expected_invalid_replays_ok(self):
        bundle = make_bundle(source="@@ not a program", stdin=())
        assert bundle.expected_kind == "invalid"
        assert replay_bundle(bundle).ok

    def test_unjudgeable_input_is_invalid_run(self):
        bundle = make_bundle()
        bundle.source = "@@ not a program"
        result = replay_bundle(bundle)
        assert result.status == "invalid-run"

    def test_replay_bundle_json_rejects_garbage(self):
        result = replay_bundle_json("not json at all")
        assert result["status"] == "invalid-run"
        result = replay_bundle_json(json.dumps({"schema": 99, "id": "rb-x"}))
        assert result["status"] == "invalid-run"
        assert result["bundle_id"] == "rb-x"


class TestReplayStore:
    def test_clean_store_replays_green(self, tmp_path):
        store = seeded_store(tmp_path)
        report = replay_store(store)
        assert report.clean
        assert report.counts() == {"ok": len(store)}

    def test_drift_report_is_byte_stable_and_sorted(self, tmp_path):
        store = seeded_store(tmp_path)
        a, b = replay_store(store), replay_store(store)
        assert a.to_json() == b.to_json()
        ids = [r["bundle_id"] for r in a.to_dict()["results"]]
        assert ids == sorted(ids)

    def test_rebaseline_clears_drift(self, tmp_path):
        store = seeded_store(tmp_path, count=2)
        drifted_id = store.ids()[0]
        bundle = store.load(drifted_id)
        bundle.expected_kind = "agree"
        bundle.expected_fingerprint = ""
        store.record(bundle, overwrite=True)
        assert not replay_store(store).clean

        outcome = rebaseline_store(store)
        assert outcome["updated"] == [drifted_id]
        assert not outcome["failed"]
        assert replay_store(store).clean

    def test_rebaseline_after_version_bump(self, tmp_path):
        store = seeded_store(tmp_path, count=1)
        bundle = store.load(store.ids()[0])
        bundle.versions = dict(bundle.versions, detector="0")
        store.record(bundle, overwrite=True)
        assert replay_store(store).counts() == {"stale-version": 1}
        rebaseline_store(store)
        assert replay_store(store).clean

    def test_rebaseline_keeps_manual_triage(self, tmp_path):
        store = RegressionStore(tmp_path / "store")
        bundle_id, _ = store.record(make_bundle(triage="manual: reviewed"))
        rebaseline_store(store)
        assert store.load(bundle_id).triage == "manual: reviewed"

    def test_rebaseline_refuses_unjudgeable_input(self, tmp_path):
        store = seeded_store(tmp_path, count=1)
        bundle_id = store.ids()[0]
        document = json.loads(store.path_for(bundle_id).read_text())
        document["source"] = "@@ not a program"
        # keep the content address honest for the tampered source
        tampered = RegressionBundle.from_dict(document)
        store.path_for(bundle_id).unlink()
        new_id, _ = store.record(tampered)
        outcome = rebaseline_store(store)
        assert new_id in outcome["failed"]
        # the bundle is untouched, not silently rewritten
        assert store.load(new_id).expected_kind == tampered.expected_kind


class TestServiceFanOut:
    def test_engine_replay_matches_sequential_for_any_worker_count(
        self, tmp_path
    ):
        store = seeded_store(tmp_path, count=5)
        sequential = replay_store(store).to_json()
        for workers in (1, 2, 4):
            with WorkerPool(workers) as pool:
                fanned = replay_store(store, chunk_size=2, pool=pool)
            assert fanned.to_json() == sequential, workers

    def test_engine_replay_accepts_store_path(self, tmp_path):
        store = seeded_store(tmp_path, count=2)
        with WorkerPool(2) as pool:
            report = replay_store(str(store.directory), pool=pool)
        assert report.clean

    def test_failed_chunk_marks_bundles_not_drops_them(self, tmp_path, monkeypatch):
        def crash(documents, check_versions):
            raise RuntimeError("replay worker crashed")

        store = seeded_store(tmp_path, count=3)
        monkeypatch.setattr("repro.regress.replay.replay_chunk", crash)
        with WorkerPool(2) as pool:
            pooled = replay_store(store, chunk_size=2, pool=pool)
        inline = replay_store(store, chunk_size=2, pool=None)
        for report in (pooled, inline):
            assert len(report.results) == len(store)
            assert report.counts() == {"invalid-run": 3}
            assert all("chunk failed" in r.detail for r in report.results)
        assert inline.to_json() == pooled.to_json()


class TestCampaignAutoRecord:
    def test_campaign_records_divergences_and_replay_is_green(self, tmp_path):
        store = RegressionStore(tmp_path / "store")
        report = run_campaign(
            FuzzConfig(seed=3, iterations=60, minimize=False), store=store
        )
        assert report.divergences, "campaign found nothing to record"
        assert len(store) > 0
        replay = replay_store(store)
        assert replay.clean, replay.render()
        recorded = store.load(store.ids()[0])
        assert recorded.meta.get("recorded_by") == "fuzz-campaign"
        assert recorded.meta.get("seed") == 3


class TestRegressCli:
    def test_record_replay_list_gc_roundtrip(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        source = tmp_path / "diverge.mc"
        source.write_text(DIVERGING)
        assert (
            regress_main(
                ["record", "--store", store_dir, "--source", str(source),
                 "--stdin", "8"]
            )
            == 0
        )
        assert "created rb-" in capsys.readouterr().out
        assert regress_main(["replay", "--store", store_dir]) == 0
        assert "no drift" in capsys.readouterr().out
        assert regress_main(["list", "--store", store_dir]) == 0
        assert "1 bundle(s)" in capsys.readouterr().out
        assert regress_main(["gc", "--store", store_dir, "--dry-run"]) == 0

    def test_record_reads_stdin_tokens_as_exec_does(self, tmp_path, capsys):
        """``--stdin 2.5,0x3`` records a float and an int, as
        ``repro-exec`` reads them, and the bundle replays clean."""
        store_dir = str(tmp_path / "store")
        source = tmp_path / "gpa.mc"
        source.write_text("void run() { double gpa; int n; cin >> gpa >> n; }\n")
        assert regress_main(
            ["record", "--store", store_dir, "--source", str(source),
             "--stdin", "2.5,0x3"]
        ) == 0
        store = RegressionStore(store_dir, create=False)
        (bundle_id,) = store.ids()
        assert store.load(bundle_id).stdin == (2.5, 3)
        capsys.readouterr()
        assert regress_main(["replay", "--store", store_dir]) == 0
        assert "no drift" in capsys.readouterr().out

    def test_replay_exits_one_on_drift_and_diff_explains(
        self, tmp_path, capsys
    ):
        store = seeded_store(tmp_path, count=1)
        bundle = store.load(store.ids()[0])
        bundle.expected_kind = "agree"
        bundle.expected_fingerprint = ""
        store.record(bundle, overwrite=True)
        store_dir = str(store.directory)
        assert regress_main(["replay", "--store", store_dir]) == 1
        assert regress_main(
            ["replay", "--store", store_dir, "--fail-on-drift"]
        ) == 1
        assert regress_main(
            ["replay", "--store", store_dir, "--allow-drift"]
        ) == 0
        capsys.readouterr()
        assert regress_main(["diff", "--store", store_dir]) == 1
        out = capsys.readouterr().out
        assert "verdict-drift" in out and "expected" in out
        assert regress_main(["rebaseline", "--store", store_dir]) == 0
        assert regress_main(["replay", "--store", store_dir]) == 0

    def test_replay_exits_one_on_version_bump_until_rebaseline(
        self, tmp_path
    ):
        store = seeded_store(tmp_path, count=1)
        bundle = store.load(store.ids()[0])
        bundle.versions = dict(bundle.versions, detector="0")
        store.record(bundle, overwrite=True)
        store_dir = str(store.directory)
        assert regress_main(["replay", "--store", store_dir]) == 1
        assert regress_main(
            ["replay", "--store", store_dir, "--skip-version-check"]
        ) == 0
        assert regress_main(["rebaseline", "--store", store_dir]) == 0
        assert regress_main(["replay", "--store", store_dir]) == 0

    def test_replay_jobs_writes_identical_drift_artifact(
        self, tmp_path, capsys
    ):
        store = seeded_store(tmp_path, count=3)
        store_dir = str(store.directory)
        artifacts = []
        for jobs in ("0", "2"):
            out = tmp_path / f"drift-{jobs}.json"
            assert regress_main(
                ["replay", "--store", store_dir, "--jobs", jobs,
                 "--out", str(out)]
            ) == 0
            artifacts.append(out.read_text())
        assert artifacts[0] == artifacts[1]
        data = json.loads(artifacts[0])
        assert data["clean"] is True and data["bundles"] == 3

    def test_usage_errors(self, tmp_path, capsys):
        missing = str(tmp_path / "absent")
        assert regress_main(["replay", "--store", missing]) == 2
        assert regress_main(["record", "--store", missing]) == 2
        capsys.readouterr()


#: Store files that do not decode as bundles.
UNREADABLE = {
    "bad-json": "{",
    "array": "[]",
    "wrong-schema": json.dumps({"schema": BUNDLE_SCHEMA + 1, "source": ""}),
    "missing-key": json.dumps({"schema": BUNDLE_SCHEMA}),
}


class TestUnreadableBundles:
    """Every command that reads the store refuses a bundle file that
    does not decode as bad input naming the file; gc sweeps it."""

    @pytest.fixture
    def store_with(self, tmp_path):
        def build(text):
            store = seeded_store(tmp_path, count=1)
            bad = store.path_for("rb-00000000000000000bad")
            bad.write_text(text)
            return store, bad

        return build

    @pytest.mark.parametrize("kind", sorted(UNREADABLE))
    @pytest.mark.parametrize(
        "argv",
        [
            ["replay"],
            ["replay", "--json"],
            ["list"],
            ["diff"],
            ["rebaseline"],
        ],
        ids=lambda argv: "-".join(argv),
    )
    def test_store_readers_exit_2(self, store_with, capsys, kind, argv):
        store, bad = store_with(UNREADABLE[kind])
        assert regress_main([*argv, "--store", str(store.directory)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: unreadable regression bundle (")
        assert captured.err.endswith("); run repro-regress gc\n")
        assert captured.err.count("\n") == 1

    def test_matrix_regress_dir_exits_2(self, store_with, capsys):
        store, bad = store_with("[]")
        argv = ["run", "--jobs", "0", "--regress-dir", str(store.directory)]
        assert matrix_main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: unreadable")

    @pytest.mark.parametrize("command", ["diff", "rebaseline"])
    def test_unknown_bundle_id_exits_2(self, tmp_path, capsys, command):
        # The named bundle is stale, so a rebaseline that ran it before
        # reaching the unknown id would rewrite it.
        store = seeded_store(tmp_path, count=1)
        stale = store.path_for(store.ids()[0])
        document = json.loads(stale.read_text())
        document["versions"] = {}
        stale.write_text(json.dumps(document))
        before = {path.name: path.read_text() for path in store.directory.iterdir()}
        argv = [command, "--store", str(store.directory), store.ids()[0], "rb-nosuch"]
        assert regress_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: no bundle rb-nosuch in {store.directory}\n"
        assert captured.out == ""
        assert {path.name: path.read_text() for path in store.directory.iterdir()} == before

    @pytest.mark.parametrize("kind", sorted(UNREADABLE))
    def test_gc_sweeps_it_and_replay_passes_again(self, store_with, capsys, kind):
        store, bad = store_with(UNREADABLE[kind])
        store_dir = str(store.directory)
        assert regress_main(["gc", "--store", store_dir]) == 0
        assert f"removed {bad.name}: unreadable: " in capsys.readouterr().out
        assert not bad.exists() and len(store) == 1
        assert regress_main(["replay", "--store", store_dir]) == 0

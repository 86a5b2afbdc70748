"""Tests for campaign checkpointing: kill-and-resume byte-identity,
torn-file recovery, version refusal, and the interrupt-handling CLI."""

import json
import threading

import pytest

from repro.cli import fuzz_main, regress_main
from repro.fuzz import (
    CampaignCheckpoint,
    CampaignInterrupted,
    CheckpointError,
    CheckpointStore,
    DifferentialFuzzer,
    FuzzConfig,
    checkpoint_from_fuzzer,
    restore_fuzzer,
    run_campaign,
)
from repro.fuzz.campaign import BATCHES_PER_ROUND
from repro.fuzz.checkpoint import _digest_of
from repro.service import WorkerPool

#: 180 iterations at batch 30 = two rounds (120 + 60): big enough to
#: interrupt mid-campaign, small enough for the test budget.
CONFIG = FuzzConfig(seed=3, iterations=180, minimize=False)
BATCH = 30

#: The same campaign at batch 10: five rounds (four of 40 iterations,
#: then 20), so a stop can land after any of rounds 1-4.
SMALL_BATCH = 10
ROUNDS = 5


def _seeded_fuzzer(iterations=40):
    fuzzer = DifferentialFuzzer(
        FuzzConfig(seed=3, iterations=iterations, minimize=False)
    )
    fuzzer.run_seeds()
    return fuzzer


class TestCheckpointRoundtrip:
    def test_json_roundtrip_is_lossless(self):
        fuzzer = _seeded_fuzzer()
        before = checkpoint_from_fuzzer(
            fuzzer, batch_size=BATCH, round_index=0, remaining=40
        )
        after = CampaignCheckpoint.from_json(before.to_json())
        assert after.to_dict() == before.to_dict()

    def test_restore_rebuilds_identical_driver_state(self):
        fuzzer = _seeded_fuzzer()
        checkpoint = checkpoint_from_fuzzer(
            fuzzer, batch_size=BATCH, round_index=0, remaining=40
        )
        restored = restore_fuzzer(checkpoint)
        assert restored.coverage.sorted_keys() == fuzzer.coverage.sorted_keys()
        assert [inp.key() for inp in restored.corpus] == [
            inp.key() for inp in fuzzer.corpus
        ]
        assert restored._protected == fuzzer._protected
        assert restored.families == fuzzer.families
        assert sorted(restored.divergences) == sorted(fuzzer.divergences)
        assert restored.execs == fuzzer.execs
        assert restored.seeds == fuzzer.seeds
        assert restored.invalid == fuzzer.invalid

    def test_digest_tamper_is_refused(self):
        fuzzer = _seeded_fuzzer()
        checkpoint = checkpoint_from_fuzzer(
            fuzzer, batch_size=BATCH, round_index=1, remaining=10
        )
        data = checkpoint.to_dict()
        data["remaining"] = 9_999
        with pytest.raises(CheckpointError, match="digest"):
            CampaignCheckpoint.from_dict(data)

    def test_bad_schema_is_refused(self):
        with pytest.raises(CheckpointError, match="schema"):
            CampaignCheckpoint.from_dict({"schema": 99})
        with pytest.raises(CheckpointError, match="not JSON"):
            CampaignCheckpoint.from_json("{nope")


class TestCheckpointStore:
    def test_save_prunes_to_keep_limit(self, tmp_path):
        store = CheckpointStore(tmp_path)
        fuzzer = _seeded_fuzzer()
        for round_index in range(4):
            store.save(
                checkpoint_from_fuzzer(
                    fuzzer,
                    batch_size=BATCH,
                    round_index=round_index,
                    remaining=100 - round_index,
                )
            )
        names = [path.name for path in store.paths()]
        assert names == ["checkpoint-r000002.json", "checkpoint-r000003.json"]
        assert store.latest().round_index == 3

    def test_truncated_latest_falls_back_one_round(self, tmp_path):
        store = CheckpointStore(tmp_path)
        fuzzer = _seeded_fuzzer()
        for round_index in (0, 1):
            store.save(
                checkpoint_from_fuzzer(
                    fuzzer,
                    batch_size=BATCH,
                    round_index=round_index,
                    remaining=50,
                )
            )
        newest = store.path_for(1)
        newest.write_text(newest.read_text()[:80])  # simulate a torn write
        recovered = store.latest()
        assert recovered is not None
        assert recovered.round_index == 0

    def test_no_loadable_checkpoint_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.latest() is None
        store.path_for(0).write_text("garbage")
        assert store.latest() is None

    def test_save_leaves_no_tmp_litter(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(
            checkpoint_from_fuzzer(
                _seeded_fuzzer(), batch_size=BATCH, round_index=0, remaining=1
            )
        )
        assert list(tmp_path.glob("*.tmp")) == []


class TestKillAndResume:
    """The determinism flagship: interrupt anywhere, resume, and the
    report is byte-identical to an uninterrupted run."""

    @pytest.fixture(scope="class")
    def control(self):
        return run_campaign(CONFIG, batch_size=BATCH).to_json()

    @pytest.mark.parametrize("jobs", [0, 1, 4])
    def test_resumed_report_is_byte_identical(self, tmp_path, control, jobs):
        pool = WorkerPool(jobs) if jobs else None
        try:
            with pytest.raises(CampaignInterrupted) as info:
                run_campaign(
                    CONFIG,
                    pool=pool,
                    batch_size=BATCH,
                    checkpoint_dir=tmp_path,
                    stop_after_rounds=1,
                )
            assert info.value.remaining > 0
            assert info.value.checkpoint_path is not None
            report = run_campaign(
                CONFIG,
                pool=pool,
                batch_size=BATCH,
                checkpoint_dir=tmp_path,
                resume=True,
            )
        finally:
            if pool is not None:
                pool.shutdown()
        assert report.to_json() == control

    def test_stop_event_interrupts_before_first_round(self, tmp_path):
        stop = threading.Event()
        stop.set()
        with pytest.raises(CampaignInterrupted) as info:
            run_campaign(
                CONFIG,
                batch_size=BATCH,
                checkpoint_dir=tmp_path,
                stop_event=stop,
            )
        # Even a pre-round-0 stop leaves the post-seed baseline behind.
        assert info.value.round_index == 0
        assert CheckpointStore(tmp_path).latest() is not None

    def test_resuming_a_finished_campaign_refinalizes(self, tmp_path, control):
        report = run_campaign(
            CONFIG, batch_size=BATCH, checkpoint_dir=tmp_path
        )
        assert report.to_json() == control
        resumed = run_campaign(
            CONFIG, batch_size=BATCH, checkpoint_dir=tmp_path, resume=True
        )
        assert resumed.to_json() == control

    def test_resume_restores_checkpointed_config_and_batch_size(
        self, tmp_path
    ):
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                CONFIG,
                batch_size=BATCH,
                checkpoint_dir=tmp_path,
                stop_after_rounds=1,
            )
        # Deliberately wrong arguments on resume: the checkpoint wins,
        # otherwise the deterministic batch partition would fork.
        report = run_campaign(
            FuzzConfig(seed=999, iterations=5, minimize=True),
            batch_size=7,
            checkpoint_dir=tmp_path,
            resume=True,
        )
        assert report.seed == CONFIG.seed
        assert report.iterations == CONFIG.iterations

    def test_resume_without_directory_or_checkpoint_fails(self, tmp_path):
        with pytest.raises(CheckpointError, match="checkpoint directory"):
            run_campaign(CONFIG, resume=True)
        with pytest.raises(CheckpointError, match="no usable checkpoint"):
            run_campaign(CONFIG, checkpoint_dir=tmp_path, resume=True)


class TestResumeAtEveryRound:
    """Interrupt after every round but the last, and twice in one run:
    each resumed report is byte-identical to the uninterrupted one."""

    @pytest.fixture(scope="class")
    def control(self):
        return run_campaign(CONFIG, batch_size=SMALL_BATCH).to_json()

    @staticmethod
    def _stop(directory, rounds, resume=False):
        with pytest.raises(CampaignInterrupted) as info:
            run_campaign(
                CONFIG,
                batch_size=SMALL_BATCH,
                checkpoint_dir=directory,
                resume=resume,
                stop_after_rounds=rounds,
            )
        return info.value

    @staticmethod
    def _finish(directory):
        return run_campaign(
            CONFIG, batch_size=SMALL_BATCH, checkpoint_dir=directory, resume=True
        ).to_json()

    @pytest.mark.parametrize("stop_after", range(1, ROUNDS))
    def test_resume_after_round_k_is_byte_identical(
        self, tmp_path, control, stop_after
    ):
        stopped = self._stop(tmp_path, stop_after)
        assert stopped.round_index == stop_after
        per_round = BATCHES_PER_ROUND * SMALL_BATCH
        assert stopped.remaining == CONFIG.iterations - per_round * stop_after
        assert self._finish(tmp_path) == control

    def test_double_interrupt_is_byte_identical(self, tmp_path, control):
        assert self._stop(tmp_path, 1).round_index == 1
        assert self._stop(tmp_path, 2, resume=True).round_index == 3
        assert self._finish(tmp_path) == control


class TestVersionRefusal:
    def _checkpoint_dir_with_stale_versions(self, tmp_path):
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                CONFIG,
                batch_size=BATCH,
                checkpoint_dir=tmp_path,
                stop_after_rounds=1,
            )
        store = CheckpointStore(tmp_path)
        checkpoint = store.latest()
        checkpoint.versions = dict(
            checkpoint.versions, detector="pn-detector/0.0-stale"
        )
        store.save(checkpoint)
        return tmp_path

    def test_stale_versions_refused_by_default(self, tmp_path):
        directory = self._checkpoint_dir_with_stale_versions(tmp_path)
        with pytest.raises(CheckpointError, match="different oracle versions"):
            run_campaign(CONFIG, checkpoint_dir=directory, resume=True)

    def test_skip_version_check_resumes_anyway(self, tmp_path):
        directory = self._checkpoint_dir_with_stale_versions(tmp_path)
        report = run_campaign(
            CONFIG,
            checkpoint_dir=directory,
            resume=True,
            skip_version_check=True,
        )
        assert report.iterations == CONFIG.iterations


class TestRecordErrorDegradation:
    def test_failing_store_counts_instead_of_aborting(self):
        class ExplodingStore:
            directory = "exploding://"

            def record_divergence(self, div, config, meta=None):
                raise OSError("disk on fire")

        config = FuzzConfig(seed=3, iterations=60, minimize=False)
        baseline = run_campaign(config)
        report = run_campaign(config, store=ExplodingStore())
        assert baseline.divergences, "campaign found nothing to record"
        assert report.record_errors == len(baseline.divergences)
        # Advisory only: the serialized report stays byte-identical.
        assert report.to_json() == baseline.to_json()


class TestCliCheckpointing:
    def test_stop_after_exits_130_then_resume_matches_control(
        self, tmp_path, capsys
    ):
        control = tmp_path / "control.json"
        args = [
            "run", "--seed", "3", "--iterations", "180", "--jobs", "0",
            "--batch-size", "30", "--no-minimize",
        ]
        assert fuzz_main(args + ["--out", str(control)]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "ckpt"
        code = fuzz_main(
            args + ["--checkpoint-dir", str(ckpt), "--stop-after", "1"]
        )
        assert code == 130
        err = capsys.readouterr().err
        assert "checkpoint written to" in err
        assert "--resume" in err
        resumed = tmp_path / "resumed.json"
        code = fuzz_main(
            args
            + [
                "--checkpoint-dir", str(ckpt), "--resume",
                "--out", str(resumed),
            ]
        )
        assert code == 0
        assert resumed.read_text() == control.read_text()

    def test_resume_requires_checkpoint_dir(self, capsys):
        assert fuzz_main(["run", "--resume", "--jobs", "0"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_missing_checkpoint_is_a_usage_error(self, tmp_path, capsys):
        code = fuzz_main(
            [
                "run", "--jobs", "0", "--resume",
                "--checkpoint-dir", str(tmp_path / "empty"),
            ]
        )
        assert code == 2
        assert "no usable checkpoint" in capsys.readouterr().err

    def test_schema_1_checkpoint_is_refused(self, tmp_path, capsys):
        # Schema-1 checkpoints carry the execution-engine config key and
        # counters this build no longer has; a digest-valid one must be
        # refused cleanly, never crash FuzzConfig(**config).
        checkpoint = checkpoint_from_fuzzer(
            _seeded_fuzzer(), batch_size=BATCH, round_index=0, remaining=40
        )
        checkpoint.config["engine"] = "ast"
        checkpoint.counters.update(compile_errors=0, engine_drift=0)
        body = checkpoint.to_dict()
        body["schema"] = 1
        del body["digest"]
        body["digest"] = _digest_of(body)
        with pytest.raises(
            CheckpointError, match="unsupported checkpoint schema 1"
        ):
            CampaignCheckpoint.from_dict(body)
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "checkpoint-r000000.json").write_text(json.dumps(body))
        code = fuzz_main(
            ["run", "--jobs", "0", "--resume", "--checkpoint-dir", str(ckpt)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_fuzz_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli._fuzz_run", interrupted)
        assert fuzz_main(["run", "--jobs", "0"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_regress_keyboard_interrupt_exits_130(
        self, tmp_path, capsys, monkeypatch
    ):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli._regress_replay", interrupted)
        assert regress_main(["replay", "--store", str(tmp_path)]) == 130
        assert "interrupted" in capsys.readouterr().err

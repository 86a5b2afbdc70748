"""E25 — checkpoint overhead: what resumability costs per round.

Checkpointed campaigns serialize the corpus, coverage, divergences,
and counters to an atomically-replaced JSON file after every round.
This experiment runs the same campaign bare and checkpointed and
records the wall-clock overhead (total and per checkpoint) plus the
on-disk checkpoint size, so a checkpoint format that grows
pathological shows here before a long campaign hits it.  It also
times a resume's restore step — the fixed cost of continuing a killed
run — and asserts the resumed report stays byte-identical.
"""

import time

from conftest import print_table

from repro.fuzz import (
    CampaignInterrupted,
    CheckpointStore,
    FuzzConfig,
    run_campaign,
)

ITERATIONS = 150
BATCH = 25  # rounds of 100: the 150-iteration run checkpoints 3 times


def test_e25_checkpoint_overhead(tmp_path):
    config = FuzzConfig(seed=7, iterations=ITERATIONS, minimize=False)

    started = time.perf_counter()
    bare = run_campaign(config, batch_size=BATCH)
    bare_s = time.perf_counter() - started

    ckpt_dir = tmp_path / "ckpt"
    started = time.perf_counter()
    checkpointed = run_campaign(
        config, batch_size=BATCH, checkpoint_dir=ckpt_dir
    )
    checkpointed_s = time.perf_counter() - started

    store = CheckpointStore(ckpt_dir, create=False)
    latest_path = store.paths()[-1]
    checkpoint_bytes = latest_path.stat().st_size
    rounds = store.latest().round_index
    overhead_s = max(checkpointed_s - bare_s, 0.0)

    # The cost of an actual kill-and-resume: one round in, then finish.
    resume_dir = tmp_path / "resume"
    try:
        run_campaign(
            config,
            batch_size=BATCH,
            checkpoint_dir=resume_dir,
            stop_after_rounds=1,
        )
    except CampaignInterrupted:
        pass
    started = time.perf_counter()
    resumed = run_campaign(
        config, batch_size=BATCH, checkpoint_dir=resume_dir, resume=True
    )
    resume_s = time.perf_counter() - started

    print_table(
        f"E25 checkpoint overhead (seed 7, {ITERATIONS} iterations, "
        f"batch {BATCH})",
        ["metric", "value"],
        [
            ["bare campaign", f"{bare_s:.3f}s"],
            ["checkpointed campaign", f"{checkpointed_s:.3f}s"],
            ["overhead (total)", f"{overhead_s:.3f}s"],
            ["overhead / checkpoint", f"{overhead_s / (rounds + 1):.4f}s"],
            ["checkpoint size", f"{checkpoint_bytes} B"],
            ["resume (round 1 -> done)", f"{resume_s:.3f}s"],
        ],
    )
    assert checkpointed.to_json() == bare.to_json()
    assert resumed.to_json() == bare.to_json()
    # Resumability must stay cheap relative to the work it protects.
    assert overhead_s < max(bare_s, 1.0)

"""A tour of repro.regress: the replayable regression corpus.

Records a fuzz campaign's divergences as content-addressed bundles,
replays them sequentially and over two worker processes (same bytes;
`repro-regress replay --jobs 2 --backend process`), then walks the
three failure modes the CI gate exists for: verdict drift, a version
bump without a rebaseline, and the explicit rebaseline that re-asserts
the corpus afterwards.

    PYTHONPATH=src python examples/regress_demo.py
"""

import tempfile
from pathlib import Path

from repro.fuzz import FuzzConfig, run_campaign, run_oracles, OracleConfig
from repro.regress import (
    RegressionStore,
    bundle_from_observation,
    current_versions,
    rebaseline_store,
    replay_store,
)
from repro.service import WorkerPool

SEED = 7
ITERATIONS = 200


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-regress-demo-"))
    store = RegressionStore(workdir / "store")

    # -- record: a campaign persists its divergences -----------------------
    report = run_campaign(
        FuzzConfig(seed=SEED, iterations=ITERATIONS, minimize=False),
        store=store,
    )
    print(
        f"campaign seed={SEED}: {len(report.divergences)} divergence(s) "
        f"recorded as {len(store)} bundle(s) in {store.directory}"
    )
    for bundle in store.bundles():
        print(
            f"  {bundle.bundle_id}  [{bundle.status}] "
            f"{bundle.expected_kind}  rules="
            f"{','.join(bundle.expected_rules) or '-'}"
        )

    # -- a manual pin: agreements are worth keeping too --------------------
    config = OracleConfig()
    source = "void run() { int x = 1; }\n"
    observation = run_oracles(source, (), config)
    pinned_id, disposition = store.record(
        bundle_from_observation(source, (), config, observation)
    )
    print(f"\npinned agreement {pinned_id} ({disposition})")

    # -- replay: sequential and fanned-out are byte-identical --------------
    sequential = replay_store(store)
    with WorkerPool(2, "process") as pool:
        fanned = replay_store(store, chunk_size=4, pool=pool)
    print(f"\n{sequential.render()}")
    identical = sequential.to_json() == fanned.to_json()
    print(f"2-process fan-out byte-identical to sequential: {identical}")

    # -- failure mode 1: verdict drift -------------------------------------
    drifted_id = store.ids()[0]
    bundle = store.load(drifted_id)
    bundle.expected_kind = "agree"
    bundle.expected_fingerprint = ""
    store.record(bundle, overwrite=True)
    drift = replay_store(store)
    print(f"\nafter tampering with {drifted_id}:")
    for result in drift.drifted:
        print(f"  [{result.status}] {result.bundle_id}: {result.detail}")

    # -- failure mode 2: a version bump without a rebaseline ---------------
    bundle = store.load(drifted_id)
    bundle.versions = dict(bundle.versions, detector="0")
    store.record(bundle, overwrite=True)
    stale = replay_store(store)
    counts = stale.counts()
    print(f"\nwith a stale detector version pinned: {counts}")
    print(f"(live versions: {current_versions()})")

    # -- the explicit way out: rebaseline ----------------------------------
    outcome = rebaseline_store(store)
    final = replay_store(store)
    print(
        f"\nrebaseline: {len(outcome['updated'])} updated, "
        f"{len(outcome['unchanged'])} unchanged, "
        f"{len(outcome['failed'])} failed — replay clean = {final.clean}"
    )


if __name__ == "__main__":
    main()

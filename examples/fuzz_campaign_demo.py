"""A tour of repro.fuzz: one differential fuzzing campaign, end to end.

Runs a small fixed-seed campaign through the service worker pool,
prints the rendered report (family reach, coverage, every divergence
with its triage label), demonstrates the determinism contract by
re-running the campaign and comparing report bytes, then minimizes one
divergence by hand the way `repro-fuzz minimize` does.

    PYTHONPATH=src python examples/fuzz_campaign_demo.py
"""

from repro.fuzz import (
    FuzzConfig,
    FuzzInput,
    divergence_from,
    minimize_input,
    run_campaign,
    run_oracles,
)
from repro.service import WorkerPool

SEED = 7
ITERATIONS = 200

#: A classic static-only divergence: the detector's taint rule claims
#: *some* stdin overflows the pool; a concrete in-bounds run stays
#: clean.  Auto-triage labels this "taint-quantifier".
DIVERGING = FuzzInput(
    source="""\
char pool[64];
void run() {
  int n = 0;
  cin >> n;
  char *buf = new (pool) char[n];
}
""",
    stdin=(8,),
)


def main() -> None:
    # -- one campaign over the worker pool ---------------------------------
    config = FuzzConfig(seed=SEED, iterations=ITERATIONS)
    with WorkerPool(4) as pool:
        report = run_campaign(config, pool=pool, batch_size=50)
    print(report.render())
    print(f"\nexecutions across the pool = {report.execs}")

    # -- the determinism contract ------------------------------------------
    with WorkerPool(2) as pool:
        rerun = run_campaign(config, pool=pool, batch_size=50)
    identical = report.to_json() == rerun.to_json()
    print(f"re-run with a different worker count: byte-identical = {identical}")

    # -- sequential works too, same bytes ----------------------------------
    sequential = run_campaign(config)
    print(
        "sequential run produced "
        f"{sequential.execs} execs, "
        f"{len(sequential.divergences)} divergences, "
        f"{len(sequential.untriaged)} un-triaged"
    )

    # -- minimizing one divergence by hand ---------------------------------
    observation = run_oracles(DIVERGING.source, DIVERGING.stdin)
    div = divergence_from(observation, DIVERGING)
    assert div is not None, "expected a static-only divergence"

    def same_fingerprint(candidate: FuzzInput) -> bool:
        obs = run_oracles(candidate.source, candidate.stdin)
        got = divergence_from(obs, candidate)
        return got is not None and got.fingerprint == div.fingerprint

    smallest = minimize_input(DIVERGING, same_fingerprint)
    print(f"\ndivergence {div.fingerprint} ({div.kind})")
    print(f"  rules: {', '.join(div.static_rules)}")
    print("  minimized source:")
    for line in smallest.source.splitlines():
        print(f"    {line}")
    print(f"  minimized stdin: {smallest.stdin}")


if __name__ == "__main__":
    main()

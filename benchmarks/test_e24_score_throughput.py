"""E24 — risk-scoring throughput: packages scored per second.

Scoring a package runs the full detector plus the legacy scanner and
maps every finding through the threat registry, then propagation walks
the dependency closure of each package, so corpus scoring throughput
tracks the analysis front end and the graph layer together.  This
experiment records ``packages_scored_per_s`` as ``extra_info`` on the
benchmark record and checks the service fan-out agrees with the
sequential path byte-for-byte.  The end-to-end scoring cost is
perfbench's ``score`` workload (``python3 perfbench/run.py --workload
score``).
"""

from conftest import print_table

from repro.score import generated_package_graph, score_graph
from repro.service import WorkerPool

SEED = 2026
PACKAGES = 48
WORKERS = 4


def test_e24_sequential_scoring_rate(benchmark):
    """Throughput of the in-process analyze→map→propagate pipeline."""
    graph = generated_package_graph(SEED, PACKAGES)

    score = benchmark.pedantic(score_graph, args=(graph,), rounds=1)

    elapsed = benchmark.stats.stats.mean
    packages_per_s = PACKAGES / elapsed if elapsed else 0.0
    totals = score.totals
    benchmark.extra_info["packages"] = totals["packages"]
    benchmark.extra_info["packages_scored_per_s"] = round(packages_per_s, 2)
    benchmark.extra_info["flawed_packages"] = totals["flawed_packages"]
    benchmark.extra_info["max_blast_radius"] = totals["max_blast_radius"]
    print_table(
        f"E24 sequential corpus scoring (seed {SEED}, {PACKAGES} packages)",
        ["metric", "value"],
        [
            ["packages", str(totals["packages"])],
            ["packages/sec", f"{packages_per_s:.1f}"],
            ["flawed", str(totals["flawed_packages"])],
            ["risks", str(totals["risks"])],
            ["max blast radius", f"{totals['max_blast_radius']:.2f}"],
        ],
    )
    assert totals["packages"] == PACKAGES
    assert totals["flawed_packages"] > 0


def test_e24_service_scoring_matches_sequential(benchmark):
    """The worker-pool fan-out changes wall-clock, never bytes."""
    graph = generated_package_graph(SEED, PACKAGES)
    sequential = score_graph(graph).to_json()

    def scored_over_pool():
        with WorkerPool(WORKERS) as pool:
            return score_graph(graph, pool=pool)

    score = benchmark.pedantic(scored_over_pool, rounds=1)

    elapsed = benchmark.stats.stats.mean
    packages_per_s = PACKAGES / elapsed if elapsed else 0.0
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["packages_scored_per_s"] = round(packages_per_s, 2)
    print_table(
        f"E24 service corpus scoring ({WORKERS} workers)",
        ["metric", "value"],
        [
            ["packages", str(len(score.packages))],
            ["packages/sec", f"{packages_per_s:.1f}"],
        ],
    )
    assert score.to_json() == sequential

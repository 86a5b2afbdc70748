"""A tour of repro.score: CWE/CAPEC risk with blast-radius propagation.

Walks the three layers on the built-in demo graph: the threat registry
mapping findings onto CWE/CAPEC entries, the package dependency DAG,
and score propagation — ending on the point of the subsystem: the
blast-radius ranking disagrees with the flat severity ranking, and a
fan-out over two worker processes (what `repro-score rank --jobs 2
--backend process` does) reproduces the sequential report byte-for-byte.

    PYTHONPATH=src python examples/score_demo.py
"""

from repro.score import (
    DEFAULT_THREATLIB,
    ScoreTarget,
    demo_graph,
    score_graph,
    scoring_versions,
)
from repro.service import WorkerPool


def main() -> None:
    # -- the threat registry: one rule id -> one CWE/CAPEC grading ---------
    for severity in ("error", "warning", "info"):
        risk = DEFAULT_THREATLIB.apply(
            ScoreTarget(kind="finding", trigger="PN-OVERSIZE", severity=severity)
        )
        cwes = ",".join(f"CWE-{n}" for n in risk.threat.cwe_ids)
        print(
            f"PN-OVERSIZE as {severity:<7} -> {risk.threat.threat_id} "
            f"({cwes})  {risk.likelihood.label()}/{risk.impact.label()}  "
            f"score {risk.score}"
        )

    # -- the demo graph: a shared pool module with five dependents ---------
    graph = demo_graph()
    print(f"\ndemo graph: {len(graph)} packages")
    for name in graph.topological():
        imports = ", ".join(graph.package(name).imports) or "-"
        print(f"  {name:<14} imports: {imports}")

    # -- propagation: blast ranking vs flat severity ranking ---------------
    score = score_graph(graph)
    print()
    print(score.render())
    print(f"\nflat severity ranking : {' > '.join(score.flat_ranking[:3])}")
    print(f"blast radius ranking  : {' > '.join(score.ranking[:3])}")
    core = score.entry("core-pool")
    tool = score.entry("tool-report")
    print(
        f"\ncore-pool has only warning-grade flaws (intrinsic "
        f"{core.intrinsic}) but {core.dependents} transitive dependents -> "
        f"blast {core.blast_radius:.1f}; tool-report's proved overflow "
        f"(intrinsic {tool.intrinsic}) has no dependents -> blast "
        f"{tool.blast_radius:.1f}."
    )

    # -- the same function over 2 worker processes: same bytes -------------
    with WorkerPool(2, "process") as pool:
        parallel = score_graph(graph, pool=pool)
    assert parallel.to_json() == score.to_json()
    print("\n2-process report is byte-identical")

    # -- attributability ---------------------------------------------------
    fingerprint = scoring_versions()
    print(
        f"report fingerprint: detector v{fingerprint['detector']}, "
        f"threat registry {fingerprint['threat_registry']}"
    )


if __name__ == "__main__":
    main()

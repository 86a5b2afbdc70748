#!/usr/bin/env python
"""The modern-mitigation sweep, end to end — a runnable tour of repro.matrix.

Runs a compact sweep (a slice of the attack gallery plus every fuzz
seed-family program) under the 2011-era columns *and* the modern
mitigations (shadow call stack, variable record table, memory tagging),
prints the table, proves byte-identity between the sequential and the
service-fanned paths, and shows the drift gate catching a flipped cell.

Run:  PYTHONPATH=src python examples/matrix_demo.py
"""

import json

from repro.matrix import (
    attack_rows,
    canonical_report_json,
    diff_reports,
    render_report,
    run_sweep,
    seed_rows,
)
from repro.service import WorkerPool

DEFENSES = (
    "none",
    "stackguard",
    "checked-placement",
    "shadow-ret-stack",
    "vrt",
    "memory-tagging",
)


def main() -> None:
    rows = attack_rows()[:10] + seed_rows()
    print(f"sweeping {len(rows)} rows x {len(DEFENSES)} defenses...\n")
    report = run_sweep(rows=rows, defenses=DEFENSES)
    print(render_report(report, column_width=20))
    print()

    print("— §5's legacy-code gap, mechanically —")
    for row in report["rows"]:
        if row["kind"] != "seed":
            continue
        print(
            f" seed:{row['id']:14s} checked-placement={row['cells']['checked-placement']:12s}"
            f" vrt={row['cells']['vrt']}"
        )
    print(
        "\nthe source fix (checked placement) was never compiled into these\n"
        "interpreted programs, so it cannot see their placements; the VRT\n"
        "sits under the allocator and catches them anyway.\n"
    )

    print("— determinism: the fanned sweep is byte-identical —")
    with WorkerPool(4) as pool:
        fanned = run_sweep(rows=rows, defenses=DEFENSES, pool=pool)
    identical = canonical_report_json(fanned) == canonical_report_json(report)
    print(f" sequential == 4 workers: {identical}\n")

    print("— the drift gate —")
    mutated = json.loads(canonical_report_json(report))
    mutated["rows"][0]["cells"]["vrt"] = "ATTACK-WINS"
    for line in diff_reports(report, mutated):
        print(f" drift: {line}")


if __name__ == "__main__":
    main()

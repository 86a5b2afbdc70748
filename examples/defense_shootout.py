#!/usr/bin/env python
"""Every attack against every defense — the paper's Section 5 in one table.

Runs the full attack gallery (26 scenarios from Sections 3–4) against
every defense in the roster through the matrix sweep's attack rows and
prints the table, followed by the Section 5.2 StackGuard experiment in
detail.

Run:  python examples/defense_shootout.py
"""

from repro.attacks import STACKGUARD, CanarySkipExperiment
from repro.defenses import ALL_DEFENSES
from repro.matrix import attack_rows, render_attack_table, run_sweep


def main() -> None:
    rows = attack_rows()
    print("running", len(rows), "attacks x", len(ALL_DEFENSES), "defenses...")
    report = run_sweep(rows=rows)
    print()
    print(render_attack_table(report))
    print()

    print("— the §5.2 StackGuard experiment, in detail —")
    experiment = CanarySkipExperiment().run(STACKGUARD)
    print(" naive smash:        ", experiment.detail["naive"])
    print(" selective overwrite:", experiment.detail["selective"])
    print(
        " canary intact after selective overwrite:",
        experiment.detail["selective_canary_intact"],
    )
    print()
    print(
        "reading the table: StackGuard stops only the naive strncpy smash;\n"
        "every placement-new object overflow walks straight past it.  The\n"
        "§5.1 checked placement stops all overflow-driven attacks but not\n"
        "the information leaks (sanitize-on-reuse's job) or the Listing 23\n"
        "leak (placement delete / arena-owner protocol's job)."
    )


if __name__ == "__main__":
    main()

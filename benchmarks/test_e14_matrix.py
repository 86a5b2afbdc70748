"""E14 — the attack × defense matrix (§5).

Claims reproduced as one table: everything wins unprotected; StackGuard
is blind to placement-new object overflows; the §5.1 checked placement
stops every overflow-based attack; sanitize-on-reuse stops the
information leaks; NX stops only code injection; shadow-memory red zones
catch the stray writes.
"""

import pytest

from repro.defenses import LibSafePlacementGuard
from repro.matrix import attack_rows, render_attack_table, run_sweep


def run_experiment():
    report = run_sweep(rows=attack_rows())
    print()
    print(render_attack_table(report))
    return report


def test_e14_shape(benchmark):
    report = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    total = len(report["rows"])
    wins = report["attacks_succeeding"]
    cells = {row["id"]: row["cells"] for row in report["rows"]}

    def attack_wins(attack, defense):
        return cells[attack][defense] == "ATTACK-WINS"

    # Baseline: the paper demonstrated every attack.
    assert wins["none"] == total

    # StackGuard: blind to the placement-new attacks; it only stops the
    # naive strncpy smash inside the two-step stack attack.
    assert wins["stackguard"] >= total - 2

    # Correct coding (§5.1): every overflow-driven attack is blocked;
    # only the leak measurements (different countermeasure) remain.
    assert wins["checked-placement"] <= 5
    # bounds checks don't fix leaks
    assert attack_wins("memory-leak", "checked-placement")

    # Sanitize-on-reuse stops exactly the info leaks.
    assert not attack_wins("info-leak-array", "sanitize-on-reuse")
    assert not attack_wins("info-leak-object", "sanitize-on-reuse")

    # NX: code injection only.
    assert not attack_wins("code-injection", "nx-stack")
    assert attack_wins("arc-injection", "nx-stack")

    # Shadow memory catches the overflow writes.
    assert not attack_wins("data-bss-overflow", "shadow-memory")

    # The §5.2 return-address stack stops what StackGuard cannot: the
    # selective overwrite inside stack-return-address and both injections.
    assert not attack_wins("stack-return-address", "shadow-ret-stack")
    assert not attack_wins("arc-injection", "shadow-ret-stack")
    # ... but it says nothing about data-only attacks.
    assert attack_wins("data-bss-overflow", "shadow-ret-stack")

    # Forward-edge CFI stops exactly the vtable subterfuge.
    assert not attack_wins("vtable-subterfuge-bss", "vtable-integrity")
    assert not attack_wins("vtable-subterfuge-stack", "vtable-integrity")
    assert attack_wins("stack-return-address", "vtable-integrity")


def test_e14b_libsafe_coverage_gap(benchmark):
    """§5.2's library-interception caveat, measured: the guard blocks
    every placement whose arena it can identify, but a raw interior
    address — 'just an address, not a lexically declared array' — sails
    through unchecked."""
    from repro.core import new_object
    from repro.errors import BoundsCheckViolation
    from repro.memory import SegmentKind
    from repro.runtime import Machine
    from repro.workloads import make_student_classes

    def run_guarded_placements():
        machine = Machine()
        student, grad = make_student_classes()
        guard = LibSafePlacementGuard(machine)
        blocked = 0
        # 1) arena known via tracker: oversize placement → blocked.
        small = machine.static_object(student, "small")
        try:
            guard.place(small.address, grad)
        except BoundsCheckViolation:
            blocked += 1
        # 2) arena known, placement fits → allowed.
        big = new_object(machine, grad)
        guard.place(big.address, student)
        # 3) raw interior address: the blind spot.
        interior = machine.space.segment(SegmentKind.BSS).base + 100
        guard.place(interior, grad)
        return guard.coverage_report(), blocked

    report, blocked = benchmark.pedantic(
        run_guarded_placements, rounds=1, iterations=1
    )
    print(f"\n=== E14b: libsafe-style interception coverage ===\n{report}")
    assert blocked == 1
    assert report["placements"] == 3
    assert report["blind_spots"] == 1
    assert report["coverage"] == pytest.approx(2 / 3)


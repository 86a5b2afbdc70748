"""Defense descriptors: the columns of the attack × defense matrix.

Section 5 of the paper surveys protections for modifiable and legacy
software.  Each :class:`Defense` names an :class:`Environment` (the
mechanical hardening) plus the paper's claims about it;
:mod:`repro.matrix` runs the attack gallery against every defense and
renders the E14 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..attacks.base import (
    CHECKED_PLACEMENT,
    MEMORY_TAGGING,
    NX_STACK,
    SANITIZE,
    SHADOW_MEMORY,
    SHADOW_RETURN_STACK,
    STACKGUARD,
    UNPROTECTED,
    VRT_BOUNDS,
    VTABLE_INTEGRITY,
    Environment,
)


@dataclass(frozen=True)
class Defense:
    """One protection technique under evaluation."""

    name: str
    environment: Environment
    paper_ref: str = ""
    deployment: str = "modifiable"  # "modifiable" | "legacy" | "none"
    notes: str = ""

    def fresh_environment(self) -> Environment:
        """A per-run copy of the environment (fresh ``machine_config``
        too), so no state can bleed between matrix cells."""
        return replace(
            self.environment, machine_config=replace(self.environment.machine_config)
        )


BASELINE = Defense(
    name="none",
    environment=UNPROTECTED,
    paper_ref="§1 (the paper's testbed)",
    deployment="none",
    notes="unprotected gcc 4.4.3-style build",
)

STACKGUARD_DEFENSE = Defense(
    name="stackguard",
    environment=STACKGUARD,
    paper_ref="§5.2 [8]",
    deployment="legacy",
    notes="random canary checked in the epilogue; selective overwrites evade it",
)

CORRECT_CODING = Defense(
    name="checked-placement",
    environment=CHECKED_PLACEMENT,
    paper_ref="§5.1",
    deployment="modifiable",
    notes="sizeof()-based bounds check at every placement site",
)

SHADOW_DEFENSE = Defense(
    name="shadow-memory",
    environment=SHADOW_MEMORY,
    paper_ref="§5.2 (runtime prevention schemes)",
    deployment="legacy",
    notes="red zones around victim arenas; catches stray writes",
)

NX_DEFENSE = Defense(
    name="nx-stack",
    environment=NX_STACK,
    paper_ref="§5.2 (non-executable stacks)",
    deployment="legacy",
    notes="stops code injection only; arc injection unaffected",
)

SANITIZE_DEFENSE = Defense(
    name="sanitize-on-reuse",
    environment=SANITIZE,
    paper_ref="§5.1 (information leaks)",
    deployment="modifiable",
    notes="memset before arena reuse; stops information leakage",
)

SHADOW_STACK_DEFENSE = Defense(
    name="shadow-ret-stack",
    environment=SHADOW_RETURN_STACK,
    paper_ref="§5.2 [27][20] (return address stack)",
    deployment="legacy",
    notes="machine-integrated shadow call stack; survives longjmp teardown",
)

VTABLE_INTEGRITY_DEFENSE = Defense(
    name="vtable-integrity",
    environment=VTABLE_INTEGRITY,
    paper_ref="§3.8.2 countermeasure (forward-edge CFI)",
    deployment="legacy",
    notes="every virtual dispatch validates the vptr against emitted vtables",
)

VRT_DEFENSE = Defense(
    name="vrt",
    environment=VRT_BOUNDS,
    paper_ref="§5.2 rebuttal (arXiv 1909.07821 variable record table)",
    deployment="legacy",
    notes="runtime per-variable bounds table consulted at placements and accesses",
)

TAGGING_DEFENSE = Defense(
    name="memory-tagging",
    environment=MEMORY_TAGGING,
    paper_ref="§5.2 rebuttal (GANDALF/MTE tag-checked segments)",
    deployment="legacy",
    notes="4-bit allocation colours; cross-colour stores and typed accesses fault",
)

ALL_DEFENSES: tuple[Defense, ...] = (
    BASELINE,
    STACKGUARD_DEFENSE,
    CORRECT_CODING,
    SHADOW_DEFENSE,
    NX_DEFENSE,
    SANITIZE_DEFENSE,
    SHADOW_STACK_DEFENSE,
    VTABLE_INTEGRITY_DEFENSE,
    VRT_DEFENSE,
    TAGGING_DEFENSE,
)


def defense_by_name(name: str) -> Defense:
    """Look a defense up by its ``name`` attribute."""
    for defense in ALL_DEFENSES:
        if defense.name == name:
            return defense
    choices = ", ".join(defense.name for defense in ALL_DEFENSES)
    raise KeyError(f"no defense named '{name}' (choose from: {choices})")

"""The memory-leak countermeasures of Sections 4.5 / 5.1.

Three options the paper discusses, each implemented and measurable:

1. define and use a *placement delete* (:func:`repro.core.placement_delete`);
2. only place objects whose size equals the arena's ("not quite
   practical" — provided for the ablation);
3. the arena-owner protocol — keep the first pointer at the arena's true
   size and free through it (:class:`repro.core.ArenaOwner`), which the
   paper calls the easiest to implement.

:func:`run_leak_comparison` replays the Listing 23 loop under each
discipline and reports leaked bytes, the E12 ablation.
"""

from __future__ import annotations

from .._record import record
from ..core.new_expr import new_object
from ..core.placement import placement_new
from ..core.placement_delete import ArenaOwner
from ..runtime.machine import Machine
from ..workloads.classes import make_student_classes


@record(frozen=True)
class LeakOutcome:
    """Leak accounting for one discipline."""

    discipline: str
    iterations: int
    leaked_bytes: int
    refused: int = 0

    @property
    def leak_per_iteration(self) -> float:
        """Average bytes stranded each pass."""
        return self.leaked_bytes / self.iterations if self.iterations else 0.0


def _leaky_loop(machine: Machine, iterations: int) -> LeakOutcome:
    """Listing 23 as written: free at the smaller believed size."""
    student_cls, grad_cls = make_student_classes()
    for _ in range(iterations):
        arena = new_object(machine, grad_cls)
        placement_new(machine, arena.address, student_cls)
        machine.tracker.mark_freed(arena.address)
        machine.heap.free(arena.address)
    return LeakOutcome(
        discipline="as-written (Listing 23)",
        iterations=iterations,
        leaked_bytes=machine.tracker.leaked_bytes,
    )


def _arena_owner_loop(machine: Machine, iterations: int) -> LeakOutcome:
    """The paper's recommended protocol: free through the true-size owner."""
    student_cls, grad_cls = make_student_classes()
    grad_size = machine.layouts.sizeof(grad_cls)
    for _ in range(iterations):
        with ArenaOwner(machine, grad_size, label="student-arena") as owner:
            placement_new(machine, owner.address, student_cls)
    return LeakOutcome(
        discipline="arena-owner protocol",
        iterations=iterations,
        leaked_bytes=machine.tracker.leaked_bytes,
    )


def _equal_size_loop(machine: Machine, iterations: int) -> LeakOutcome:
    """Option 2: refuse placements whose size differs from the arena's."""
    student_cls, grad_cls = make_student_classes()
    student_size = machine.layouts.sizeof(student_cls)
    refused = 0
    for _ in range(iterations):
        arena = new_object(machine, grad_cls)
        if machine.layouts.sizeof(grad_cls) != student_size:
            refused += 1
            machine.tracker.mark_freed(arena.address)
            machine.heap.free(arena.address)
            continue
        placement_new(machine, arena.address, student_cls)  # pragma: no cover
    return LeakOutcome(
        discipline="equal-size-only",
        iterations=iterations,
        leaked_bytes=machine.tracker.leaked_bytes,
        refused=refused,
    )


def run_leak_comparison(iterations: int = 50) -> list[LeakOutcome]:
    """The E12 ablation: Listing 23 vs both corrected disciplines."""
    outcomes = []
    for loop in (_leaky_loop, _arena_owner_loop, _equal_size_loop):
        outcomes.append(loop(Machine(), iterations))
    return outcomes

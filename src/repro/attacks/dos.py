"""Denial of service through overflow — Section 4.4.

The corrupted loop bound of Listing 15 is weaponized three ways, all
from the paper's text: a huge bound makes the service loop "iterated for
a long time" (response-time blow-up, modelled with an instruction
budget); a non-positive bound means the loop "is never taken" (here:
skipping the per-student authentication, i.e. auth bypass); and
resource allocation inside the loop exhausts memory and crashes the
process.
"""

from __future__ import annotations

from ..cxx.types import INT
from ..errors import OutOfMemory
from ..workloads.classes import make_student_classes
from .base import AttackResult, AttackScenario, Environment


class DosLoopAttack(AttackScenario):
    """Inflate the loop bound past the service's time budget."""

    name = "dos-loop-inflation"
    paper_ref = "§4.4 (via Listing 15)"
    description = "overwritten loop bound exceeds the server's step budget"

    def __init__(self, injected_n: int = 50_000_000, budget: int = 100_000) -> None:
        self.injected_n = injected_n
        self.budget = budget

    def execute(self, env: Environment) -> AttackResult:
        machine = env.make_machine()
        student_cls, grad_cls = make_student_classes()

        frame = machine.push_frame("serveRequest")
        n_address = frame.local_scalar(INT, "n", init=5)
        stud = frame.local_object(student_cls, "stud")
        env.protect(machine, stud.address, stud.size)

        gs = env.place(machine, stud, grad_cls)
        gs.set_element("ssn", 1, self.injected_n)

        n = machine.space.read_int(n_address)
        machine.pop_frame(frame)
        # The loop body only counts: it times out on step budget + 1, or
        # serves after max(n, 0) steps.
        if n > self.budget:
            return self.result(
                env,
                succeeded=True,
                machine=machine,
                outcome="request timed out",
                loop_bound=n,
                steps_executed=self.budget + 1,
            )
        return self.result(
            env,
            succeeded=False,
            machine=machine,
            outcome="request served",
            loop_bound=n,
            steps_executed=max(n, 0),
        )


class AuthBypassAttack(AttackScenario):
    """Zero the loop bound so the validation loop never runs.

    Paper: "by modifying n to a non-positive value ... the loop is never
    taken" and "authentication mechanisms can also be bypassed".
    """

    name = "dos-auth-bypass"
    paper_ref = "§4.4"
    description = "validation loop skipped by zeroing its bound"

    def execute(self, env: Environment) -> AttackResult:
        machine = env.make_machine()
        student_cls, grad_cls = make_student_classes()

        frame = machine.push_frame("authenticateBatch")
        n_address = frame.local_scalar(INT, "n", init=5)
        stud = frame.local_object(student_cls, "stud")
        env.protect(machine, stud.address, stud.size)

        gs = env.place(machine, stud, grad_cls)
        gs.set_element("ssn", 1, 0)

        n = machine.space.read_int(n_address)
        checks_run = 0
        for _ in range(max(n, 0)):
            checks_run += 1
            machine.record_event("credential checked")
        machine.pop_frame(frame)
        return self.result(
            env,
            succeeded=(checks_run == 0),
            machine=machine,
            checks_expected=5,
            checks_run=checks_run,
        )


class ResourceExhaustionAttack(AttackScenario):
    """Allocate inside the inflated loop until the heap dies.

    Paper: "if the resources are allocated/locked inside the loop, the
    attacker ... might crash the whole software stack ... by using up
    all the memory".
    """

    name = "dos-resource-exhaustion"
    paper_ref = "§4.4"
    description = "inflated loop allocates until OutOfMemory"

    def __init__(self, allocation_size: int = 4096) -> None:
        self.allocation_size = allocation_size

    def execute(self, env: Environment) -> AttackResult:
        machine = env.make_machine()
        student_cls, grad_cls = make_student_classes()

        frame = machine.push_frame("serveRequest")
        n_address = frame.local_scalar(INT, "n", init=4)
        stud = frame.local_object(student_cls, "stud")
        env.protect(machine, stud.address, stud.size)

        gs = env.place(machine, stud, grad_cls)
        gs.set_element("ssn", 1, 10**6)

        n = machine.space.read_int(n_address)
        allocations = 0
        exhausted = False
        try:
            for _ in range(max(n, 0)):
                machine.heap.allocate(self.allocation_size)
                allocations += 1
        except OutOfMemory:
            exhausted = True
        machine.pop_frame(frame)
        return self.result(
            env,
            succeeded=exhausted,
            machine=machine,
            allocations_before_oom=allocations,
            heap_bytes_in_use=machine.heap.bytes_in_use,
        )

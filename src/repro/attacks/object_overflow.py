"""Object-overflow mechanics — Sections 3.1–3.3 (Listings 4–9).

These scenarios exercise each *route* by which an oversized object
reaches a placement site: direct construction, a serialized/remote
object, a remote-driven copy loop, the copy constructor, and indirect
construction through an intermediate aggregate.  The downstream effects
(what gets corrupted) are covered by the other attack modules; here the
observable is the overflow itself and its attacker pedigree.
"""

from __future__ import annotations

from ..cxx.types import INT, UINT
from ..serialization.json_codec import construct_from_remote
from ..serialization.remote import malicious_service
from ..taint.engine import TaintEngine
from ..workloads.classes import make_someclass, make_student_classes
from .base import AttackResult, AttackScenario, Environment


class ConstructionOverflowAttack(AttackScenario):
    """Listing 4: a plain oversize construction at a smaller arena."""

    name = "overflow-via-construction"
    paper_ref = "§3.1, Listing 4"
    description = "GradStudent constructed at &stud with no size check"

    def execute(self, env: Environment) -> AttackResult:
        machine = env.make_machine()
        student_cls, grad_cls = make_student_classes()
        stud = machine.static_object(student_cls, "stud")
        sentinel = machine.static_scalar(UINT, "sentinel")
        machine.write_global("sentinel", 0xCAFED00D)
        env.protect(machine, stud.address, stud.size)

        st = env.place(machine, stud, grad_cls, 4.0, 2009, 1)
        st.set_element("ssn", 0, 0x31337)

        return self.result(
            env,
            succeeded=(machine.read_global("sentinel") != 0xCAFED00D),
            machine=machine,
            sentinel_after=hex(machine.read_global("sentinel")),
            object_size=st.size,
            arena_size=stud.size,
        )


class RemoteObjectOverflowAttack(AttackScenario):
    """Listings 5–6: a malicious service's object drives the overflow.

    The remote ``Student`` carries a lying course count ``n`` and an
    oversized ``courseid`` list; the victim's copy loop
    (``while (++i < remoteobj->n)``) writes them all.
    """

    name = "overflow-via-remote-object"
    paper_ref = "§3.2, Listings 5–6"
    description = "remote object's n drives an unbounded member copy"

    def __init__(self, course_count: int = 8) -> None:
        self.course_count = course_count

    def execute(self, env: Environment) -> AttackResult:
        machine = env.make_machine()
        taint = TaintEngine()
        service = malicious_service()
        remote = service.get_student(course_count=self.course_count)

        # The victim's Student gains an int courseid (as in Listing 6).
        from ..cxx.classdef import make_class
        from ..cxx.types import DOUBLE, array_of

        student_cls = make_class(
            "StudentWithCourse",
            fields=[
                ("gpa", DOUBLE),
                ("year", INT),
                ("semester", INT),
                ("courseid", array_of(INT, 2)),
            ],
        )
        stud = machine.static_object(student_cls, "stud")
        sentinel = machine.static_scalar(UINT, "sentinel")
        machine.write_global("sentinel", 0xCAFED00D)
        env.protect(machine, stud.address, stud.size)

        st = env.place(machine, stud, student_cls)
        # while (++i < remoteobj->n) *(st->courseid+i) = ...
        count = remote.get("n", 0)
        courses = remote.get("courseid", [])
        written = 0
        for index in range(count):
            st.set_element("courseid", index, courses[index])
            taint.mark(
                st.element_address("courseid", index), 4, *remote.labels
            )
            written += 1

        sentinel_after = machine.read_global("sentinel")
        corrupted = sentinel_after != 0xCAFED00D
        return self.result(
            env,
            succeeded=corrupted,
            machine=machine,
            remote_n=count,
            elements_written=written,
            sentinel_tainted=taint.is_tainted(sentinel.address, 4),
            sentinel_after=hex(sentinel_after),
        )


class CopyConstructorOverflowAttack(AttackScenario):
    """Listing 7: ``new (&stud) GradStudent(remoteobj)`` — the copy
    constructor materializes a subclass over the superclass arena."""

    name = "overflow-via-copy-constructor"
    paper_ref = "§3.2, Listing 7"
    description = "copy-construction from a remote object overflows the arena"

    def execute(self, env: Environment) -> AttackResult:
        machine = env.make_machine()
        student_cls, grad_cls = make_student_classes()
        service = malicious_service()
        remote = service.get_student(gpa=2.2, year=2012, semester=2)

        stud = machine.static_object(student_cls, "stud")
        sentinel = machine.static_scalar(UINT, "sentinel")
        machine.write_global("sentinel", 0xCAFED00D)
        env.protect(machine, stud.address, stud.size)

        # Deserialize the remote object into a scratch heap Student, then
        # copy-construct a GradStudent from it at &stud.
        from ..core.new_expr import new_object

        scratch = new_object(machine, student_cls)
        construct_from_remote(machine, student_cls, scratch.address, remote)
        st = env.place(machine, stud, grad_cls, scratch)
        st.set_element("ssn", 0, 0xFEEDFACE)

        return self.result(
            env,
            succeeded=(machine.read_global("sentinel") != 0xCAFED00D),
            machine=machine,
            copied_gpa=st.get("gpa"),
            arena_size=stud.size,
            object_size=st.size,
        )


class IndirectConstructionOverflowAttack(AttackScenario):
    """Listings 8–9: the remote object inflates an *intermediate*
    aggregate, which is then placement-copied over the small arena."""

    name = "overflow-via-indirect-construction"
    paper_ref = "§3.3, Listings 8–9"
    description = "remote-inflated aggregate placement-copied over small arena"

    def __init__(self, inflated_words: int = 16) -> None:
        self.inflated_words = inflated_words

    def execute(self, env: Environment) -> AttackResult:
        machine = env.make_machine()
        service = malicious_service()
        remote = service.get_aggregate(self.inflated_words)

        big_cls = make_someclass(self.inflated_words)
        small_cls = make_someclass(2)

        # Someclass *obj2 = new Someclass(remoteobj);  (heap, full size)
        from ..core.new_expr import new_object

        obj2 = new_object(machine, big_cls, *remote.get("payload", []))

        # The small arena and a tripwire neighbour.
        arena = machine.static_object(small_cls, "arena")
        sentinel = machine.static_scalar(UINT, "sentinel")
        machine.write_global("sentinel", 0xCAFED00D)
        env.protect(machine, arena.address, arena.size)

        # GradStudent-style indirect placement: copy obj2's full extent.
        placed = env.place(machine, arena, big_cls, obj2)

        return self.result(
            env,
            succeeded=(machine.read_global("sentinel") != 0xCAFED00D),
            machine=machine,
            intermediate_size=obj2.size,
            arena_size=arena.size,
        )

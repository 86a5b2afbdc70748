#!/usr/bin/env python
"""A remote-object attack end to end (paper §3.2).

Models the paper's motivating deployment: a server that deserializes
JSON Student objects from a web client into a pre-allocated arena using
placement new.  An honest client works fine; a malicious client sends an
object whose course list overflows the arena and corrupts the server's
accounting — and per-byte taint tracking proves the corrupted value is
attacker-derived.

Run:  python examples/webservice_attack.py
"""

from repro import Machine
from repro.core import placement_new
from repro.cxx import DOUBLE, INT, UINT, array_of, make_class
from repro.serialization import honest_service, malicious_service
from repro.taint import TaintEngine


def build_server():
    """The victim: a machine with a Student arena and a counter."""
    machine = Machine()
    student_cls = make_class(
        "Student",
        fields=[
            ("gpa", DOUBLE),
            ("year", INT),
            ("semester", INT),
            ("courseid", array_of(INT, 2)),
        ],
    )
    arena = machine.static_object(student_cls, "stud")
    machine.static_scalar(UINT, "enrolledCredits")
    machine.write_global("enrolledCredits", 120)
    return machine, student_cls, arena


def handle_registration(machine, student_cls, arena, remote, taint):
    """The server's request handler — Listing 6's copy loop, verbatim.

    The handler trusts ``remote.n`` because "the protocol" says a
    Student has at most two courses.
    """
    st = placement_new(machine, arena, student_cls)
    st.set("gpa", remote.get("gpa", 0.0))
    st.set("year", remote.get("year", 0))
    st.set("semester", remote.get("semester", 0))
    courses = remote.get("courseid", [])
    for index in range(remote.get("n", 0)):  # <- attacker-controlled bound
        st.set_element("courseid", index, courses[index])
        if remote.tainted:
            taint.mark(st.element_address("courseid", index), 4, *remote.labels)
    return st


def main() -> None:
    machine, student_cls, arena = build_server()
    taint = TaintEngine()
    credits_var = machine.global_var("enrolledCredits")

    print("— request 1: honest client —")
    honest = honest_service().get_student(gpa=3.6, year=2011, semester=1)
    handle_registration(machine, student_cls, arena, honest, taint)
    print(f"  enrolledCredits = {machine.read_global('enrolledCredits')} (untouched)")

    print()
    print("— request 2: malicious client —")
    evil = malicious_service().get_student(course_count=8)
    print(f"  wire object claims n={evil.get('n')} courses "
          f"(protocol says at most 2)")
    handle_registration(machine, student_cls, arena, evil, taint)
    credits_after = machine.read_global("enrolledCredits")
    print(f"  enrolledCredits = {credits_after}  <- corrupted")
    print(
        "  taint on the counter:",
        sorted(label.value for label in taint.labels_at(credits_var.address, 4)),
    )
    print()
    print("the copy loop wrote", taint.tainted_byte_count, "attacker-labelled bytes")
    overflow = machine.placement_log.records[-1]
    print(
        f"placement audit: {overflow.type_name} into arena @ "
        f"{overflow.address:#010x} — the overflow came from the *loop*, not "
        "the placement itself; this is why checked placement new alone "
        "cannot save an unbounded deserializer"
    )


if __name__ == "__main__":
    main()

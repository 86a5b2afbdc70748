"""Tests for remote objects, their deserialization, and taint tracking."""

from repro.serialization import (
    RemoteObject,
    construct_from_remote,
    honest_service,
    malicious_service,
)
from repro.taint import TaintEngine, TaintLabel


class TestRemoteObject:
    def test_untrusted_by_default(self):
        remote = RemoteObject("Student", {"gpa": 1.0})
        assert remote.tainted
        assert TaintLabel.REMOTE_OBJECT in remote.labels

    def test_trusted_flag(self):
        assert not RemoteObject("Student", {}, labels=frozenset()).tainted


class TestServices:
    def test_malicious_student_lies_about_courses(self):
        remote = malicious_service().get_student()
        assert remote.get("n") > 2
        assert len(remote.get("courseid")) == remote.get("n")
        assert remote.tainted

    def test_honest_student_is_clean(self):
        remote = honest_service().get_student()
        assert not remote.tainted
        assert remote.get("n") == 2

    def test_aggregate_payload_taint_follows_the_peer(self):
        # Listing 8: the remote end picks the aggregate's size.
        honest = honest_service().get_aggregate(4)
        evil = malicious_service().get_aggregate(16)
        assert honest.get("payload") == [0, 1, 2, 3] and not honest.tainted
        assert len(evil.get("payload")) == 16 and evil.tainted
        assert evil.class_name == "Someclass16"


class TestDeserialization:
    def test_construct_from_remote_sets_fields(self, machine, student_classes):
        student, _ = student_classes
        remote = RemoteObject(
            "Student", {"gpa": 3.25, "year": 2011, "semester": 2}
        )
        arena = machine.static_object(student, "arena")
        inst = construct_from_remote(machine, student, arena.address, remote)
        assert inst.get("gpa") == 3.25
        assert inst.get("year") == 2011

    def test_construct_from_remote_marks_taint(self, machine, student_classes):
        student, _ = student_classes
        taint = TaintEngine()
        remote = RemoteObject("Student", {"gpa": 1.0, "year": 1, "semester": 1})
        arena = machine.static_object(student, "arena")
        construct_from_remote(machine, student, arena.address, remote, taint=taint)
        assert taint.is_tainted(arena.address, arena.size)

    def test_deserializing_virtual_class_installs_vptr(
        self, machine, virtual_student_classes
    ):
        student, _ = virtual_student_classes
        remote = RemoteObject("Student", {"gpa": 2.0, "year": 1, "semester": 1})
        arena = machine.static_object(student, "arena")
        inst = construct_from_remote(machine, student, arena.address, remote)
        assert inst.read_vptr() == machine.vtables.ensure(student).address


class TestTaintEngine:
    def test_mark_and_query(self, machine):
        taint = TaintEngine()
        taint.mark(0x1000, 4, TaintLabel.STDIN)
        assert taint.is_tainted(0x1000)
        assert taint.is_tainted(0x1003)
        assert not taint.is_tainted(0x1004)
        assert taint.labels_at(0x1000) == frozenset({TaintLabel.STDIN})

    def test_labels_union(self, machine):
        taint = TaintEngine()
        taint.mark(0x1000, 2, TaintLabel.STDIN)
        taint.mark(0x1001, 2, TaintLabel.NETWORK)
        assert taint.labels_at(0x1000, 3) == frozenset(
            {TaintLabel.STDIN, TaintLabel.NETWORK}
        )


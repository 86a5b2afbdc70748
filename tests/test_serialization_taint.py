"""Tests for remote objects, the JSON codec, and taint tracking."""

import pytest

from repro.core import construct, new_object
from repro.errors import ApiMisuseError
from repro.serialization import (
    RemoteObject,
    construct_from_remote,
    honest_service,
    malicious_service,
    serialize,
    wire_size_estimate,
)
from repro.taint import TaintEngine, TaintLabel, TaintedValue
from repro.workloads import set_ssn


class TestRemoteObject:
    def test_json_roundtrip(self):
        remote = RemoteObject("Student", {"gpa": 3.5, "year": 2010})
        parsed = RemoteObject.from_json(remote.to_json())
        assert parsed.class_name == "Student"
        assert parsed.fields["gpa"] == 3.5

    def test_untrusted_by_default(self):
        parsed = RemoteObject.from_json('{"__class__": "Student", "gpa": 1.0}')
        assert parsed.tainted

    def test_trusted_flag(self):
        parsed = RemoteObject.from_json(
            '{"__class__": "Student"}', trusted=True
        )
        assert not parsed.tainted

    def test_malformed_json_rejected(self):
        with pytest.raises(ApiMisuseError):
            RemoteObject.from_json("{not json")
        with pytest.raises(ApiMisuseError):
            RemoteObject.from_json('{"no_class": 1}')

    def test_wire_size_unrelated_to_memory_size(self):
        remote = RemoteObject("Student", {"gpa": 3.5})
        assert wire_size_estimate(remote) == len(remote.to_json())


class TestServices:
    def test_honest_names_count(self):
        names = honest_service().get_names(honest_count=4)
        assert len(names.value) == 4
        assert TaintLabel.NETWORK in names.labels

    def test_malicious_names_inflated(self):
        names = malicious_service().get_names(honest_count=4)
        assert len(names.value) == 16

    def test_malicious_student_lies_about_courses(self):
        remote = malicious_service().get_student()
        assert remote.get("n") > 2
        assert len(remote.get("courseid")) == remote.get("n")
        assert remote.tainted

    def test_honest_student_is_clean(self):
        remote = honest_service().get_student()
        assert not remote.tainted
        assert remote.get("n") == 2


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

    def test_serialize_reads_memory(self, machine, student_classes):
        _, grad = student_classes
        inst = new_object(machine, grad, 3.0, 2012, 1)
        set_ssn(inst, 9, 8, 7)
        wire = serialize(inst)
        assert wire.fields["gpa"] == 3.0
        assert wire.fields["ssn"] == [9, 8, 7]

    def test_serialize_ships_residue(self, machine, student_classes):
        # The Listing 22 exfiltration path: serialize reads raw memory.
        student, grad = student_classes
        big = new_object(machine, grad)
        set_ssn(big, 123, 45, 67)
        construct(machine, student, big.address)
        wire = serialize(machine.instance(grad, big.address))
        assert wire.fields["ssn"] == [123, 45, 67]

    def test_deserializing_virtual_class_installs_vptr(
        self, machine, virtual_student_classes
    ):
        student, _ = virtual_student_classes
        remote = RemoteObject("Student", {"gpa": 2.0, "year": 1, "semester": 1})
        arena = machine.static_object(student, "arena")
        inst = construct_from_remote(machine, student, arena.address, remote)
        assert inst.read_vptr() == machine.vtables.lookup("Student").address


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

    def test_clear(self, machine):
        taint = TaintEngine()
        taint.mark(0x1000, 4, TaintLabel.FILE)
        taint.clear(0x1000, 4)
        assert not taint.is_tainted(0x1000, 4)
        assert taint.tainted_byte_count == 0

    def test_tainted_value_wrapper(self):
        value = TaintedValue.from_source(42, TaintLabel.STDIN)
        derived = value.derive(43)
        assert derived.value == 43
        assert TaintLabel.DERIVED in derived.labels
        assert TaintLabel.STDIN in derived.labels

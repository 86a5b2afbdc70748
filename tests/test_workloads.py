"""Tests for workload classes and the MiniC++ corpus metadata."""


from repro.core import construct
from repro.workloads import (
    make_mobile_player,
    make_someclass,
    make_student_classes,
)
from repro.workloads.corpus import (
    CLASSIC_CORPUS,
    FULL_CORPUS,
    PLACEMENT_CORPUS,
    SAFE_CORPUS,
)


class TestStudentClasses:
    def test_fresh_definitions_per_call(self):
        a, _ = make_student_classes()
        b, _ = make_student_classes()
        assert a is not b
        assert a.name == b.name == "Student"

    def test_grad_subclasses_student(self):
        student, grad = make_student_classes()
        assert grad.bases == (student,)
        assert student.bases == ()

    def test_virtual_variant_polymorphic(self):
        student, grad = make_student_classes(virtual=True)
        assert student.is_polymorphic() and grad.is_polymorphic()
        plain_student, _ = make_student_classes()
        assert not plain_student.is_polymorphic()

    def test_grad_value_ctor_sets_base_members(self, machine):
        _, grad = make_student_classes()
        inst = machine.static_object(grad, "g")
        construct(machine, grad, inst.address, 3.9, 2009, 2)
        assert inst.get("gpa") == 3.9
        assert inst.get("semester") == 2

    def test_virtual_dispatch_returns_info(self, machine):
        student, grad = make_student_classes(virtual=True)
        inst = machine.static_object(grad, "g")
        construct(machine, grad, inst.address)
        result = machine.virtual_call(inst.as_type(student), "getInfo")
        assert "GradStudent" in result.return_value

    def test_student_get_info(self, machine):
        student, _ = make_student_classes(virtual=True)
        inst = machine.static_object(student, "s")
        construct(machine, student, inst.address, 3.1, 2010, 1)
        result = machine.virtual_call(inst, "getInfo")
        assert "3.1" in result.return_value


class TestMobilePlayer:
    def test_layout(self, machine):
        student, _ = make_student_classes()
        player = make_mobile_player(student)
        layout = machine.layouts.layout_of(player)
        assert layout.slot("stud1").offset == 0
        assert layout.slot("stud2").offset == 16
        assert layout.slot("n").offset == 32

    def test_ctor_zeroes_counter(self, machine):
        student, _ = make_student_classes()
        player_cls = make_mobile_player(student)
        inst = machine.static_object(player_cls, "p")
        machine.space.write_int(inst.field_address("n"), 99)
        construct(machine, player_cls, inst.address)
        assert inst.get("n") == 0


class TestSomeclass:
    def test_size_scales_with_payload(self, machine):
        small = make_someclass(2)
        big = make_someclass(16)
        assert machine.sizeof(small) == 8
        assert machine.sizeof(big) == 64

    def test_copy_construction_replicates_extent(self, machine):
        big = make_someclass(4)
        a = machine.static_object(big, "a")
        construct(machine, big, a.address, 1, 2, 3, 4)
        b = machine.static_object(big, "b")
        construct(machine, big, b.address, a)
        assert [b.get_element("payload", i) for i in range(4)] == [1, 2, 3, 4]


class TestCorpusMetadata:
    def test_corpus_partitions(self):
        assert len(PLACEMENT_CORPUS) == 15
        assert len(SAFE_CORPUS) == 2
        assert len(CLASSIC_CORPUS) == 3
        assert len(FULL_CORPUS) == 20

    def test_keys_unique(self):
        keys = [p.key for p in FULL_CORPUS]
        assert len(keys) == len(set(keys))

    def test_placement_corpus_expects_pn_rules(self):
        for program in PLACEMENT_CORPUS:
            assert program.expected_rules
            assert all(rule.startswith("PN-") for rule in program.expected_rules)

    def test_classic_corpus_marked_vulnerable(self):
        assert all(p.classic_vulnerable for p in CLASSIC_CORPUS)
        assert not any(p.classic_vulnerable for p in PLACEMENT_CORPUS)

    def test_every_program_cites_the_paper(self):
        for program in FULL_CORPUS:
            assert program.paper_ref

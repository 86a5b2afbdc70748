"""Modern mitigations: shadow call stack, VRT bounds, memory tagging.

Each defense is tested at two levels: the mechanism itself (unit pokes
at the table/tag map/shadow stack) and its bypass edges — the paper
attacks that *still* win under it.  The bypass edges are the load-
bearing claims of the sweep baseline: a mitigation that suddenly stops
internal-overflow is a simulation bug, not an improvement.
"""

import pytest

from repro.attacks import all_attacks, attack_by_name
from repro.attacks.base import MEMORY_TAGGING, VRT_BOUNDS, classify_failure
from repro.core.placement import placement_new
from repro.defenses import (
    ShadowCallStack,
    TagMismatchFault,
    VrtBoundsViolation,
)
from repro.defenses.base import DETECTED_BY
from repro.workloads import make_student_classes


class TestShadowCallStackUnwind:
    """Non-LIFO teardown must not desynchronize the protected copies."""

    def _frames(self, names):
        machine = VRT_BOUNDS.make_machine()  # any machine; stack is standalone
        return machine, [machine.push_frame(name) for name in names]

    def test_longjmp_teardown_unwinds_abandoned_entries(self):
        machine, (outer, in1, in2) = self._frames(["outer", "in1", "in2"])
        shadow = ShadowCallStack()
        for frame in (outer, in1, in2):
            shadow.record_call(frame)
        assert shadow.depth == 3
        # longjmp back to `outer`: the inner epilogues never run.
        shadow.check_return(outer, outer.original_return)
        assert shadow.unwound_frames == 2
        assert shadow.tamper_events == 0
        assert shadow.depth == 0

    def test_tamper_after_unwind_still_caught(self):
        machine, (outer, inner) = self._frames(["outer", "inner"])
        shadow = ShadowCallStack()
        shadow.record_call(outer)
        shadow.record_call(inner)
        shadow.check_return(outer, outer.original_return)  # abandons `inner`
        fresh = machine.push_frame("fresh")
        shadow.record_call(fresh)
        with pytest.raises(Exception) as excinfo:
            shadow.check_return(fresh, 0xDEAD)
        assert "mismatch" in str(excinfo.value)
        assert shadow.tamper_events == 1

    def test_checks_are_counted(self):
        machine, (frame,) = self._frames(["f"])
        shadow = ShadowCallStack()
        shadow.record_call(frame)
        shadow.check_return(frame, frame.original_return)
        assert shadow.checks == 1


class TestVariableRecordTable:
    def test_static_objects_enter_the_table(self):
        machine = VRT_BOUNDS.make_machine()
        student, _ = make_student_classes()
        arena = machine.static_object(student, "arena")
        entry = machine.defense.lookup(arena.address)
        assert entry is not None
        assert entry.base == arena.address
        assert entry.true_size == entry.believed_size

    def test_oversized_placement_faults_before_construction(self):
        machine = VRT_BOUNDS.make_machine()
        student, grad = make_student_classes()
        arena = machine.static_object(student, "arena")
        with pytest.raises(VrtBoundsViolation) as excinfo:
            placement_new(machine, arena.address, grad)
        assert excinfo.value.operation == "placement"
        assert machine.defense.violations

    def test_fitting_placement_shrinks_believed_size(self):
        machine = VRT_BOUNDS.make_machine()
        student, grad = make_student_classes()
        arena = machine.static_object(grad, "arena")
        placement_new(machine, arena.address, student)
        entry = machine.defense.lookup(arena.address)
        assert entry.believed_size < entry.true_size

    def test_raw_write_past_believed_bounds_faults(self):
        machine = VRT_BOUNDS.make_machine()
        student, _ = make_student_classes()
        arena = machine.static_object(student, "arena")
        entry = machine.defense.lookup(arena.address)
        with pytest.raises(VrtBoundsViolation):
            machine.space.write(arena.address + entry.believed_size - 2, b"ABCD")

    def test_interior_lookup_resolves_to_containing_variable(self):
        # The arXiv 1909.07821 point: an *interior* address resolves
        # back to its variable — exactly what lexical tools cannot do.
        machine = VRT_BOUNDS.make_machine()
        student, _ = make_student_classes()
        arena = machine.static_object(student, "arena")
        entry = machine.defense.lookup(arena.address + 4)
        assert entry is not None and entry.base == arena.address

    def test_disarm_stops_enforcement(self):
        machine = VRT_BOUNDS.make_machine()
        student, _ = make_student_classes()
        arena = machine.static_object(student, "arena")
        entry = machine.defense.lookup(arena.address)
        machine.defense.disarm()
        machine.space.write(arena.address + entry.believed_size - 2, b"ABCD")

    def test_freed_arenas_leave_the_table(self):
        machine = VRT_BOUNDS.make_machine()
        student, _ = make_student_classes()
        machine.static_object(student, "arena")
        before = machine.defense.live_entries
        for record in list(machine.tracker.live_records):
            machine.tracker.forget(record.address)
        assert machine.defense.live_entries < before


class TestMemoryTagging:
    def test_colours_cycle_through_the_4bit_space(self):
        machine = MEMORY_TAGGING.make_machine()
        student, _ = make_student_classes()
        objs = [machine.static_object(student, f"o{i}") for i in range(16)]
        tags = [machine.defense.tag_at(obj.address) for obj in objs]
        assert tags[:15] == list(range(1, 16))
        # The honest MTE limit: the 16th live allocation recycles the
        # first colour, so an overflow between them is invisible.
        assert tags[15] == tags[0]

    def test_cross_allocation_store_faults_at_the_boundary(self):
        machine = MEMORY_TAGGING.make_machine()
        student, _ = make_student_classes()
        a = machine.static_object(student, "a")
        b = machine.static_object(student, "b")
        span = b.address - a.address
        with pytest.raises(TagMismatchFault) as excinfo:
            machine.space.write(a.address + span - 2, b"XXXX")
        fault = excinfo.value
        assert fault.expected_tag != fault.found_tag

    def test_placement_keeps_the_allocation_colour(self):
        # MTE retags on malloc/free, not on casts: placement-new reuses
        # the arena's memory, so its colour must not change.
        machine = MEMORY_TAGGING.make_machine()
        student, grad = make_student_classes()
        arena = machine.static_object(grad, "arena")
        before = machine.defense.tag_at(arena.address)
        placement_new(machine, arena.address, student)
        assert machine.defense.tag_at(arena.address) == before

    def test_untagged_memory_reads_as_zero(self):
        machine = MEMORY_TAGGING.make_machine()
        assert machine.defense.tag_at(0x1000) == 0

    def test_disarm_stops_enforcement(self):
        machine = MEMORY_TAGGING.make_machine()
        student, _ = make_student_classes()
        a = machine.static_object(student, "a")
        b = machine.static_object(student, "b")
        machine.defense.disarm()
        machine.space.write(a.address + (b.address - a.address) - 2, b"XXXX")


class TestClassification:
    def test_modern_faults_classify_to_their_defense(self):
        vrt = VrtBoundsViolation(0x1000, 8, 0x1000, 4, "write")
        assert classify_failure(vrt) == ("vrt", False)
        tag = TagMismatchFault(0x1000, 8, 1, 2, "write")
        assert classify_failure(tag) == ("memory-tagging", False)

    def test_all_detection_labels_include_the_modern_defenses(self):
        assert {"vrt", "memory-tagging", "shadow-return-stack"} <= set(
            DETECTED_BY.values()
        )


def _outcome(attack_name, env):
    return attack_by_name(attack_name).run(env)


class TestBypassEdges:
    """The sweep baseline's edge cells, asserted directly.

    Each modern mitigation stops attack classes the StackGuard-era
    defenses miss — and is still bypassed by the attacks its granularity
    cannot see.  Both directions are pinned here so a simulator change
    that silently flips an edge fails locally, not just in the CI diff.
    """

    # -- VRT ---------------------------------------------------------------

    @pytest.mark.parametrize(
        "attack_name",
        ["internal-overflow", "info-leak-array", "memory-leak", "memory-leak-tracked"],
    )
    def test_vrt_bypasses(self, attack_name):
        # Intra-variable overflows and leaks stay inside recorded
        # bounds; a variable-granular table cannot see them.
        result = _outcome(attack_name, VRT_BOUNDS)
        assert result.succeeded, f"{attack_name} should still win under vrt"

    @pytest.mark.parametrize(
        "attack_name", ["overflow-via-remote-object", "info-leak-object"]
    )
    def test_vrt_detects_what_checked_placement_misses(self, attack_name):
        result = _outcome(attack_name, VRT_BOUNDS)
        assert result.detected_by == "vrt"

    def test_vrt_detects_construction_overflow(self):
        result = _outcome("overflow-via-construction", VRT_BOUNDS)
        assert not result.succeeded
        assert result.detected_by == "vrt"

    # -- memory tagging ----------------------------------------------------

    @pytest.mark.parametrize(
        "attack_name",
        [
            "internal-overflow",
            "info-leak-array",
            "info-leak-object",
            "memory-leak",
            "memory-leak-tracked",
        ],
    )
    def test_tagging_bypasses(self, attack_name):
        result = _outcome(attack_name, MEMORY_TAGGING)
        assert result.succeeded, f"{attack_name} should still win under tagging"

    def test_tagging_detects_remote_object_overflow(self):
        result = _outcome("overflow-via-remote-object", MEMORY_TAGGING)
        assert result.detected_by == "memory-tagging"

    # -- shadow call stack -------------------------------------------------

    def test_shadow_stack_stops_control_flow_only(self):
        from repro.attacks import SHADOW_RETURN_STACK

        caught = _outcome("stack-return-address", SHADOW_RETURN_STACK)
        assert caught.detected_by == "shadow-return-stack"
        data_only = _outcome("data-variable-overwrite", SHADOW_RETURN_STACK)
        assert data_only.succeeded

    # -- cross-defense sanity ---------------------------------------------

    def test_no_defense_stops_everything(self):
        # The paper's thesis survives the modern roster: every column
        # has at least one winning attack.
        for env in (VRT_BOUNDS, MEMORY_TAGGING):
            wins = [s.name for s in all_attacks() if s.run(env).succeeded]
            assert wins, f"{env.label} unexpectedly stops the whole gallery"

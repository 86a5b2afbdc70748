"""Deserialization over fuzz-generated programs.

The fuzzer's seed families produce MiniC++ classes nobody hand-wrote;
lowering them through :class:`~repro.analysis.symbols.SymbolTable` and
pushing wire objects through the deserializing placement constructor
checks that it holds for arbitrary generated layouts, not just the
paper's Student classes.
"""

from repro.analysis import SymbolTable, parse
from repro.core import new_object
from repro.fuzz import seed_inputs
from repro.runtime import Machine
from repro.serialization import RemoteObject, construct_from_remote
from repro.taint import TaintEngine, TaintLabel


def _generated_classes():
    """Every class any seed program declares, lowered and ready to
    instantiate (paired with a fresh Machine per program)."""
    pairs = []
    seen = set()
    for fuzz_input in seed_inputs(5):
        try:
            program = parse(fuzz_input.source)
        except Exception:
            continue
        if not program.classes:
            continue
        symbols = SymbolTable(program)
        for decl in program.classes:
            if decl.name in seen:
                continue
            lowered = symbols.cxx_class(decl.name)
            if lowered is not None and lowered.fields:
                seen.add(decl.name)
                pairs.append(lowered)
    return pairs


def _fill(instance, salt: int) -> None:
    """Deterministic, type-respecting values into every field slot."""
    for index, slot in enumerate(instance.layout.field_slots):
        current = instance.get(slot.name)
        if isinstance(current, list):
            instance.set(
                slot.name,
                [(salt + index + k) % 100 for k in range(len(current))],
            )
        elif isinstance(current, float):
            instance.set(slot.name, float(salt + index) + 0.5)
        elif isinstance(current, int):
            instance.set(slot.name, (salt * 7 + index) % 120)


class TestJsonCodecOverGeneratedClasses:
    def test_seed_programs_produce_classes(self):
        assert len(_generated_classes()) >= 4

    def test_field_map_survives_deserialization(self):
        """instance → wire → fresh instance: the rebuilt object must
        hold the original field map exactly."""
        for salt, class_def in enumerate(_generated_classes(), start=3):
            original = new_object(Machine(), class_def)
            _fill(original, salt)
            wire = RemoteObject(class_def.name, original.field_values())

            target = Machine()
            arena = target.static_object(class_def, "arena")
            rebuilt = construct_from_remote(
                target, class_def, arena.address, wire
            )
            assert rebuilt.field_values() == wire.fields, class_def.name

    def test_deserializer_marks_taint_on_generated_layouts(self):
        class_def = _generated_classes()[0]
        machine = Machine()
        remote = RemoteObject(class_def.name, new_object(machine, class_def).field_values())
        assert remote.tainted  # wire objects are untrusted by default

        target = Machine()
        taint = TaintEngine()
        arena = target.static_object(class_def, "arena")
        construct_from_remote(
            target, class_def, arena.address, remote, taint=taint
        )
        first = arena.layout.field_slots[0]
        assert TaintLabel.REMOTE_OBJECT in taint.labels_at(
            arena.address + first.offset, first.ctype.size
        )

    def test_surplus_wire_fields_are_ignored(self):
        """A malicious wire object padded with fields the class never
        declared: the deserializer writes only declared slots."""
        class_def = _generated_classes()[0]
        machine = Machine()
        original = new_object(machine, class_def)
        _fill(original, 11)
        fields = original.field_values()

        hostile = RemoteObject(
            class_name=class_def.name,
            fields={**fields, "evil_extra": list(range(64))},
        )
        target = Machine()
        arena = target.static_object(class_def, "arena")
        rebuilt = construct_from_remote(
            target, class_def, arena.address, hostile
        )
        assert rebuilt.field_values() == fields


class TestRemoteServiceRoundTrip:
    def test_malicious_student_into_generated_arena(self):
        """Listing 6's shape with fuzz-generated victims: a malicious
        service's oversized wire object deserializes into whatever class
        the generator produced without writing undeclared fields."""
        from repro.serialization import malicious_service

        remote = malicious_service().get_student()
        for class_def in _generated_classes()[:3]:
            target = Machine()
            arena = target.static_object(class_def, "arena")
            rebuilt = construct_from_remote(
                target, class_def, arena.address, remote
            )
            declared = {slot.name for slot in rebuilt.layout.field_slots}
            for name in remote.fields:
                if name not in declared:
                    continue  # silently dropped, never written
            assert set(rebuilt.field_values()) == declared


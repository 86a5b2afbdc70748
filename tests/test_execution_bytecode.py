"""Unit tests for the bytecode engine: compiler output, the compiled
cache, the VM's dispatch/timeout semantics, and the vectorized
``AddressSpace.locate`` fast path.

The CAPEC-10 taint-source contract lives here too: ``getenv``/``atoi``
and scripted-stdin plumbing are the attack surface the paper's
placement-new exploits enter through, so those seed families must
compile (never silently fall back to the interpreter) and must behave
byte-for-byte like the AST engine.
"""

import pytest

from repro.errors import SimulatedTimeout
from repro.execution import run_source
from repro.execution import vm as vm_module
from repro.execution.bytecode import disassemble
from repro.execution.vm import (
    BYTECODE_VERSION,
    BytecodeVM,
    UnsupportedConstruct,
    cache_stats,
    compile_source,
    compiled_for,
    reset_cache,
    run_source_bytecode,
    source_digest,
)
from repro.fuzz.seeds import generator_seeds
from repro.memory import AddressSpace
from repro.memory.segments import SegmentKind
from repro.runtime import Machine

RETURN_41 = "int main(int argc, int argv) {\n  return 40 + 1;\n}\n"

OVERFLOW = (
    "char pool[8];\n"
    "void clobber() {\n"
    "  int n;\n"
    "  cin >> n;\n"
    "  char *buf = new (pool) char[n];\n"
    "}\n"
)

ENV_SIZED = (
    "char pool[16];\n"
    "int main(int argc, int argv) {\n"
    '  char *raw = getenv("PAYLOAD_LIMIT");\n'
    "  int n = atoi(raw);\n"
    "  char *buf = new (pool) char[n];\n"
    "  return n;\n"
    "}\n"
)


def _taint_seeds():
    return [s for s in generator_seeds(20260808) if s.family == "taint-source"]


def _observe(source, stdin, use_vm, entry="main", args=(0, 0)):
    machine = Machine()
    try:
        if use_vm:
            _, outcome, engine = run_source_bytecode(
                source, entry=entry, args=args, machine=machine, stdin=stdin
            )
            assert engine == "bytecode"
        else:
            _, outcome = run_source(
                source, entry=entry, args=args, machine=machine, stdin=stdin
            )
        return ("ok", outcome.return_value, outcome.steps, tuple(machine.events))
    except Exception as error:
        return ("exc", type(error).__name__, str(error), tuple(machine.events))


class TestCompiler:
    def test_compiles_to_linear_code(self):
        compiled = compile_source(RETURN_41)
        assert "main" in compiled.function_index
        main = compiled.function_list[compiled.function_index["main"]]
        code = main.code
        assert code and all(len(instr) == 3 for instr in code)
        assert compiled.instruction_count == sum(
            len(f.code) for f in compiled.function_list
        ) + sum(len(f.code) for f in compiled.methods.values())
        assert compiled.version == BYTECODE_VERSION

    def test_disassemble_names_opcodes(self):
        compiled = compile_source(RETURN_41)
        main = compiled.function_list[compiled.function_index["main"]]
        listing = disassemble(main.code)
        assert any("RET" in line for line in listing)
        assert any("PUSH" in line for line in listing)

    def test_unsupported_construct_is_typed(self):
        # The class exists for callers to catch; the fixed corpora never
        # trigger it (tests/test_bytecode_parity.py proves that), so
        # exercise the raise path directly.
        with pytest.raises(UnsupportedConstruct):
            raise UnsupportedConstruct("statement Goto")


class TestCompiledCache:
    def setup_method(self):
        reset_cache()

    def test_hit_and_miss_counters(self):
        compiled_for(RETURN_41)
        compiled_for(RETURN_41)
        stats = cache_stats()
        assert stats["compiles"] == 1
        assert stats["cache_misses"] == 1
        assert stats["cache_hits"] == 1
        assert stats["cache_size"] == 1
        assert stats["version"] == BYTECODE_VERSION

    def test_parse_error_cached_as_interpreter_fallback(self):
        compiled, note = compiled_for("int main( {")
        assert compiled is None and note == ""
        # The decision is cached: a second ask is a hit, not a reparse.
        compiled_for("int main( {")
        stats = cache_stats()
        assert stats["cache_misses"] == 1
        assert stats["cache_hits"] == 1
        assert stats["compiles"] == 0  # a parse error never compiled

    def test_unsupported_falls_back_with_note(self, monkeypatch):
        def refuse(program, symbols=None):
            raise UnsupportedConstruct("statement Weird")

        monkeypatch.setattr(vm_module, "compile_program", refuse)
        compiled, note = compiled_for(RETURN_41)
        assert compiled is None
        assert note == "fallback:unsupported"
        assert cache_stats()["fallbacks"] == 1

    def test_compiler_crash_counts_and_names_source(self, monkeypatch):
        def crash(program, symbols=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(vm_module, "compile_program", crash)
        compiled, note = compiled_for(RETURN_41)
        assert compiled is None
        assert note == f"compile-error:{source_digest(RETURN_41)[:12]}"
        assert cache_stats()["compile_errors"] == 1

    def test_run_source_bytecode_falls_back_transparently(self, monkeypatch):
        monkeypatch.setattr(
            vm_module,
            "compile_program",
            lambda program, symbols=None: (_ for _ in ()).throw(
                UnsupportedConstruct("no")
            ),
        )
        _, outcome, engine = run_source_bytecode(RETURN_41)
        assert engine == "ast"
        assert outcome.return_value == 41


class TestVMSemantics:
    def setup_method(self):
        reset_cache()

    def test_return_value_and_steps_match_interpreter(self):
        assert _observe(RETURN_41, (), False) == _observe(RETURN_41, (), True)

    def test_fault_parity_on_placement_overflow(self):
        ast_run = _observe(OVERFLOW, (32,), False, entry="clobber", args=())
        vm_run = _observe(OVERFLOW, (32,), True, entry="clobber", args=())
        assert ast_run == vm_run

    def test_timeout_raised_at_identical_budget(self):
        spin = "int main(int argc, int argv) {\n  while (true) { argc = argc + 1; }\n  return 0;\n}\n"
        for budget in (100, 101, 257):
            ast_run = _observe(spin, (), False)
            machine = Machine()
            with pytest.raises(SimulatedTimeout) as caught:
                run_source_bytecode(spin, machine=machine, step_budget=budget)
            assert ast_run[0] == "exc" and ast_run[1] == "SimulatedTimeout"
            assert caught.value.args and str(budget) in str(caught.value)

    @pytest.mark.parametrize(
        "expr, operation",
        [
            ("argc / argv", "integer division"),
            ("argc % argv", "integer modulo"),
            ("1.5 / 0.0", "float division"),
            ("1.5 % 0.0", "float modulo"),
        ],
    )
    def test_zero_divisor_is_an_arithmetic_fault_on_both_engines(self, expr, operation):
        source = f"int main(int argc, int argv) {{\n  double q = {expr};\n  return 1;\n}}\n"
        ast_run = _observe(source, (), False)
        assert ast_run[:3] == (
            "exc", "ArithmeticFault", f"arithmetic fault (SIGFPE): {operation} by zero"
        )
        assert _observe(source, (), True) == ast_run

    def test_unknown_entry_raises_keyerror(self):
        compiled, _ = compiled_for(RETURN_41)
        vm = BytecodeVM(compiled)
        with pytest.raises(KeyError):
            vm.run("no_such_function")


class TestTaintSourceParity:
    """CAPEC-10: attacker-controlled sizes arriving via getenv/atoi,
    argc, or a laundering helper must not push the fast engine onto the
    slow path, and must observe identical taint events."""

    def test_taint_family_always_compiles(self):
        reset_cache()
        seeds = _taint_seeds()
        assert seeds, "generator no longer emits the taint-source family"
        for seed in seeds:
            compiled, note = compiled_for(seed.source)
            assert compiled is not None and note == "", (seed.label, note)

    def test_getenv_atoi_consume_scripted_stdin_identically(self):
        ast_run = _observe(ENV_SIZED, (9, 5), False)
        vm_run = _observe(ENV_SIZED, (9, 5), True)
        assert ast_run == vm_run
        assert ast_run[1] == 9  # first token fed the env read
        assert "getenv()" in ast_run[3]

    def test_oversized_env_token_faults_identically(self):
        ast_run = _observe(ENV_SIZED, (40,), False)
        vm_run = _observe(ENV_SIZED, (40,), True)
        assert ast_run == vm_run


class TestLocateFastPath:
    """The vectorized bulk-access contract: ``locate`` hands out a raw
    view only when that is indistinguishable from going through
    ``read``/``write`` — else it must return None."""

    def test_locate_resolves_mapped_data(self):
        machine = Machine()
        segment = machine.space.segment(SegmentKind.DATA)
        located = machine.space.locate(segment.base, 4)
        assert located is not None
        view, offset = located
        machine.space.write(segment.base, b"\x2a\x00\x00\x00")
        assert bytes(view[offset : offset + 4]) == b"\x2a\x00\x00\x00"

    def test_locate_refuses_unmapped_and_straddling(self):
        machine = Machine()
        segment = machine.space.segment(SegmentKind.DATA)
        assert machine.space.locate(segment.end + 0x100000, 1) is None
        assert machine.space.locate(segment.end - 2, 4) is None

    def test_locate_enforces_write_permission(self):
        machine = Machine()
        text = machine.space.segment(SegmentKind.TEXT)
        assert machine.space.locate(text.base, 4) is not None
        assert machine.space.locate(text.base, 4, writable=True) is None

    def test_locate_disabled_while_hooked(self):
        machine = Machine()
        segment = machine.space.segment(SegmentKind.DATA)
        hook = lambda address, data, is_write: None  # noqa: E731
        machine.space.add_access_hook(hook)
        assert machine.space.locate(segment.base, 4) is None
        machine.space.remove_access_hook(hook)
        assert machine.space.locate(segment.base, 4) is not None

    def test_locate_resolves_a_whole_segment_only_unobserved_and_lenient(self):
        """Hooks or ``strict_alignment`` refuse even a range that spans
        exactly one whole segment."""
        segment = AddressSpace().segment(SegmentKind.HEAP)
        plain = AddressSpace()
        assert plain.locate(segment.base, segment.size) is not None
        hooked = AddressSpace()
        hooked.add_access_hook(lambda address, data, is_write: None)
        assert hooked.locate(segment.base, segment.size) is None
        strict = AddressSpace(strict_alignment=True)
        assert strict.locate(segment.base, segment.size) is None

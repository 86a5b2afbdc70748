"""Unit tests for small modules: errors, control flow, text image, CLI
extensions."""

import json


from repro.cli import analyze_main, exec_main
from repro.cxx import NATIVE_STUB_MAGIC, TextImage
from repro.errors import (
    BoundsCheckViolation,
    BusError,
    DoubleFree,
    IllegalInstruction,
    NonExecutableMemory,
    SegmentationFault,
    StackSmashingDetected,
)
from repro.memory import AddressSpace
from repro.runtime.control_flow import ExecutionKind, ExecutionResult, FrameExit


class TestErrorRendering:
    def test_segfault_message(self):
        error = SegmentationFault(0x41414141, "write", "unmapped")
        assert "0x41414141" in str(error)
        assert error.access == "write"

    def test_stack_smash_message_matches_gcc(self):
        error = StackSmashingDetected("addStudent", expected=1, found=2)
        assert "*** stack smashing detected ***" in str(error)

    def test_bounds_check_sizes(self):
        error = BoundsCheckViolation(arena_size=16, object_size=32)
        assert "32" in str(error) and "16" in str(error)

    def test_bus_error(self):
        error = BusError(0x1003, 4, "read")
        assert "bus error" in str(error)
        assert error.alignment == 4

    def test_double_free(self):
        assert "double free" in str(DoubleFree(0x2000))

    def test_illegal_instruction(self):
        error = IllegalInstruction(0x3000, 0x13)
        assert "0x13" in str(error)

    def test_nx(self):
        assert "non-executable" in str(NonExecutableMemory(0x4000))


class TestControlFlowTypes:
    def test_native_shell_detection(self):
        result = ExecutionResult(
            address=1, kind=ExecutionKind.NATIVE, function_name="system"
        )
        assert result.spawned_shell

    def test_non_shell_native(self):
        result = ExecutionResult(
            address=1, kind=ExecutionKind.NATIVE, function_name="exit"
        )
        assert not result.spawned_shell

    def test_frame_exit_hijack_flag(self):
        exit_ = FrameExit(
            function="f", normal=False, returned_to=2, original_return=1
        )
        assert exit_.hijacked
        normal = FrameExit(
            function="f", normal=True, returned_to=1, original_return=1
        )
        assert not normal.hijacked


class TestTextImage:
    def test_function_stub_written(self):
        space = AddressSpace()
        text = TextImage(space)
        entry = text.register_function("probe", lambda m: None)
        assert space.read(entry.address, 4) == NATIVE_STUB_MAGIC

    def test_registration_idempotent(self):
        space = AddressSpace()
        text = TextImage(space)
        a = text.register_function("f", lambda m: 1)
        b = text.register_function("f", lambda m: 2)
        assert a is b

    def test_function_lookup_exact_only(self):
        space = AddressSpace()
        text = TextImage(space)
        entry = text.register_function("f", lambda m: None)
        assert text.function_at(entry.address) is entry
        assert text.function_at(entry.address + 1) is None

    def test_vtable_emission_readable(self):
        space = AddressSpace()
        text = TextImage(space)
        f = text.register_function("C::m", lambda m: None)
        table = text.emit_vtable("C", [("m", f.address)])
        assert space.read_pointer(table.address) == f.address  # slot 0
        assert text.vtable_at(table.address) is table


class TestCliExtensions:
    def test_analyze_json_output(self, capsys, tmp_path):
        source = tmp_path / "v.cpp"
        source.write_text(
            "class A { public: double d; };\n"
            "class B : public A { public: int x[4]; };\n"
            "A arena;\n"
            "void f() { B *b = new (&arena) B(); }\n"
        )
        analyze_main([str(source), "--json"])
        out = capsys.readouterr().out
        boundary = out.index("}\n{") + 1
        header = json.loads(out[:boundary])
        payload = json.loads(out[boundary:])
        assert header["tool"] == "repro-analyze"
        assert header["fingerprint"]["detector"]
        assert payload["tool"] == "placement-analyzer"
        rules = {finding["rule"] for finding in payload["findings"]}
        assert "PN-OVERSIZE" in rules

    def test_exec_runs_file(self, capsys, tmp_path):
        source = tmp_path / "p.cpp"
        source.write_text("int f() { return 41 + 1; }")
        assert exec_main([str(source), "--entry", "f", "--args", ""]) == 0
        out = capsys.readouterr().out
        assert "returned 42" in out

    def test_exec_reports_overflowing_placement(self, capsys, tmp_path):
        from repro.workloads.corpus import LISTING_11

        source = tmp_path / "l11.cpp"
        source.write_text(LISTING_11.source)
        exec_main(
            [str(source), "--entry", "addStudent", "--args", "1", "--stdin", "1,2,3"]
        )
        out = capsys.readouterr().out
        assert "OVERFLOW" in out

    def test_exec_simulated_death_is_reported(self, capsys, tmp_path):
        from repro.workloads.corpus import LISTING_13

        source = tmp_path / "l13.cpp"
        source.write_text(LISTING_13.source)
        code = exec_main(
            [
                str(source),
                "--entry",
                "addStudent",
                "--args",
                "1",
                "--stdin",
                "1111,2222,3333",
                "--canary",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "stack smashing" in out

"""Tests for method execution and virtual dispatch in the executor."""

import pytest

from repro.analysis.parser import parse
from repro.core import construct
from repro.errors import ApiMisuseError, SegmentationFault
from repro.execution import Interpreter
from repro.memory.encoding import encode_double
from repro.workloads.corpus import VTABLE_VARIANT, _CLASSES


class TestMethodExecution:
    def test_method_reads_and_writes_fields(self):
        interp = Interpreter(
            parse(
                "class Counter { public: int n; "
                "int bump(int by) { n = n + by; return n; } };"
                "Counter c;"
                "int drive() { return c.bump(5); }"
            )
        )
        assert interp.run("drive").return_value == 5
        counter = interp.globals.lookup("c")
        assert interp.machine.space.read_int(counter.address) == 5

    def test_arrow_method_call(self):
        interp = Interpreter(
            parse(
                "class P { public: int x; int getX() { return x; } };"
                "int drive() { P *p = new P(); p->x = 9; return p->getX(); }"
            )
        )
        assert interp.run("drive").return_value == 9

    def test_run_method_helper(self):
        interp = Interpreter(
            parse("class P { public: int x; int twice() { return x * 2; } };")
        )
        lowered = interp.symbols.cxx_class("P")
        address = interp.machine.heap.allocate(4)
        interp.machine.space.write_int(address, 21)
        assert interp.run_method("P", "twice", address) == 42

    def test_unknown_method_rejected(self):
        interp = Interpreter(parse("class P { public: int x; };"))
        with pytest.raises(ApiMisuseError):
            interp.run_method("P", "nope", 0x1000)

    def test_listing10_style_internal_overflow_via_method(self):
        """Listing 10 executed: the method's placement + member writes
        corrupt the host object's second Student, internally."""
        interp = Interpreter(
            parse(
                _CLASSES
                + """
class MobilePlayer {
  public:
    Student stud1, stud2;
    int n;
    void addStudentPlayer(int s0, int s1) {
      GradStudent *st = new (&stud1) GradStudent(2.0, 2010, 1);
      st->ssn[0] = s0;
      st->ssn[1] = s1;
      ++n;
    }
};
MobilePlayer player;
void driver() {
  player.addStudentPlayer(1234, 5678);
}
"""
            )
        )
        player = interp.globals.lookup("player")
        interp.machine.space.write(player.address + 16, encode_double(3.25))
        interp.run("driver")
        assert interp.machine.space.read_double(player.address + 16) != 3.25
        assert interp.machine.space.read_int(player.address + 32) == 1  # ++n


class TestVirtualDispatchFromSource:
    def _build(self):
        interp = Interpreter(
            parse(
                VTABLE_VARIANT.source
                + """
void probe() {
  Student *p = &stud2;
  char *info = p->getInfo();
}
"""
            )
        )
        stud2 = interp.globals.lookup("stud2")
        construct(
            interp.machine, interp.symbols.cxx_class("Student"), stud2.address
        )
        return interp

    def test_legitimate_dispatch(self):
        interp = self._build()
        interp.run("probe")
        assert "dispatched Student::getInfo" in interp.machine.events

    def test_derived_override_selected_dynamically(self):
        interp = self._build()
        stud2 = interp.globals.lookup("stud2")
        construct(
            interp.machine, interp.symbols.cxx_class("GradStudent"), stud2.address
        )
        interp.run("probe")  # static type Student, dynamic GradStudent
        assert "dispatched GradStudent::getInfo" in interp.machine.events

    def test_corrupted_vptr_crashes_dispatch(self):
        """§3.8.2 executed from source: the overflow rewrites stud2's
        vptr; the next virtual call dies on the wild pointer."""
        interp = self._build()
        interp.machine.stdin.feed(0x41414141)
        interp.run("addStudent")
        with pytest.raises(SegmentationFault):
            interp.run("probe")

    def test_vptr_redirected_to_fake_vtable(self):
        """The arbitrary-method payoff, executed from source."""
        interp = self._build()
        machine = interp.machine
        from repro.cxx import UINT

        fake = machine.static_array(UINT, 2, "fake_table")
        target = machine.text.function_named("grantAdminAccess").address
        machine.space.write_pointer(fake.address, target)
        machine.stdin.feed(fake.address)
        interp.run("addStudent")
        interp.run("probe")
        assert "admin access granted" in machine.events

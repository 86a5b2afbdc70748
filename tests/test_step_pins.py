"""Step-count and verdict pins for the interpreter.

Every runnable paper listing (plus the safe and classic controls) and
every generator seed family, both ground-truth labels, runs the way the
fuzz oracle runs it: planned entry and arguments, seeded canaries, the
attacker stdin, the password file and the 50k step budget.  Each run's
step count, return value (or fault and the step it faulted on) and
memory-tap event kinds are pinned to the values recorded before the
interpreter's type-keyed dispatch, the integer codec rewrite and the
raw heap walk — so a cheaper step can never become a different step.

Each program runs twice: once with the event tap attached (every heap
header read observed, the exact per-read path) and once with no access
hook (the heap walks its headers straight from the backing store).
Both must match the same pin.

The committed corpora (every package under ``corpus/packages`` and
every regression bundle under ``corpus/regress``, with its stdin) and a
second draw of the generator families run the same way against pins of
their own.
"""

from pathlib import Path
from unittest import mock

import pytest

from repro.analysis import parse_cached
from repro.defenses import ALL_DEFENSES
from repro.errors import SimulatedProcessError
from repro.execution.interpreter import Interpreter
from repro.fuzz.oracles import DEFAULT_STDIN, DEFAULT_STEP_BUDGET, _entry_plan
from repro.fuzz.seeds import generator_seeds
from repro.memory import MemoryEventTap
from repro.regress import RegressionStore
from repro.runtime import (
    CallFrame,
    CanaryPolicy,
    Machine,
    MachineConfig,
    password_file,
)
from repro.workloads.corpus import FULL_CORPUS

#: Seed of the generator families' programs.
SEED = 7


def _plan(source: str):
    """The oracle's entry plan, or ``main(0, 0)`` for the listings whose
    only function is ``main(int, char**)``; None when neither applies
    (Listings 6 and 7 take object pointers, Listing 10 has no function)."""
    plan = _entry_plan(source)
    if plan is None and any(
        function.name == "main" for function in parse_cached(source).functions
    ):
        plan = ("main", (0, 0))
    return plan


def _programs() -> dict:
    """name -> (source, stdin) for every program with an entry plan."""
    programs = {program.key: (program.source, ()) for program in FULL_CORPUS}
    for fuzz_input in generator_seeds(SEED):
        key = f"{fuzz_input.family}-{fuzz_input.label}"
        programs[key] = (fuzz_input.source, fuzz_input.stdin)
    return {
        name: program
        for name, program in programs.items()
        if _plan(program[0]) is not None
    }


PROGRAMS = _programs()


def observe(source: str, stdin: tuple, hooked: bool) -> tuple:
    """``(outcome, steps, value, tap kinds)`` of one oracle-style run.

    ``outcome`` is ``"ok"`` or the fault's type name; ``value`` is the
    return value (None after a fault).  Without ``hooked`` the tap is
    announced to the machine but not attached, so no access hook runs
    and its kinds stay empty.
    """
    entry, args = _plan(source)
    machine = Machine(MachineConfig(canary_policy=CanaryPolicy.RANDOM))
    machine.files.add(password_file())
    tap = MemoryEventTap(machine.space)
    machine.event_tap = tap
    if hooked:
        machine.space.add_access_hook(tap)
    interpreter = Interpreter(
        parse_cached(source), machine=machine, step_budget=DEFAULT_STEP_BUDGET
    )
    machine.stdin.feed(*(tuple(stdin) or DEFAULT_STDIN))
    try:
        outcome = interpreter.run(entry, *args)
    except Exception as error:
        return type(error).__name__, interpreter.steps, None, tuple(sorted(tap.kinds))
    return "ok", outcome.steps, outcome.return_value, tuple(sorted(tap.kinds))


#: name -> (outcome, steps, return value, tap kinds), recorded with the
#: tap attached.
PINS = {
    'classic-gets': ('ApiMisuseError', 4, None, ('write:stack',)),
    'classic-sprintf': ('ApiMisuseError', 4, None, ('write:heap', 'write:stack')),
    'classic-strcpy': ('ok', 6, None, ('write:heap', 'write:stack')),
    'direct-safe': ('ok', 4, None, ('write:stack',)),
    'direct-vulnerable': ('ok', 4, None, ('write:stack',)),
    'dos-loop-safe': ('ok', 121, None, ('write:stack',)),
    'dos-loop-vulnerable': ('SimulatedTimeout', 50001, None, ('write:stack',)),
    'guarded-safe': ('ok', 8, None, ('write:stack',)),
    'guarded-vulnerable': ('ok', 8, None, ('write:stack',)),
    'helper-safe': ('ok', 9, None, ('write:stack',)),
    'helper-vulnerable': ('ok', 9, None, ('write:stack',)),
    'leak-safe': ('ok', 17, None, ('write:bss', 'write:stack')),
    'leak-vulnerable': ('ok', 12, None, ('write:bss', 'write:stack')),
    'listing11-data-bss': ('ok', 18, 1, ('write:bss', 'write:stack')),
    'listing12-heap': ('ok', 24, 0, ('write:bss', 'write:heap', 'write:stack')),
    'listing13-stack-return': ('StackSmashingDetected', 54, None, ('write:stack',)),
    'listing15-local-variable': ('SimulatedTimeout', 50001, None, ('write:stack',)),
    'listing17-function-pointer': ('SegmentationFault', 18, None, ('write:stack',)),
    'listing19-two-step-stack': ('ok', 12, 0, ('write:heap', 'write:stack')),
    'listing21-info-leak-array': ('ok', 14, 0, ('write:bss', 'write:stack')),
    'listing22-info-leak-object': ('ok', 10, 0, ('write:bss', 'write:heap', 'write:stack')),
    'listing23-memory-leak': ('ok', 74, None, ('write:heap', 'write:stack')),
    'listing4-construction': ('ok', 7, None, ('write:stack',)),
    'listing5-remote-names': ('ok', 4, None, ('write:stack',)),
    'safe-checked-placement': ('ok', 4, None, ('write:stack',)),
    'safe-placement': ('ok', 7, None, ('write:stack',)),
    'taint-source-safe': ('ok', 12, None, ('write:stack',)),
    'taint-source-vulnerable': ('ok', 12, None, ('write:stack',)),
    'tainted-array-safe': ('ok', 4, None, ('write:stack',)),
    'tainted-array-vulnerable': ('ok', 7, None, ('write:stack',)),
    'vtable-subterfuge': ('ok', 6, None, ('write:bss', 'write:stack')),
}


def test_every_program_is_pinned():
    assert sorted(PINS) == sorted(PROGRAMS)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_observed_run_matches_pin(name):
    source, stdin = PROGRAMS[name]
    assert observe(source, stdin, hooked=True) == PINS[name]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_unobserved_run_matches_pin(name):
    source, stdin = PROGRAMS[name]
    outcome, steps, value, _ = PINS[name]
    assert observe(source, stdin, hooked=False) == (outcome, steps, value, ())


# -- committed corpora ----------------------------------------------------

REPO = Path(__file__).resolve().parent.parent

#: Seed of a second draw of the generator families; most of its sizes and
#: constants differ from seed 7's.
SECOND_SEED = 20260808


def _corpus_programs() -> dict:
    """name -> (source, stdin) for every committed package and regression
    bundle and every generator family at ``SECOND_SEED``."""
    programs = {
        path.stem: (path.read_text(), ())
        for path in sorted((REPO / "corpus" / "packages").glob("*.cpp"))
    }
    store = RegressionStore(REPO / "corpus" / "regress", create=False)
    for bundle_id in store.ids():
        bundle = store.load(bundle_id)
        programs[bundle_id[:12]] = (bundle.source, tuple(bundle.stdin))
    for fuzz_input in generator_seeds(SECOND_SEED):
        key = f"{fuzz_input.family}-{fuzz_input.label}-{SECOND_SEED}"
        programs[key] = (fuzz_input.source, fuzz_input.stdin)
    return programs


CORPUS_PROGRAMS = _corpus_programs()

#: name -> (outcome, steps, return value, tap kinds), recorded with the
#: tap attached.
CORPUS_PINS = {
    'pkg-00-leak': ('ok', 12, None, ('write:bss', 'write:stack')),
    'pkg-01-leak': ('ok', 17, None, ('write:bss', 'write:stack')),
    'pkg-02-leak': ('ok', 17, None, ('write:bss', 'write:stack')),
    'pkg-03-direct': ('ok', 4, None, ('write:stack',)),
    'pkg-04-leak': ('ok', 17, None, ('write:bss', 'write:stack')),
    'pkg-05-direct': ('ok', 4, None, ('write:stack',)),
    'pkg-06-leak': ('ok', 17, None, ('write:bss', 'write:stack')),
    'pkg-07-leak': ('ok', 17, None, ('write:bss', 'write:stack')),
    'pkg-08-tainted-array': ('ok', 4, None, ('write:stack',)),
    'pkg-09-leak': ('ok', 17, None, ('write:bss', 'write:stack')),
    'pkg-10-tainted-array': ('ok', 4, None, ('write:stack',)),
    'pkg-11-dos-loop': ('ok', 121, None, ('write:stack',)),
    'pkg-12-guarded': ('ok', 8, None, ('write:stack',)),
    'pkg-13-guarded': ('ok', 8, None, ('write:stack',)),
    'pkg-14-dos-loop': ('ok', 121, None, ('write:stack',)),
    'pkg-15-dos-loop': ('ok', 121, None, ('write:stack',)),
    'pkg-16-tainted-array': ('ok', 4, None, ('write:stack',)),
    'pkg-17-direct': ('ok', 4, None, ('write:stack',)),
    'pkg-18-direct': ('ok', 4, None, ('write:stack',)),
    'pkg-19-leak': ('ok', 12, None, ('write:bss', 'write:stack')),
    'pkg-20-helper': ('ok', 9, None, ('write:stack',)),
    'pkg-21-direct': ('ok', 4, None, ('write:stack',)),
    'pkg-22-tainted-array': ('ok', 4, None, ('write:stack',)),
    'pkg-23-tainted-array': ('ok', 4, None, ('write:stack',)),
    'rb-0344977f1': ('DoubleFree', 16, None, ('write:heap', 'write:stack')),
    'rb-0a4c02011': ('ok', 6, None, ('write:stack',)),
    'rb-0eadeb847': ('ok', 8, None, ('write:stack',)),
    'rb-43becdd10': ('ok', 11, 0, ('write:heap', 'write:stack')),
    'rb-49a4e62cd': ('ok', 12, 0, ('write:heap', 'write:stack')),
    'rb-73b26597c': ('ok', 58, None, ('write:heap', 'write:stack')),
    'rb-897cde94f': ('SegmentationFault', 6, None, ('write:stack',)),
    'rb-b09a53967': ('ok', 12, 0, ('write:heap', 'write:stack')),
    'rb-be0479c70': ('SimulatedTimeout', 50001, None, ('write:stack',)),
    'rb-cfe209758': ('ok', 12, 0, ('write:heap', 'write:stack')),
    'rb-d03571027': ('ok', 4, None, ('write:stack',)),
    'rb-dcf566780': ('ok', 7, None, ('write:stack',)),
    'rb-ed58da43a': ('ok', 7, None, ('write:stack',)),
    'direct-vulnerable-20260808': ('ok', 4, None, ('write:stack',)),
    'direct-safe-20260808': ('ok', 4, None, ('write:stack',)),
    'helper-vulnerable-20260808': ('ok', 9, None, ('write:stack',)),
    'helper-safe-20260808': ('ok', 9, None, ('write:stack',)),
    'guarded-vulnerable-20260808': ('ok', 8, None, ('write:stack',)),
    'guarded-safe-20260808': ('ok', 8, None, ('write:stack',)),
    'tainted-array-vulnerable-20260808': ('ok', 7, None, ('write:stack',)),
    'tainted-array-safe-20260808': ('ok', 4, None, ('write:stack',)),
    'leak-vulnerable-20260808': ('ok', 12, None, ('write:bss', 'write:stack')),
    'leak-safe-20260808': ('ok', 17, None, ('write:bss', 'write:stack')),
    'dos-loop-vulnerable-20260808': ('SimulatedTimeout', 50001, None, ('write:stack',)),
    'dos-loop-safe-20260808': ('ok', 121, None, ('write:stack',)),
    'taint-source-vulnerable-20260808': ('ok', 4, None, ('write:stack',)),
    'taint-source-safe-20260808': ('ok', 12, None, ('write:stack',)),
}


class TestCommittedCorpora:
    """Every committed program runs to its pinned outcome, step count
    and tap kinds, with and without the tap attached."""

    def test_every_program_is_pinned(self):
        # Also fails if a corpus directory moves or empties.
        assert sorted(CORPUS_PINS) == sorted(CORPUS_PROGRAMS)

    @pytest.mark.parametrize("name", sorted(CORPUS_PROGRAMS))
    def test_observed_run_matches_pin(self, name):
        source, stdin = CORPUS_PROGRAMS[name]
        assert observe(source, stdin, hooked=True) == CORPUS_PINS[name]

    @pytest.mark.parametrize("name", sorted(CORPUS_PROGRAMS))
    def test_unobserved_run_matches_pin(self, name):
        source, stdin = CORPUS_PROGRAMS[name]
        outcome, steps, value, _ = CORPUS_PINS[name]
        assert observe(source, stdin, hooked=False) == (outcome, steps, value, ())


# -- spinning loops -------------------------------------------------------

#: The classes the spin programs place; every placement fits its arena,
#: so the loop runs under every defense machine.
SPIN_CLASSES = (
    "class Tiny { public: int f0; };\n"
    "class Wide : public Tiny { public: int g0; int g1; };\n"
)


def _field_loop(field: str, cond: str, body: str) -> str:
    return SPIN_CLASSES + (
        "void run() {\n"
        "  Wide arena;\n"
        "  Wide *p = new (&arena) Wide();\n"
        f"  cin >> p->{field};\n"
        "  int i = 0;\n"
        f"  while ({cond}) {{\n"
        f"{body}"
        "  }\n"
        "}\n"
    )


def _counted_for(body: str) -> str:
    return (
        "void run() {\n"
        "  int n = 5;\n"
        "  cin >> n;\n"
        "  for (int i = 0; i < n; ++i) {\n"
        f"{body}"
        "  }\n"
        "}\n"
    )


#: The loop shapes the §4.4 spins take in the fuzz and matrix workloads:
#: a minimized bundle's empty body, the affine counter (once, twice or
#: 64 at a time) bounded by a field, and Listing 15's counted ``for``
#: with and without its no-op call.
SPIN_SHAPES = {
    "empty-while": _field_loop("f0", "i < p->f0 && i < 8", ""),
    "counter": _field_loop("g1", "i < p->g1", "    i = i + 1;\n"),
    "counter-twice": _field_loop(
        "g1", "i < p->g1", "    i = i + 1;\n    i = i + 1;\n"
    ),
    "counter-64": _field_loop("g1", "i < p->g1", "    i = i + 64;\n"),
    "for-call": _counted_for("    processOne(i);\n"),
    "for-empty": _counted_for(""),
}

#: The step budget of every spin case.
SPIN_BUDGET = 3000

#: shape -> case -> the bound fed on stdin: one far past the budget
#: (``spin``), the largest bound whose loop still exits within it
#: (``exits``) and the one after (``one-more``).  The empty body never
#: exits once entered, so its ``exits`` bound never enters the loop.
SPIN_BOUNDS = {
    "empty-while": {"spin": 1 << 20, "exits": 0, "one-more": 1},
    "counter": {"spin": 1 << 20, "exits": 331, "one-more": 332},
    "counter-twice": {"spin": 1 << 20, "exits": 458, "one-more": 459},
    "counter-64": {"spin": 1 << 20, "exits": 21184, "one-more": 21185},
    "for-call": {"spin": 1 << 20, "exits": 332, "one-more": 333},
    "for-empty": {"spin": 1 << 20, "exits": 498, "one-more": 499},
}

#: Machine name -> factory: a bare machine, one with the event tap, and
#: every matrix defense's machine (tap attached, as the matrix runs it).
SPIN_MACHINES = {
    "bare": (Machine, False),
    "tap": (Machine, True),
    **{
        defense.name: (
            lambda defense=defense: defense.fresh_environment().make_machine(),
            True,
        )
        for defense in ALL_DEFENSES
    },
}


def spin(source: str, stdin: tuple, machine_name: str, budget: int = SPIN_BUDGET):
    """``(outcome, steps, i's bytes, event count, tap kinds)`` of one run
    of ``run()`` with ``stdin``, on the named machine, under ``budget``.

    ``outcome`` is ``"ok"`` or the fault's type name, and ``steps`` the
    step the run ended (or faulted) on.  ``i``'s bytes are read straight
    from its segment after the run, so no hook sees the read.
    """
    make_machine, tapped = SPIN_MACHINES[machine_name]
    machine = make_machine()
    tap = MemoryEventTap(machine.space)
    if tapped:
        machine.event_tap = tap
        machine.space.add_access_hook(tap)
    declared = {}
    local_scalar = CallFrame.local_scalar

    def spy(frame, ctype, name, init=None):
        address = local_scalar(frame, ctype, name, init)
        declared[name.split("#")[0]] = address
        return address

    interpreter = Interpreter(
        parse_cached(source), machine=machine, step_budget=budget
    )
    machine.stdin.feed(*stdin)
    outcome = "ok"
    with mock.patch.object(CallFrame, "local_scalar", spy):
        try:
            interpreter.run("run")
        except SimulatedProcessError as error:
            outcome = type(error).__name__
    address = declared["i"]
    i_bytes = machine.space.find_segment(address).read(address, 4)
    return (
        outcome,
        interpreter.steps,
        i_bytes.hex(),
        len(machine.events),
        tuple(sorted(tap.kinds)),
    )


#: (shape, case) -> (outcome, steps, i's bytes, event count, tap kinds)
#: under :data:`SPIN_BUDGET`; every machine matches, the bare one with
#: no tap kinds.
SPIN_PINS = {
    ('empty-while', 'spin'): ('SimulatedTimeout', 3001, '00000000', 0, ('write:stack',)),
    ('empty-while', 'exits'): ('ok', 17, '00000000', 0, ('write:stack',)),
    ('empty-while', 'one-more'): ('SimulatedTimeout', 3001, '00000000', 0, ('write:stack',)),
    ('counter', 'spin'): ('SimulatedTimeout', 3001, '4c010000', 0, ('write:stack',)),
    ('counter', 'exits'): ('ok', 2992, '4b010000', 0, ('write:stack',)),
    ('counter', 'one-more'): ('SimulatedTimeout', 3001, '4c010000', 0, ('write:stack',)),
    ('counter-twice', 'spin'): ('SimulatedTimeout', 3001, 'cc010000', 0, ('write:stack',)),
    ('counter-twice', 'exits'): ('ok', 2990, 'ca010000', 0, ('write:stack',)),
    ('counter-twice', 'one-more'): ('SimulatedTimeout', 3001, 'cc010000', 0, ('write:stack',)),
    ('counter-64', 'spin'): ('SimulatedTimeout', 3001, '00530000', 0, ('write:stack',)),
    ('counter-64', 'exits'): ('ok', 2992, 'c0520000', 0, ('write:stack',)),
    ('counter-64', 'one-more'): ('SimulatedTimeout', 3001, '00530000', 0, ('write:stack',)),
    ('for-call', 'spin'): ('SimulatedTimeout', 3001, '4c010000', 332, ('write:stack',)),
    ('for-call', 'exits'): ('ok', 2997, '4c010000', 332, ('write:stack',)),
    ('for-call', 'one-more'): ('SimulatedTimeout', 3001, '4c010000', 332, ('write:stack',)),
    ('for-empty', 'spin'): ('SimulatedTimeout', 3001, 'f3010000', 0, ('write:stack',)),
    ('for-empty', 'exits'): ('ok', 2997, 'f2010000', 0, ('write:stack',)),
    ('for-empty', 'one-more'): ('SimulatedTimeout', 3001, 'f3010000', 0, ('write:stack',)),
}

#: Listing 15 as ``main``: the second SSN lands on ``n``, and each pass
#: of the inflated loop logs one ``processOne()`` event.
LISTING15_MAIN = (
    "class Student {\n"
    "  public:\n"
    "    Student();\n"
    "    Student(double g, int y, int s);\n"
    "    double gpa;\n"
    "    int year, semester;\n"
    "};\n"
    "class GradStudent : public Student {\n"
    "  public:\n"
    "    GradStudent();\n"
    "    GradStudent(double g, int y, int s);\n"
    "    int ssn[3];\n"
    "};\n"
    "int main(int argc, char **argv) {\n"
    "  int n = 5;\n"
    "  Student stud;\n"
    "  GradStudent *gs = new (&stud) GradStudent();\n"
    "  cin >> gs->ssn[1];\n"
    "  for (int i = 0; i < n; ++i) processOne(i);\n"
    "  return 0;\n"
    "}\n"
)


class TestSpinningLoops:
    """Every §4.4 loop shape, run to the budget, just inside it and one
    iteration past it, on a bare machine, under the tap and on every
    matrix defense's machine."""

    def test_every_case_is_pinned(self):
        cases = {
            (shape, case) for shape, bounds in SPIN_BOUNDS.items() for case in bounds
        }
        assert cases == set(SPIN_PINS)
        assert sorted(SPIN_SHAPES) == sorted(SPIN_BOUNDS)

    @pytest.mark.parametrize("machine_name", sorted(SPIN_MACHINES))
    @pytest.mark.parametrize("shape, case", sorted(SPIN_PINS))
    def test_run_matches_pin(self, shape, case, machine_name):
        pin = SPIN_PINS[shape, case]
        if machine_name == "bare":
            pin = pin[:4] + ((),)
        bound = SPIN_BOUNDS[shape][case]
        assert spin(SPIN_SHAPES[shape], (bound,), machine_name) == pin

    def test_repro_exec_listing15_inflated_bound(self, tmp_path, capsys):
        from repro.cli import exec_main

        program = tmp_path / "listing15.cpp"
        program.write_text(LISTING15_MAIN)
        assert exec_main([str(program), "--stdin", "10000"]) == 0
        assert capsys.readouterr().out == (
            "main() returned 0 after 90017 steps\n"
            "placement: GradStudent (32B) at 0xbffffed8 arena 16B OVERFLOW\n"
            + "event: processOne()\n" * 10000
        )

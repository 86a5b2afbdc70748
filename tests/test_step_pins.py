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
"""

import pytest

from repro.analysis import parse_cached
from repro.execution.interpreter import Interpreter
from repro.fuzz.oracles import DEFAULT_STDIN, DEFAULT_STEP_BUDGET, _entry_plan
from repro.fuzz.seeds import generator_seeds
from repro.memory import MemoryEventTap
from repro.runtime import CanaryPolicy, Machine, MachineConfig, password_file
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
        return type(error).__name__, interpreter.steps, None, tap.sorted_kinds()
    return "ok", outcome.steps, outcome.return_value, tap.sorted_kinds()


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

"""The interpreter's loop fast-forward against the plain interpreter.

A loop of the §4.4 spinning shapes (see
:func:`repro.execution.interpreter.loop_shape`) runs two probe
iterations and may then jump whole iterations at once.  Each generated
program here runs twice on identically built machines: once as shipped,
once with ``loop_shape`` patched to find no shape, so every iteration is
interpreted.  Steps, outcome, every segment's bytes, the machine's event
log, the tap's kinds and every defense's recorded faults must agree.
Every memory observer is repeat-safe and halts at its first violation,
so the jump never waits for the observers; a loop jumps under each of
the ten roster environments.

Generated loops are ``while`` and ``for`` counters, empty bodies and
no-op-call bodies, with random bounds, strides of either sign, start
values near the counter type's limits, small step budgets (so the
budget runs out in the condition, the body or the step) and random hook
sets.  Some inputs must make the fast path decline: a bound that reads
the counter through a pointer, and a call to a function the program
defines.
"""

from __future__ import annotations

import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import parse_cached
from repro.defenses import tagging, vrt
from repro.defenses.base import ALL_ENVIRONMENTS
from repro.execution import interpreter as interpreter_module
from repro.execution.interpreter import Interpreter
from repro.memory import MemoryEventTap, ShadowMemory
from repro.memory.segments import SegmentKind
from repro.runtime import CanaryPolicy, Machine, MachineConfig

#: Counter type -> (smallest, largest) value.
LIMITS = {
    "int": (-(1 << 31), (1 << 31) - 1),
    "unsigned int": (0, (1 << 32) - 1),
    "short": (-(1 << 15), (1 << 15) - 1),
}

#: Hooks a machine may carry.
HOOKS = ("tap", "vrt", "tagging", "shadow")

#: A loop statement that moves the counter (``{}`` is the amount); the
#: ``c + i`` form is outside the fast-forwarded shape.
INCREMENTS = ("i = i + {};", "i = {} + i;", "i = i - {};")
UNIT_STEPS = ("++i;", "i++;", "--i;", "i--;")
NOOP_CALLS = ("processOne(i);", "log(p->f1);", "audit(3);", "send(i, n);")


def program(
    ctype: str,
    start: int,
    head: str,
    body: list,
    field: int = 0,
    local: int = 0,
    defines: str = "",
) -> str:
    """``run()`` declaring ``p->f0 = field``, ``n = local``, the counter
    ``i`` and ``q = &i``, then the loop ``head { body }``."""
    return (
        "class Box { public: int f0; int f1; };\n"
        + defines
        + "void run() {\n"
        "  Box box;\n"
        "  Box *p = &box;\n"
        f"  p->f0 = {field};\n"
        "  p->f1 = 5;\n"
        f"  int n = {local};\n"
        f"  {ctype} i = {start};\n"
        "  int *q = &i;\n"
        f"  {head} {{\n"
        + "".join(f"    {line}\n" for line in body)
        + "  }\n"
        "}\n"
    )


@st.composite
def loops(draw, fallback: bool = False):
    """``(source, hooks, budget, declines)`` for one generated loop.

    ``declines`` is true when the input carries something the fast path
    must refuse (aliased bound, the program's own call).
    """
    ctype = draw(st.sampled_from(sorted(LIMITS)))
    smallest, largest = LIMITS[ctype]
    start = draw(
        st.one_of(
            st.integers(-40, 40),
            st.integers(largest - 300, largest),
            st.integers(smallest, smallest + 300),
        ).map(lambda value: min(max(value, smallest), largest))
    )

    def stride() -> int:
        return draw(st.sampled_from((1, 1, 2, 3, 7, 64, 1000, 30000)))

    def statement() -> str:
        kind = draw(st.sampled_from(("increment", "unit", "call")))
        if kind == "increment":
            return draw(st.sampled_from(INCREMENTS)).format(stride())
        if kind == "unit":
            return draw(st.sampled_from(UNIT_STEPS))
        return draw(st.sampled_from(NOOP_CALLS))

    body = [statement() for _ in range(draw(st.integers(0, 3)))]
    is_for = draw(st.booleans())
    step = None
    if is_for and draw(st.booleans()):
        step = statement().rstrip(";")

    def value(op: str) -> int:
        """Mostly a bound ``i op bound`` holds at the start, within a few
        thousand; sometimes anywhere in the counter's range."""
        if draw(st.integers(0, 3)):
            reach = draw(st.integers(1, 6000))
            drawn = start + reach if op in ("<", "<=") else start - reach
        else:
            drawn = draw(st.integers(smallest, largest))
        return min(max(drawn, -(1 << 31)), (1 << 31) - 1)

    values = {}

    def bound(op: str) -> str:
        """A literal, or a field (upper bounds) or local (lower bounds)."""
        memory = "p->f0" if op in ("<", "<=") else "n"
        kind = draw(st.sampled_from(("literal", memory)))
        if kind == "literal":
            return str(value(op))
        if kind not in values:
            values[kind] = value(op)
        return kind

    comparisons = []
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("<", "<=", ">", ">=")))
        if draw(st.booleans()):
            comparisons.append(f"i {op} {bound(op)}")
        else:
            mirrored = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
            comparisons.append(f"{bound(op)} {mirrored} i")

    declines = False
    defines = ""
    if fallback:
        trap = draw(st.sampled_from(("alias", "own-call", "own-noop")))
        declines = True
        if trap == "alias":
            comparisons.append(f"i {draw(st.sampled_from(('<', '<=')))} *q + 1")
        elif trap == "own-call":
            body.append("tick();")
            defines = "void tick() {\n}\n"
        elif trap == "own-noop":
            body.append("processOne(i);")
            defines = "void processOne(int k) {\n}\n"
    else:
        trap = None

    cond = " && ".join(comparisons)
    head = f"for (i = {start}; {cond}; {step or ''})" if is_for else f"while ({cond})"
    source = program(
        ctype,
        start,
        head,
        body,
        field=values.get("p->f0", value("<")),
        local=values.get("n", value(">")),
        defines=defines,
    )
    hooks = set(draw(st.lists(st.sampled_from(HOOKS), max_size=3)))
    budget = 100 + draw(st.integers(0, 2400))
    return source, tuple(sorted(hooks)), budget, declines


def _machine(hooks: tuple, environment=None) -> tuple:
    """A machine with ``hooks`` attached, plus the observers to compare;
    ``environment``'s armed machine when one is given.  A halting
    observer's violation is the run's outcome."""
    if environment is None:
        machine = Machine(MachineConfig(canary_policy=CanaryPolicy.RANDOM, canary_seed=5))
    else:
        machine = environment.make_machine()
    observers = {}
    if "tap" in hooks:
        tap = MemoryEventTap(machine.space)
        machine.event_tap = tap
        machine.space.add_access_hook(tap)
        observers["tap"] = lambda: sorted(tap.kinds)
    if "vrt" in hooks:
        table = vrt.protect_machine(machine)
        observers["vrt"] = lambda: list(map(str, table.violations))
    if "tagging" in hooks:
        tags = tagging.protect_machine(machine)
        observers["tagging"] = lambda: list(map(str, tags.faults))
    if "shadow" in hooks:
        # Red zones far from the loop: it never fires.
        shadow = ShadowMemory(machine.space)
        shadow.protect_arena(machine.space.segment(SegmentKind.HEAP).end - 64, 16)
        shadow.arm()
    return machine, observers


def observe(source: str, hooks: tuple, budget: int, environment=None) -> tuple:
    """Everything observable about one run of ``run()``."""
    machine, observers = _machine(hooks, environment)
    interpreter = Interpreter(parse_cached(source), machine=machine, step_budget=budget)
    try:
        interpreter.run("run")
        outcome = ("ok", "")
    except Exception as error:
        outcome = (type(error).__name__, str(error))
    memory = hashlib.sha256()
    for segment in machine.space.segments:
        memory.update(segment.read(segment.base, segment.size))
    return (
        interpreter.steps,
        outcome,
        memory.hexdigest(),
        list(machine.events),
        {name: read() for name, read in observers.items()},
    )


def differential(source: str, hooks: tuple, budget: int, environment=None) -> bool:
    """Assert both paths agree; True when the fast path jumped."""
    jumps = []
    fast_forward = Interpreter._fast_forward

    def spy(self, *args):
        before = self.steps
        fast_forward(self, *args)
        if self.steps != before:
            jumps.append(self.steps - before)

    with mock.patch.object(Interpreter, "_fast_forward", spy):
        fast = observe(source, hooks, budget, environment)
    with mock.patch.object(interpreter_module, "loop_shape", lambda stmt: None):
        slow = observe(source, hooks, budget, environment)
    assert fast == slow
    return bool(jumps)


@settings(deadline=None)
@given(loops())
def test_fast_forward_matches_plain_interpretation(case):
    source, hooks, budget, _ = case
    differential(source, hooks, budget)


@settings(deadline=None)
@given(loops(fallback=True))
def test_declined_fast_forward_matches_plain_interpretation(case):
    source, hooks, budget, declines = case
    assert declines
    assert not differential(source, hooks, budget)


#: name -> (source, hooks, budget): loops that leave through a lower
#: bound, or whose counter would leave its type's range mid-jump (the
#: plain path wraps it; the fast path must decline).
BOUNDARIES = {
    "down-to-lower-bound": (
        program("int", 2000, "while (i > n)", ["i = i - 3;"], local=7),
        ("tap",),
        8000,
    ),
    "int-max-wraps": (
        program("int", 2147483000, "while (i > n)", ["i = i + 7;"]),
        ("tap", "vrt"),
        3000,
    ),
    "unsigned-below-zero": (
        program("unsigned int", 300, "while (i < 5000)", ["i--;"]),
        ("tagging",),
        5000,
    ),
    "short-wraps-in-step": (
        program(
            "short", 32000, "for (i = 32000; i > -5; i = i + 64)", ["processOne(i);"]
        ),
        ("tap", "shadow"),
        3000,
    ),
    "two-sided": (
        program(
            "int",
            -40,
            "while (i >= n && p->f0 > i)",
            ["i = i + 2;", "i--;", "log(p->f1);"],
            field=900,
            local=-41,
        ),
        ("tap", "vrt", "tagging"),
        20000,
    ),
}


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_boundary_loop_matches_plain_interpretation(name):
    differential(*BOUNDARIES[name])


@pytest.mark.parametrize("environment", ALL_ENVIRONMENTS, ids=lambda env: env.label)
def test_jump_engages_under_every_roster_environment(environment):
    """Under each roster defense, with the event tap attached as the
    fuzzer attaches it, a shaped loop jumps and matches the plain path."""
    source = program(
        "int", 0, "while (i < p->f0)", ["i = i + 1;", "log(p->f1);"], field=3000
    )
    assert differential(source, ("tap",), 50_000, environment)


def test_jump_is_exact_at_scale_under_every_hook():
    """Ten million iterations under the tap, VRT, tagging and a
    shadow memory take the plain path's steps, extrapolated from two
    short plain runs, and leave every defense quiet."""
    hooks = ("shadow", "tagging", "tap", "vrt")

    def run(bound: int) -> tuple:
        source = program("int", 0, "while (i < p->f0)", ["i = i + 1;"], field=bound)
        return observe(source, hooks, 10**9)

    with mock.patch.object(interpreter_module, "loop_shape", lambda stmt: None):
        short, longer = run(10)[0], run(20)[0]
    steps, outcome, _, _, observers = run(10**7)
    per_iteration = (longer - short) // 10
    assert outcome == ("ok", "")
    assert steps == short + (10**7 - 10) * per_iteration
    assert observers == {"tagging": [], "tap": ["write:stack"], "vrt": []}

"""The two oracles the differential fuzzer plays against each other.

The *static* oracle is the placement-new detector: a source file is
vulnerable if any finding of WARNING severity or above fires.  The
*dynamic* oracle executes the same source on a fresh simulated machine
(scripted attacker stdin, the Listing 21 password file registered, a
:class:`~repro.memory.events.MemoryEventTap` attached, deterministic
canaries) and distills the run into a bounded set of event kinds —
placement overflows, faults, canary clobbers, vtable-slot overwrites,
info leaks, control-flow hijacks.

A divergence between the two verdicts is the fuzzer's whole signal;
runs the harness cannot judge (parse errors, unsupported constructs,
stdin exhaustion) are *invalid*, never divergent.
"""

from __future__ import annotations

from typing import Optional

from .._record import record
from ..analysis import analyze_source, parse_cached
from ..analysis.reports import Severity
from ..errors import (
    ParseError,
    SegmentationFault,
    SimulatedProcessError,
    SimulatedTimeout,
    StackSmashingDetected,
)
from ..memory import MemoryEventTap
from ..runtime import CanaryPolicy, Machine, MachineConfig, password_file
from .vocabulary import DEFAULT_STEP_BUDGET, VULNERABLE_EVENTS

#: Scripted attacker stdin used when an input carries none of its own:
#: a mix of huge counts (overflow/DoS triggers), plausible sizes, and
#: printable bytes, repeated so multi-read programs don't starve.
DEFAULT_STDIN = (9_000_001, 4096, 257, 65, 7, 3) * 2


@record(frozen=True)
class StaticVerdict:
    """What the detector said about one source."""

    rules: tuple = ()
    flagged: bool = False
    error_rules: tuple = ()  # the subset that fired at ERROR severity

    @property
    def vulnerable(self) -> bool:
        return self.flagged


@record(frozen=True)
class DynamicVerdict:
    """What one simulated execution observed."""

    events: tuple = ()
    valid: bool = True
    reason: str = ""  # why the run could not be judged, when invalid
    fault: str = ""  # exception class name when the process died

    @property
    def vulnerable(self) -> bool:
        return any(event in VULNERABLE_EVENTS for event in self.events)


@record(frozen=True)
class Observation:
    """One input, both verdicts."""

    static: StaticVerdict
    dynamic: DynamicVerdict
    entry: str = ""

    @property
    def valid(self) -> bool:
        return self.dynamic.valid

    @property
    def divergence_kind(self) -> Optional[str]:
        """"static-only", "dynamic-only", or None when the oracles agree
        (or the run cannot be judged)."""
        if not self.valid:
            return None
        if self.static.vulnerable and not self.dynamic.vulnerable:
            return "static-only"
        if self.dynamic.vulnerable and not self.static.vulnerable:
            return "dynamic-only"
        return None


@record(frozen=True)
class OracleConfig:
    """Knobs shared by every execution in one campaign."""

    step_budget: int = DEFAULT_STEP_BUDGET
    canary: bool = True  # deterministic (seeded) StackGuard canaries
    stdin: tuple = DEFAULT_STDIN


def static_verdict(source: str) -> Optional[StaticVerdict]:
    """Run the detector; ``None`` when the source does not parse."""
    try:
        report = analyze_source(source)
    except ParseError:
        return None
    errors = tuple(
        sorted(
            {f.rule for f in report.findings if f.severity >= Severity.ERROR}
        )
    )
    return StaticVerdict(
        rules=tuple(sorted(report.rules_fired())),
        flagged=report.flagged,
        error_rules=errors,
    )


def _entry_plan(source: str):
    """Pick the entry function and synthesize its arguments.

    Parameterless functions win (``run`` first, then ``main``, then
    declaration order); otherwise the first all-scalar signature gets
    deterministic attacker-ish arguments.  Returns ``None`` when no
    function is runnable without fabricating object graphs.
    """
    program = parse_cached(source)
    functions = list(program.functions)
    if not functions:
        return None
    parameterless = [f for f in functions if not f.params]
    parameterless.sort(
        key=lambda f: (f.name != "run", f.name != "main")
    )
    if parameterless:
        entry = parameterless[0]
        return entry.name, (0, 0) if entry.name == "main" else ()
    scalar_args = {"int": 7, "short": 7, "char": 65, "bool": 1, "double": 4.0, "float": 4.0}
    for function in functions:
        args = []
        for param in function.params:
            if param.type.pointer_depth == 1 and param.type.name == "char":
                args.append("attacker")
            elif param.type.pointer_depth == 0 and param.type.name in scalar_args:
                args.append(scalar_args[param.type.name])
            else:
                args = None
                break
        if args is not None:
            return function.name, tuple(args)
    return None


#: 8-byte probes sampled across the registered secret file; a stored
#: payload that reproduces any of them has leaked real secret content
#: (nonzero-but-constant bytes, e.g. from ``memset(p, 64, n)``, do not).
_SECRET = password_file().content
_SECRET_PROBES = tuple(
    _SECRET[offset : offset + 8] for offset in range(0, len(_SECRET) - 8, 8)
)


def _secret_leaked(stored) -> bool:
    """Did any ``store()``-ed payload carry recognizable secret bytes?"""
    for _, data in stored:
        blob = bytes(data)
        if any(probe in blob for probe in _SECRET_PROBES):
            return True
    return False


@record(frozen=True)
class ProgramRun:
    """What :func:`run_program` observed on one machine."""

    entry: str
    events: frozenset = frozenset()  # hijack, placement, leak and tap kinds
    fault: Optional[SimulatedProcessError] = None  # what stopped the process
    error: str = ""  # why the run cannot be judged (not a simulated fault)


def run_program(
    source: str, make_machine, stdin: tuple, step_budget: int = DEFAULT_STEP_BUDGET
) -> Optional[ProgramRun]:
    """Run ``source``'s planned entry on ``make_machine()`` (password
    file registered, memory-event tap attached) and observe it.

    ``None`` when no function is runnable, before any machine is built;
    an entry-planning error (a source that does not parse) propagates.
    """
    from ..execution import run_source

    plan = _entry_plan(source)
    if plan is None:
        return None
    entry, args = plan
    machine = make_machine()
    machine.files.add(password_file())
    tap = MemoryEventTap(machine.space)
    machine.event_tap = tap
    machine.space.add_access_hook(tap)

    events: set = set()
    fault = None
    stored = ()
    try:
        interpreter, outcome = run_source(
            source,
            entry=entry,
            args=args,
            machine=machine,
            stdin=stdin,
            step_budget=step_budget,
        )
        stored = interpreter.stored
        if outcome.frame_exit is not None and outcome.frame_exit.hijacked:
            events.add("hijack")
    except SimulatedProcessError as error:
        # Without its traceback the fault holds no frame, so no cycle
        # keeps this machine alive until the next full collection.
        fault = error.with_traceback(None)
    except Exception as error:  # ApiMisuse, missing stdin, bad entry...
        return ProgramRun(entry, error=f"{type(error).__name__}: {error}")
    finally:
        # The space holds the tap and the tap holds the space: detached,
        # the finished machine is freed by reference counting instead of
        # waiting, segments and all, for the cyclic collector.
        machine.space.remove_access_hook(tap)

    for record in machine.placement_log.records:
        events.add(
            "placement-overflow" if record.overflows_arena else "placement-fit"
        )
    if _secret_leaked(stored):
        events.add("leak-detected")
    events.update(tap.kinds)
    return ProgramRun(entry, frozenset(events), fault)


def dynamic_verdict(
    source: str, stdin: tuple = (), config: OracleConfig = OracleConfig()
) -> tuple:
    """Execute ``source`` and distill the run into a verdict.

    Returns ``(entry_name, DynamicVerdict)``; the verdict is invalid
    (never divergent) when the harness cannot judge the run.
    """
    canary = CanaryPolicy.RANDOM if config.canary else CanaryPolicy.NONE
    try:
        run = run_program(
            source,
            lambda: Machine(MachineConfig(canary_policy=canary)),
            tuple(stdin) or config.stdin,
            config.step_budget,
        )
    except ParseError as error:
        return "", DynamicVerdict(valid=False, reason=f"parse: {error}")
    if run is None:
        return "", DynamicVerdict(valid=False, reason="no runnable entry")
    if run.error:
        return run.entry, DynamicVerdict(valid=False, reason=run.error)
    events = set(run.events)
    fault = ""
    if run.fault is not None:
        fault = type(run.fault).__name__
        events.add(f"fault:{fault}")
        if isinstance(run.fault, SegmentationFault):
            events.add("segment-faulted")
        elif isinstance(run.fault, StackSmashingDetected):
            events.add("canary-clobbered")
        elif isinstance(run.fault, SimulatedTimeout):
            events.add("dos-timeout")
    return run.entry, DynamicVerdict(events=tuple(sorted(events)), fault=fault)


def run_oracles(
    source: str, stdin: tuple = (), config: OracleConfig = OracleConfig()
) -> Observation:
    """Both oracles over one input."""
    static = static_verdict(source)
    if static is None:
        return Observation(
            static=StaticVerdict(),
            dynamic=DynamicVerdict(valid=False, reason="parse error"),
        )
    entry, dynamic = dynamic_verdict(source, stdin, config)
    return Observation(static=static, dynamic=dynamic, entry=entry)

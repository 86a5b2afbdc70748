"""Address-space layout randomization — the probabilistic defense.

The paper's testbed (Ubuntu 10.04) shipped ASLR for the stack and heap;
the attacks as published assume known addresses.  This module makes the
assumption explicit and measurable: an :func:`aslr_machine` randomizes
segment bases per process, and :class:`StaleAddressAttack` models the
attacker whose recon came from a *different* process instance — the
hijacked return lands wherever the stale address falls now.

ASLR does not remove the vulnerability (the overflow still corrupts the
neighbour); it only randomizes the *payoff* of address-dependent
control-flow redirection, which the experiment quantifies as a success
probability.
"""

from __future__ import annotations

import random

from .._record import record
from ..attacks.base import AttackResult, AttackScenario, Environment
from ..core.placement import placement_new
from ..errors import SimulatedProcessError
from ..memory.address_space import DEFAULT_LAYOUT
from ..memory.segments import SegmentKind
from ..runtime.machine import Machine, MachineConfig
from ..workloads.classes import make_student_classes

#: Randomization granularity: bases move in 64 KiB pages within a
#: 16 MiB window, a (scaled-down but proportionate) stand-in for the
#: 2^28-ish entropy of 32-bit Linux mmap randomization.
ASLR_PAGE = 0x10000
ASLR_SLOTS = 256


def randomized_layout(rng: random.Random) -> dict:
    """A segment layout with independently shifted text/heap/stack."""
    layout = dict(DEFAULT_LAYOUT)
    text_base, text_size = layout[SegmentKind.TEXT]
    shift = rng.randrange(ASLR_SLOTS) * ASLR_PAGE
    # Slide the whole image (text..heap) together, as PIE does, and the
    # stack independently.
    for kind in (SegmentKind.TEXT, SegmentKind.DATA, SegmentKind.BSS, SegmentKind.HEAP):
        base, size = layout[kind]
        layout[kind] = (base + shift, size)
    stack_base, stack_size = layout[SegmentKind.STACK]
    stack_shift = rng.randrange(ASLR_SLOTS) * ASLR_PAGE
    layout[SegmentKind.STACK] = (stack_base - stack_shift, stack_size)
    return layout


def aslr_machine(seed: int, config: MachineConfig | None = None) -> Machine:
    """A machine whose image layout is randomized by ``seed``."""
    rng = random.Random(seed)
    machine = Machine(config or MachineConfig())
    # Rebuild every subsystem against the randomized geometry (the
    # constructor wired them to the default layout).
    from ..core.placement import PlacementAuditLog
    from ..cxx.layout import LayoutEngine
    from ..cxx.text import TextImage
    from ..cxx.vtable import VTableBuilder
    from ..memory.address_space import AddressSpace
    from ..memory.heap import HeapAllocator
    from ..memory.stack import StackRegion
    from ..memory.tracker import AllocationTracker
    from ..runtime.canary import CanarySource
    from ..runtime.functions import install_standard_library
    from ..runtime.io import FileSystem, SimulatedStdin

    machine.space = AddressSpace(layout=randomized_layout(rng))
    machine.layouts = LayoutEngine()
    machine.text = TextImage(machine.space)
    machine.vtables = VTableBuilder(machine.text)
    machine.heap = HeapAllocator(machine.space)
    machine.stack = StackRegion(machine.space)
    machine.tracker = AllocationTracker()
    machine.placement_log = PlacementAuditLog()
    machine.canaries = CanarySource(
        machine.config.canary_policy, seed=machine.config.canary_seed
    )
    machine.stdin = SimulatedStdin()
    machine.files = FileSystem()
    machine.events = []
    machine.syscalls = []
    machine._globals = {}
    data = machine.space.segment(SegmentKind.DATA)
    bss = machine.space.segment(SegmentKind.BSS)
    machine._cursors = {SegmentKind.DATA: data.base, SegmentKind.BSS: bss.base}
    install_standard_library(machine)
    return machine


@record
class AslrTrialOutcome:
    """One stale-address attempt against one randomized victim."""

    seed: int
    succeeded: bool
    crashed: bool
    stale_target: int
    actual_target: int


class StaleAddressAttack(AttackScenario):
    """The Listing 13 hijack with recon-then-attack across ASLR.

    The attacker learns ``system``'s address from their own copy of the
    binary (seed 0) and replays it against victims randomized with other
    seeds.  Without ASLR every trial lands; with it, only the collision
    cases do.
    """

    name = "aslr-stale-address"
    paper_ref = "(extension: the address-knowledge assumption, quantified)"
    description = "stale recon address vs randomized victim image"

    def __init__(self, trials: int = 40, recon_seed: int = 0) -> None:
        self.trials = trials
        self.recon_seed = recon_seed

    def _one_trial(self, victim: Machine, stale_target: int) -> AslrTrialOutcome:
        student_cls, grad_cls = make_student_classes()
        frame = victim.push_frame("addStudent")
        stud = frame.local_object(student_cls, "stud")
        gs = placement_new(victim, stud, grad_cls)
        ret_index = 1 if victim.config.save_frame_pointer else 0
        gs.set_element("ssn", ret_index, stale_target)
        actual = victim.text.function_named("system").address
        try:
            exit_ = victim.pop_frame(frame)
            succeeded = (
                exit_.execution is not None
                and exit_.execution.function_name == "system"
            )
            return AslrTrialOutcome(
                seed=0,
                succeeded=succeeded,
                crashed=False,
                stale_target=stale_target,
                actual_target=actual,
            )
        except SimulatedProcessError:
            return AslrTrialOutcome(
                seed=0,
                succeeded=False,
                crashed=True,
                stale_target=stale_target,
                actual_target=actual,
            )

    def execute(self, env: Environment) -> AttackResult:
        recon = aslr_machine(self.recon_seed, env.machine_config)
        stale_target = recon.text.function_named("system").address
        wins = 0
        crashes = 0
        for trial in range(self.trials):
            victim = aslr_machine(1000 + trial, env.machine_config)
            outcome = self._one_trial(victim, stale_target)
            wins += int(outcome.succeeded)
            crashes += int(outcome.crashed)
        return self.result(
            env,
            succeeded=(wins > 0),
            trials=self.trials,
            wins=wins,
            crashes=crashes,
            success_rate=wins / self.trials,
        )


def run_aslr_comparison(trials: int = 40) -> dict:
    """Stale-address success with and without randomization."""
    attack = StaleAddressAttack(trials=trials)
    with_aslr = attack.run(Environment(label="aslr"))

    # Control: every "randomized" victim uses the recon seed, i.e. the
    # deterministic layout the paper's attacks assume.
    control_attack = StaleAddressAttack(trials=trials, recon_seed=7)
    control_wins = 0
    recon = aslr_machine(7)
    stale = recon.text.function_named("system").address
    for _ in range(trials):
        victim = aslr_machine(7)
        control_wins += int(control_attack._one_trial(victim, stale).succeeded)

    return {
        "aslr_success_rate": with_aslr.detail["success_rate"],
        "aslr_crash_count": with_aslr.detail["crashes"],
        "deterministic_success_rate": control_wins / trials,
        "trials": trials,
    }

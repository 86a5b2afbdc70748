"""Shadow call stack — the §5.2 alternative StackGuard comparison.

The paper: *"In order to provide non-executable stacks, a possible
approach is to use a return address stack, which holds the return
addresses of functions"* ([27] Wilander & Kamkar, [20] Ragel).  Unlike a
canary — which only notices writes *between* the locals and the saved
registers — a shadow stack compares the return address itself against a
protected copy, so the E4 selective overwrite cannot evade it.

This is the *machine-integrated* successor of the original wrapper
implementation: :func:`protect_machine` installs a
:class:`ShadowCallStack` on ``machine.call_shadow`` and the machine
itself consults it inside ``push_frame``/``pop_frame`` — the way a
hardware shadow stack (Intel CET) or kernel-protected region sits below
the program rather than being monkey-patched over it.  The protected
copies live outside the simulated address space, so no simulated write
can reach them.

The earlier implementation kept one strictly-LIFO list and compared the
popped entry blindly.  That desynchronizes on longjmp-style teardown —
an outer frame popped while abandoned inner frames still hold entries —
turning every subsequent check into a false positive (or worse, letting
a real tamper slide by against a stale entry).  arXiv 2412.16343
measures exactly this class of deployment bug in real shadow stacks.
:meth:`check_return` instead unwinds to the entry belonging to *this*
frame, discarding abandoned inner entries, and only then verifies.
"""

from __future__ import annotations

from .._record import field, record
from ..errors import SimulatedProcessError
from ..runtime.frames import CallFrame
from ..runtime.machine import Machine


class ReturnAddressTampering(SimulatedProcessError):
    """The shadow stack rejected a mismatched return address."""

    def __init__(self, function: str, expected: int, found: int) -> None:
        self.function = function
        self.expected = expected
        self.found = found
        super().__init__(
            f"return-address stack mismatch in {function}: "
            f"stored {expected:#010x}, frame holds {found:#010x}"
        )


@record
class _ShadowEntry:
    """One protected record: which activation, what it must return to."""

    frame_id: int
    function: str
    expected_return: int


@record
class ShadowCallStack:
    """Protected copies of every live frame's return address.

    Entries are keyed by frame identity so a non-LIFO unwind (longjmp,
    exception teardown) discards the abandoned activations instead of
    misattributing their entries to the surviving frame.
    """

    _stack: list = field(default_factory=list)
    checks: int = 0
    tamper_events: int = 0
    unwound_frames: int = 0

    def record_call(self, frame: CallFrame) -> None:
        """Prologue half: push the protected copy."""
        self._stack.append(
            _ShadowEntry(
                frame_id=id(frame),
                function=frame.name,
                expected_return=frame.original_return,
            )
        )

    def check_return(self, frame: CallFrame, observed_return: int) -> None:
        """Epilogue half: verify the frame's return target.

        Abandoned inner entries (frames torn down by a longjmp without
        their epilogues running) are unwound silently — their returns
        never execute, so there is nothing to verify.  The *returning*
        frame's entry must match or the process aborts.
        """
        self.checks += 1
        while self._stack and self._stack[-1].frame_id != id(frame):
            self._stack.pop()
            self.unwound_frames += 1
        if self._stack:
            entry = self._stack.pop()
            expected = entry.expected_return
        else:
            # No entry survived for this frame (it was itself unwound by
            # an earlier non-LIFO pop): fall back to the value recorded
            # at call time, still held by the protected CallFrame.
            expected = frame.original_return
        if observed_return != expected:
            self.tamper_events += 1
            # Abort, as [20] does in hardware (strictest policy).
            raise ReturnAddressTampering(
                frame.name, expected=expected, found=observed_return
            )

    def arm(self, machine: Machine) -> None:
        """Install on ``machine``: its frame pushes and pops consult this
        stack from now on."""
        self._machine = machine
        machine.call_shadow = self

    def disarm(self) -> None:
        """Take this stack off the machine :meth:`arm` installed it on."""
        self._machine.call_shadow = None


def protect_machine(machine: Machine) -> ShadowCallStack:
    """Attach a shadow call stack to ``machine`` and return it."""
    shadow = ShadowCallStack()
    shadow.arm(machine)
    return shadow

"""StackGuard canaries, as shipped by gcc and probed in Section 5.2.

The paper's StackGuard experiment has two halves: naive stack smashing is
*detected* (the process aborts), while a **selective overwrite** that
skips the canary word goes *undetected*.  Both outcomes depend only on
the canary's value surviving until function return, which this module
models: a policy chooses the canary value, the frame writes it below the
saved registers, and the epilogue verifies it.
"""

from __future__ import annotations

import enum
import random

from .._record import record
from ..errors import ApiMisuseError

#: The classic terminator canary: NUL, CR, LF, 0xFF — bytes that string
#: functions cannot copy past.  (Irrelevant to placement-new overflows,
#: which are not string copies: the paper's point exactly.)
TERMINATOR_CANARY = 0x000AFF0D


class CanaryPolicy(enum.Enum):
    """Which stack-protector flavour a machine is compiled with."""

    NONE = "none"
    TERMINATOR = "terminator"
    RANDOM = "random"

    @property
    def enabled(self) -> bool:
        """True if frames carry a canary word."""
        return self is not CanaryPolicy.NONE


@record(frozen=True)
class CanaryCheck:
    """Result of one epilogue verification."""

    expected: int
    found: int

    @property
    def intact(self) -> bool:
        """True when the canary survived the function body."""
        return self.expected == self.found


class CanarySource:
    """Produces per-process canary values under a given policy.

    gcc derives one random canary per process at startup; we mirror that
    (one draw per source) so selective-overwrite attacks cannot trivially
    re-derive it, while tests can seed it for determinism.
    """

    def __init__(self, policy: CanaryPolicy, seed: int | None = None) -> None:
        self._policy = policy
        rng = random.Random(seed)
        if policy is CanaryPolicy.RANDOM:
            # Keep a zero byte in position 0 like glibc, which also
            # terminates string copies.
            self._value = (rng.getrandbits(24) << 8) & 0xFFFFFFFF
        elif policy is CanaryPolicy.TERMINATOR:
            self._value = TERMINATOR_CANARY
        else:
            self._value = 0

    @property
    def policy(self) -> CanaryPolicy:
        """The active policy."""
        return self._policy

    @property
    def value(self) -> int:
        """The process-wide canary word."""
        if not self._policy.enabled:
            raise ApiMisuseError("no canary under policy 'none'")
        return self._value

    def check(self, found: int) -> CanaryCheck:
        """Compare a frame's canary slot against the expected value."""
        return CanaryCheck(expected=self.value, found=found)

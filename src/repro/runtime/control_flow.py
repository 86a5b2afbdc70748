"""Control-flow transfer outcomes.

When a simulated indirect transfer happens — a function returns through a
(possibly corrupted) return address, a virtual call goes through a
(possibly corrupted) vptr, a function pointer is invoked — the target
address is resolved against the process image and one of three things
happens, captured by :class:`ExecutionResult`:

* the address is a registered function entry → that function runs
  (*arc injection* when the attacker chose it, Section 3.6.2);
* the address lands in mapped, executable, non-text memory → the bytes
  there are interpreted as shellcode (*code injection*);
* anything else → a simulated fault.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from .._record import record
from .shellcode import ShellcodeResult


class ExecutionKind(enum.Enum):
    """How a transfer target was executed."""

    NATIVE = "native"
    SHELLCODE = "shellcode"


@record(frozen=True)
class ExecutionResult:
    """The consequence of one indirect control transfer."""

    address: int
    kind: ExecutionKind
    function_name: Optional[str] = None
    privileged: bool = False
    shellcode: Optional[ShellcodeResult] = None
    return_value: Any = None

    @property
    def spawned_shell(self) -> bool:
        """Did the transfer end in a shell — the canonical attack goal?"""
        if self.shellcode is not None and self.shellcode.spawned_shell:
            return True
        return self.function_name == "system"


@record(frozen=True)
class FrameExit:
    """How a function invocation ended (the epilogue's observations)."""

    function: str
    normal: bool
    returned_to: int
    original_return: int
    canary_intact: Optional[bool] = None
    fp_clobbered: bool = False
    execution: Optional[ExecutionResult] = None

    @property
    def hijacked(self) -> bool:
        """True when control left through a rewritten return address."""
        return not self.normal

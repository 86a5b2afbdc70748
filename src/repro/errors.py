"""Exception hierarchy for the simulated process and its tooling.

The simulator distinguishes *simulated program failures* (segmentation
faults, stack-smashing aborts, allocation failures — things the simulated
process would experience) from *API misuse* by the Python caller.  The
former derive from :class:`SimulatedProcessError`, the latter from
:class:`ReproError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ApiMisuseError(ReproError):
    """The Python caller used the library API incorrectly.

    This never corresponds to behaviour of the simulated process; it means
    the host program passed inconsistent arguments (e.g. a negative size).
    """


class LayoutError(ReproError):
    """A class or type layout could not be computed (e.g. unknown base)."""


class SimulatedProcessError(ReproError):
    """Base class for failures *inside* the simulated process.

    These model events the paper discusses: crashes, aborts, allocation
    failure.  Attack scenarios catch these to classify outcomes.
    """


class SegmentationFault(SimulatedProcessError):
    """Access to an unmapped address or a permission violation.

    Parameters mirror what a debugger would report: the faulting address
    and the kind of access (``"read"``, ``"write"`` or ``"execute"``).
    """

    def __init__(self, address: int, access: str, reason: str = "") -> None:
        self.address = address
        self.access = access
        self.reason = reason
        detail = f" ({reason})" if reason else ""
        super().__init__(
            f"segmentation fault: invalid {access} at {address:#010x}{detail}"
        )


class StackSmashingDetected(SimulatedProcessError):
    """StackGuard aborted the process: the canary was clobbered on return.

    Mirrors gcc's ``*** stack smashing detected ***`` abort.
    """

    def __init__(self, function: str, expected: int, found: int) -> None:
        self.function = function
        self.expected = expected
        self.found = found
        super().__init__(
            f"*** stack smashing detected ***: {function} terminated "
            f"(canary {found:#010x} != {expected:#010x})"
        )


class BoundsCheckViolation(SimulatedProcessError):
    """A *defended* placement new refused an out-of-bounds placement.

    Raised only by the checked placement-new of Section 5.1; the unchecked
    primitive (the paper's vulnerability) never raises this.
    """

    def __init__(self, arena_size: int, object_size: int, detail: str = "") -> None:
        self.arena_size = arena_size
        self.object_size = object_size
        suffix = f": {detail}" if detail else ""
        super().__init__(
            f"placement-new bounds check failed: object of {object_size} bytes "
            f"does not fit arena of {arena_size} bytes{suffix}"
        )


class RedZoneViolation(SimulatedProcessError):
    """The shadow-memory sanitizer observed a write into a red zone."""

    def __init__(self, address: int, size: int) -> None:
        self.address = address
        self.size = size
        super().__init__(
            f"red-zone violation: {size}-byte write touching {address:#010x}"
        )


class OutOfMemory(SimulatedProcessError):
    """The simulated heap or stack is exhausted."""


class StackOverflowError_(OutOfMemory):
    """The simulated call stack ran past its segment."""


class DoubleFree(SimulatedProcessError):
    """``delete`` / ``free`` called twice on the same block."""

    def __init__(self, address: int) -> None:
        self.address = address
        super().__init__(f"double free of block at {address:#010x}")


class InvalidFree(SimulatedProcessError):
    """``delete`` / ``free`` called on a pointer that is not a live block."""

    def __init__(self, address: int) -> None:
        self.address = address
        super().__init__(f"invalid free of {address:#010x}")


class BusError(SimulatedProcessError):
    """Misaligned scalar access on a strict-alignment target (SIGBUS).

    Models the paper's §2.5 warning that placement new "does not enforce
    any checking of alignment [which] may lead to incorrect semantics,
    and to program termination" — on strict targets, termination is a
    bus error at the first misaligned load/store.
    """

    def __init__(self, address: int, alignment: int, access: str) -> None:
        self.address = address
        self.alignment = alignment
        self.access = access
        super().__init__(
            f"bus error: {access} of {alignment}-aligned scalar at "
            f"misaligned address {address:#010x}"
        )


class ArithmeticFault(SimulatedProcessError):
    """Division or modulo by zero (SIGFPE), of float operands too."""

    def __init__(self, operation: str) -> None:
        self.operation = operation
        super().__init__(f"arithmetic fault (SIGFPE): {operation} by zero")


class IllegalInstruction(SimulatedProcessError):
    """Control flow reached bytes that do not decode to an instruction."""

    def __init__(self, address: int, byte: int) -> None:
        self.address = address
        self.byte = byte
        super().__init__(
            f"illegal instruction {byte:#04x} at {address:#010x}"
        )


class NonExecutableMemory(SimulatedProcessError):
    """Control flow reached a page without execute permission (NX)."""

    def __init__(self, address: int) -> None:
        self.address = address
        super().__init__(
            f"attempted execution of non-executable memory at {address:#010x}"
        )


class SimulatedTimeout(SimulatedProcessError):
    """A simulated loop exceeded its instruction budget (DoS outcome)."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        super().__init__(f"simulated execution exceeded budget of {budget} steps")


class ParseError(ReproError):
    """MiniC++ source could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)

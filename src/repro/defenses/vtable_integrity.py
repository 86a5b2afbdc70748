"""VTable-pointer integrity checking (a CFI-style mitigation).

The §3.8.2 subterfuge works because a virtual call trusts whatever word
sits at the object's vptr slot.  This defense validates, at every
dispatch, that the vptr is the address of a vtable the program actually
emitted — the forward-edge half of control-flow integrity, applied to
exactly the paper's attack.  Like the shadow stack it wraps the machine;
the metadata (the set of legitimate vtables) lives outside simulated
memory, as a loader-protected section would.
"""

from __future__ import annotations

from .._record import record
from ..cxx.object_model import Instance
from ..errors import SimulatedProcessError
from ..runtime.machine import Machine


class VtableIntegrityViolation(SimulatedProcessError):
    """A virtual call through a vptr that is no emitted vtable."""

    def __init__(self, class_name: str, vptr: int) -> None:
        self.class_name = class_name
        self.vptr = vptr
        super().__init__(
            f"vtable integrity violation: {class_name} object's vptr "
            f"{vptr:#010x} is not a known vtable"
        )


@record
class VtableIntegrityGuard:
    """Wraps ``machine.virtual_call`` with a legitimacy check."""

    machine: Machine
    checks: int = 0
    violations: int = 0
    #: Optional stricter policy: the vtable must belong to a subclass of
    #: the static type (full CFI), not merely *some* class.
    require_compatible_class: bool = True

    def arm(self) -> None:
        """Wrap the machine's dispatch with the check."""
        original = self.machine.virtual_call
        # What :meth:`disarm` puts back: the instance's own dispatch, or
        # None when the machine used its class's method.
        self._replaced = vars(self.machine).get("virtual_call")

        def guarded_virtual_call(instance: Instance, method: str, *args):
            self.checks += 1
            vptr = self.machine.space.read_pointer(
                instance.address + instance.layout.primary_vptr_offset
            )
            table = self.machine.text.vtable_at(vptr)
            if table is None:
                self.violations += 1
                raise VtableIntegrityViolation(instance.class_def.name, vptr)
            if self.require_compatible_class:
                static = instance.class_def
                # A table is compatible with the static type when it
                # carries (at least) the static type's virtual slots in
                # the same order — exactly the Itanium-ABI property a
                # derived class's vtable has for each of its bases.
                expected = static.virtual_slot_order()
                actual = tuple(name for name, _ in table.slots)
                compatible = len(actual) >= len(expected) and all(
                    actual[i] == name for i, name in enumerate(expected)
                )
                if not compatible:
                    self.violations += 1
                    raise VtableIntegrityViolation(static.name, vptr)
            return original(instance, method, *args)

        self.machine.virtual_call = guarded_virtual_call  # type: ignore[method-assign]

    def disarm(self) -> None:
        """Put back the dispatch :meth:`arm` wrapped."""
        if self._replaced is None:
            del self.machine.virtual_call
        else:
            self.machine.virtual_call = self._replaced  # type: ignore[method-assign]


def protect_machine(machine: Machine) -> VtableIntegrityGuard:
    """Attach vtable-integrity checking to ``machine``."""
    guard = VtableIntegrityGuard(machine)
    guard.arm()
    return guard

"""repro — a byte-accurate reproduction of "A New Class of Buffer
Overflow Attacks" (Kundu & Bertino, ICDCS 2011).

The library simulates a 32-bit process image in pure Python and
reproduces every placement-new attack, defense, and analysis result from
the paper.  Start with::

    from repro import Machine, placement_new
    from repro.workloads import make_student_classes

    machine = Machine()
    student_cls, grad_cls = make_student_classes()
    stud = machine.static_object(student_cls, "stud")
    gs = placement_new(machine, stud, grad_cls)   # the vulnerability

See README.md for the full tour and DESIGN.md for the architecture.
"""

from ._exports import exports_getattr

#: Public name -> the submodule that defines it, imported on first
#: access (see :mod:`repro._exports`).
_EXPORTS = {
    **dict.fromkeys(
        (
            "checked_placement_new",
            "checked_placement_new_array",
            "delete_array",
            "delete_object",
            "new_array",
            "new_object",
            "placement_delete",
            "placement_new",
            "placement_new_array",
            "placement_new_in_pool",
        ),
        "core",
    ),
    **dict.fromkeys(
        (
            "BoundsCheckViolation",
            "OutOfMemory",
            "ReproError",
            "SegmentationFault",
            "SimulatedProcessError",
            "StackSmashingDetected",
        ),
        "errors",
    ),
    **dict.fromkeys(("CanaryPolicy", "Machine", "MachineConfig"), "runtime"),
}

__version__ = "1.0.0"

__all__ = sorted([*_EXPORTS, "__version__"])

__getattr__ = exports_getattr(__name__, _EXPORTS)

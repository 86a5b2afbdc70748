"""The simulated victim process runtime.

A :class:`Machine` is one process: segments, heap, stack, text image,
canary source, scripted stdin.  Frames (:mod:`frames`) reproduce the gcc
stack discipline whose layout the paper's stack attacks index into;
:mod:`shellcode` interprets injected payloads; :mod:`control_flow`
classifies where hijacked control ended up.
"""

from .._exports import exports_getattr

#: Public name -> the submodule that defines it, imported on first
#: access (see :mod:`repro._exports`).
_EXPORTS = {
    **dict.fromkeys(("CanaryCheck", "CanaryPolicy", "CanarySource", "TERMINATOR_CANARY"), "canary"),
    **dict.fromkeys(("ExecutionKind", "ExecutionResult", "FrameExit"), "control_flow"),
    **dict.fromkeys(("CallFrame", "FrameSlots", "INITIAL_FRAME_POINTER"), "frames"),
    **dict.fromkeys(("CALLER_SYMBOL", "install_standard_library"), "functions"),
    **dict.fromkeys(("FileSystem", "SimulatedFile", "SimulatedStdin", "password_file"), "io"),
    **dict.fromkeys(("GlobalVar", "Machine", "MachineConfig"), "machine"),
    **dict.fromkeys(
        (
            "MAX_STEPS",
            "OP_NOP",
            "OP_PUSH",
            "OP_RET",
            "OP_SYSCALL",
            "ShellcodeResult",
            "assemble",
            "interpret",
            "spawn_shell_payload",
        ),
        "shellcode",
    ),
}

__all__ = sorted(_EXPORTS)

__getattr__ = exports_getattr(__name__, _EXPORTS)

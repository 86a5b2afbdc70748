"""A miniature injected-code ISA and its interpreter.

Code injection (Section 3.6.2) requires that attacker-written bytes be
*executable*: the attacker stores a payload in the overflowed region and
redirects control into it.  Real shellcode is x86; our simulated CPU
instead interprets this small instruction set — the security semantics
(NX bypass requirements, NOP sleds, syscall side effects, crashes on
garbage) carry over byte for byte.

Encoding (all little-endian):

=========  =======================  =====================================
opcode     operands                 effect
=========  =======================  =====================================
``0x90``   —                        NOP (sled filler, same as x86)
``0x68``   imm32                    PUSH immediate onto a scratch stack
``0xCD``   syscall# (1 byte)        SYSCALL: 1=exit, 2=spawn shell,
                                    3=write, 4=setuid
``0xC3``   —                        RET (ends the payload)
=========  =======================  =====================================

Anything else raises :class:`IllegalInstruction`, the simulated SIGILL a
sloppy payload earns.
"""

from __future__ import annotations

from .._record import field, record
from ..errors import IllegalInstruction, NonExecutableMemory, SegmentationFault
from ..memory.address_space import AddressSpace

OP_NOP = 0x90
OP_PUSH = 0x68
OP_SYSCALL = 0xCD
OP_RET = 0xC3

SYS_EXIT = 1
SYS_SPAWN_SHELL = 2
SYS_WRITE = 3
SYS_SETUID = 4

SYSCALL_NAMES = {
    SYS_EXIT: "exit",
    SYS_SPAWN_SHELL: "spawn_shell",
    SYS_WRITE: "write",
    SYS_SETUID: "setuid",
}

#: Safety valve: a payload may not run longer than this many instructions.
MAX_STEPS = 10_000


@record
class ShellcodeResult:
    """What an interpreted payload did."""

    start_address: int
    steps: int = 0
    syscalls: list[str] = field(default_factory=list)
    pushed: list[int] = field(default_factory=list)
    exited: bool = False

    @property
    def spawned_shell(self) -> bool:
        """True if the payload reached the classic goal."""
        return "spawn_shell" in self.syscalls


def assemble(*instructions) -> bytes:
    """Build payload bytes from ("nop"|"push",imm|"syscall",n|"ret") ops."""
    out = bytearray()
    for instruction in instructions:
        if instruction == "nop":
            out.append(OP_NOP)
        elif instruction == "ret":
            out.append(OP_RET)
        elif isinstance(instruction, tuple) and instruction[0] == "push":
            out.append(OP_PUSH)
            out += int(instruction[1]).to_bytes(4, "little", signed=False)
        elif isinstance(instruction, tuple) and instruction[0] == "syscall":
            out.append(OP_SYSCALL)
            out.append(int(instruction[1]))
        else:
            raise ValueError(f"unknown instruction {instruction!r}")
    return bytes(out)


def spawn_shell_payload(sled: int = 16) -> bytes:
    """The canonical attack payload: NOP sled + execve("/bin/sh") + ret.

    A sled widens the set of return addresses that land safely, just as
    in real exploits where the exact stack address is uncertain.
    """
    return (
        bytes([OP_NOP]) * sled
        + assemble(("push", 0x6E69622F), ("syscall", SYS_SPAWN_SHELL), "ret")
    )


def interpret(
    space: AddressSpace,
    address: int,
    enforce_nx: bool = True,
    max_steps: int = MAX_STEPS,
) -> ShellcodeResult:
    """Execute payload bytes starting at ``address``.

    Raises :class:`NonExecutableMemory` when NX is enforced and the
    segment lacks execute permission; :class:`SegmentationFault` when the
    address is unmapped; :class:`IllegalInstruction` on undecodable
    bytes.  All three are the realistic failure modes of a misaimed jump.
    """
    segment = space.find_segment(address)
    if segment is None:
        raise SegmentationFault(address, "execute", "jump target unmapped")
    if enforce_nx and not segment.permissions.execute:
        raise NonExecutableMemory(address)

    result = ShellcodeResult(start_address=address)
    pc = address
    while result.steps < max_steps:
        opcode = space.read(pc, 1)[0]
        result.steps += 1
        if opcode == OP_NOP:
            pc += 1
        elif opcode == OP_RET:
            result.exited = True
            break
        elif opcode == OP_PUSH:
            value = int.from_bytes(space.read(pc + 1, 4), "little")
            result.pushed.append(value)
            pc += 5
        elif opcode == OP_SYSCALL:
            number = space.read(pc + 1, 1)[0]
            name = SYSCALL_NAMES.get(number)
            if name is None:
                raise IllegalInstruction(pc + 1, number)
            result.syscalls.append(name)
            if name == "exit":
                result.exited = True
                break
            pc += 2
        else:
            raise IllegalInstruction(pc, opcode)
    return result

"""Simulated I/O: the attacker's keyboard and the victim's files.

Every interactive attack in the paper reads member values from ``cin``
(``cin >> st->ssn[0]`` …); :class:`SimulatedStdin` replays a scripted
attacker input stream deterministically.  :class:`SimulatedFile` stands
in for the password file of Listing 21 and friends.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Union

from ..errors import ApiMisuseError

Token = Union[int, float, str]


class SimulatedStdin:
    """A scripted ``cin``: a queue of tokens the program extracts."""

    def __init__(self, tokens: Iterable[Token] = ()) -> None:
        self._tokens: deque[Token] = deque(tokens)
        self._consumed: list[Token] = []

    def feed(self, *tokens: Token) -> None:
        """Append attacker-chosen tokens to the stream."""
        self._tokens.extend(tokens)

    def _next(self) -> Token:
        if not self._tokens:
            raise ApiMisuseError("simulated stdin exhausted")
        token = self._tokens.popleft()
        self._consumed.append(token)
        return token

    def read_int(self) -> int:
        """``cin >> some_int``."""
        token = self._next()
        try:
            return int(token)
        except (TypeError, ValueError, OverflowError):
            raise ApiMisuseError(f"stdin token {token!r} is not an int") from None

    def read_double(self) -> float:
        """``cin >> some_double``."""
        token = self._next()
        try:
            return float(token)
        except (TypeError, ValueError):
            raise ApiMisuseError(f"stdin token {token!r} is not a double") from None

    def read_string(self) -> str:
        """``cin >> some_string`` (whitespace-free token)."""
        return str(self._next())

    @property
    def remaining(self) -> int:
        """Tokens not yet consumed."""
        return len(self._tokens)

    @property
    def consumed(self) -> tuple[Token, ...]:
        """Tokens the program has read so far."""
        return tuple(self._consumed)


class SimulatedFile:
    """An in-memory file the simulated program can read or mmap."""

    def __init__(self, name: str, content: bytes) -> None:
        self.name = name
        self._content = bytes(content)

    @property
    def content(self) -> bytes:
        """The full file contents."""
        return self._content

    def read(self, count: int | None = None) -> bytes:
        """Read up to ``count`` bytes from the start (stateless)."""
        if count is None:
            return self._content
        return self._content[:count]

    def __len__(self) -> int:
        return len(self._content)


def password_file(entries: int = 8) -> SimulatedFile:
    """A plausible ``/etc/passwd``-style secret for the E10 leak demo."""
    lines = []
    for index in range(entries):
        lines.append(
            f"user{index:02d}:$6$salt{index:02d}$h4shh4shh4sh{index:02d}:10{index:02d}:"
            f"100:User {index}:/home/user{index:02d}:/bin/bash"
        )
    return SimulatedFile("/etc/passwd", "\n".join(lines).encode("latin-1"))


class FileSystem:
    """A tiny name → file mapping for scenarios that open files."""

    def __init__(self) -> None:
        self._files: dict[str, SimulatedFile] = {}

    def add(self, file: SimulatedFile) -> None:
        """Register a file."""
        self._files[file.name] = file

    def open(self, name: str) -> SimulatedFile:
        """Fetch a registered file or fail like ENOENT."""
        try:
            return self._files[name]
        except KeyError:
            raise ApiMisuseError(f"no such simulated file: {name}") from None

    def exists(self, name: str) -> bool:
        """True if ``name`` is registered."""
        return name in self._files

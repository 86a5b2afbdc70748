"""The ``repro-attacks`` transcript, byte for byte.

``corpus/matrix/baseline.json`` pins the matrix cells' summaries; this
pins what ``repro-attacks`` prints: the ``--list`` roster, the
``--matrix`` table and the ``--verbose`` gallery under each of the ten
roster environments, every detail line included.  Each command runs in
a fresh interpreter, as a user would run it, and must print exactly the
recorded section of ``corpus/attacks/transcript.txt``.

A change meant to move the gallery re-records the file with
``PYTHONPATH=src python tests/test_attacks_transcript.py`` and shows
the diff in its review.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
TRANSCRIPT = REPO_ROOT / "corpus" / "attacks" / "transcript.txt"

#: Every roster ``--env`` label, spelled out so a renamed label fails here.
LABELS = (
    "unprotected",
    "stackguard",
    "checked-placement",
    "shadow-memory",
    "nx",
    "sanitize-on-reuse",
    "shadow-return-stack",
    "vtable-integrity",
    "vrt",
    "memory-tagging",
)

COMMANDS = [("--list",), ("--matrix",)] + [("--env", label, "--verbose") for label in LABELS]

#: Each section of the transcript opens with this and the command's arguments.
HEADER = "$ repro-attacks "


def run_attacks(argv) -> str:
    """``repro-attacks argv``'s stdout from a fresh interpreter."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from repro.cli import attacks_main; sys.exit(attacks_main(sys.argv[1:]))",
            *argv,
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def recorded_sections() -> dict:
    """Transcript section per command, keyed by its argument string."""
    sections: dict = {}
    for line in TRANSCRIPT.read_text().splitlines(keepends=True):
        if line.startswith(HEADER):
            command = line[len(HEADER) :].rstrip("\n")
            sections[command] = ""
        else:
            sections[command] += line
    return sections


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_matches_the_recorded_transcript(argv):
    assert run_attacks(argv) == recorded_sections()[" ".join(argv)]


def test_the_transcript_has_one_section_per_command():
    assert list(recorded_sections()) == [" ".join(argv) for argv in COMMANDS]


if __name__ == "__main__":
    TRANSCRIPT.write_text(
        "".join(f"{HEADER}{' '.join(argv)}\n{run_attacks(argv)}" for argv in COMMANDS)
    )

"""Seed inputs: where a campaign's corpus starts.

Two sources, both deterministic under the campaign seed:

* ``workloads.generators`` — one vulnerable and one safe program from
  every shape family (including the leak and DoS families the fuzzer
  exists to exercise, and the CAPEC-10 taint-source family whose
  placement counts arrive via env/argv/stream plumbing), each carrying
  its suggested attacker stdin and a ground-truth label;
* ``workloads.corpus`` — the paper's placement-new listings, which give
  the mutator realistic interprocedural and vtable material.
"""

from __future__ import annotations

import random

from .._record import record
from ..workloads.corpus import PLACEMENT_CORPUS
from ..workloads.generators import ALL_SHAPES, generate_program


@record(frozen=True)
class FuzzInput:
    """One fuzzable unit: a source file plus its scripted stdin."""

    source: str
    stdin: tuple = ()
    family: str = ""  # seed family ("direct", "leak", "corpus", ...)
    label: str = ""  # "vulnerable" / "safe" for labeled seeds, else ""

    def key(self) -> tuple:
        return (self.source, self.stdin)


def generator_seeds(seed: int) -> list:
    """Labeled seeds: every generator family, both ground truths."""
    inputs = []
    for index, shape in enumerate(ALL_SHAPES):
        for vulnerable in (True, False):
            rng = random.Random((seed, shape, vulnerable).__repr__())
            program = generate_program(rng, vulnerable, shape=shape)
            inputs.append(
                FuzzInput(
                    source=program.source,
                    stdin=program.stdin,
                    family=shape,
                    label="vulnerable" if vulnerable else "safe",
                )
            )
    return inputs


def corpus_seeds() -> list:
    """The paper listings as unlabeled mutation material."""
    return [
        FuzzInput(source=program.source, family="corpus", label="")
        for program in PLACEMENT_CORPUS
    ]


def seed_inputs(seed: int) -> list:
    """The full deterministic seed list for one campaign."""
    return generator_seeds(seed) + corpus_seeds()

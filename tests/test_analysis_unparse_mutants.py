"""Round trip over mutated programs: unparse is a fixed point of parse.

``tests/test_analysis_unparse.py`` covers the seeds and generated
programs.  Here every child of :func:`repro.fuzz.mutate`, over seed
panels and rng seeds, must satisfy, with ``s`` its source:

* ``unparse_program(parse(s))`` parses back to a tree ``==`` to
  ``parse(s)`` and renders to itself (a fixed point);
* a child whose source differs from its parent's (a program mutation,
  not a stdin one) is already canonical: ``unparse_program(parse(s)) == s``.

``mutate`` turns a mutant that does not render or does not parse into
``None``; the sweep below counts those rejections apart from the other
fizzles instead of absorbing them, and pins both counts.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ast_nodes as ast
from repro.analysis.parser import parse
from repro.analysis.unparse import unparse_program
from repro.errors import ParseError
from repro.fuzz import mutate, mutator, seed_inputs


def _check_child(parent, child) -> None:
    tree = parse(child.source)
    text = unparse_program(tree)
    again = parse(text)
    assert again == tree
    assert unparse_program(again) == text
    if child.source != parent.source:
        assert text == child.source


def _chain(panel_seed: int, index: int, rng_seed: int, steps: int) -> int:
    """Mutate one panel input ``steps`` times, checking every child;
    the number of ``None`` results."""
    panel = seed_inputs(panel_seed)
    parent = panel[index % len(panel)]
    rng = random.Random(rng_seed)
    fizzled = 0
    for _ in range(steps):
        child = mutate(rng, parent)
        if child is None:
            fizzled += 1
            continue
        _check_child(parent, child)
        parent = child
    return fizzled


#: ``None`` results of the sweep below: stdin edits that change nothing,
#: operators with nothing to act on, and mutants that render to their
#: parent's text.
FIZZLES = 284


@settings(deadline=None)
@given(
    panel_seed=st.integers(0, 40),
    index=st.integers(0, 10_000),
    rng_seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 8),
)
def test_mutant_round_trip_is_a_fixed_point(panel_seed, index, rng_seed, steps):
    assert 0 <= _chain(panel_seed, index, rng_seed, steps) <= steps


def test_sweep_counts_fizzles_and_rejected_mutants(monkeypatch):
    """Seed panel 0 x rng seeds 0-9, four mutations per chain.  Every
    ``None`` is counted; those caused by a mutant that does not render
    (``ValueError``) or does not parse back are counted on their own,
    and there are none.  The total moves only when ``mutate`` does."""
    rejected = {"render": 0, "parse": 0}
    real_unparse, real_parse = mutator.unparse_program, mutator.parse_cached

    def unparse_counting(program):
        try:
            return real_unparse(program)
        except ValueError:
            rejected["render"] += 1
            raise

    def parse_counting(source):
        try:
            return real_parse(source)
        except ParseError:
            rejected["parse"] += 1
            raise

    monkeypatch.setattr(mutator, "unparse_program", unparse_counting)
    monkeypatch.setattr(mutator, "parse_cached", parse_counting)
    calls = fizzled = 0
    for rng_seed in range(10):
        for index in range(len(seed_inputs(0))):
            fizzled += _chain(0, index, rng_seed, 4)
            calls += 4
    assert (calls, fizzled, rejected) == (1160, FIZZLES, {"render": 0, "parse": 0})


def test_member_line_is_not_compared():
    """A class member's ``line`` is a source position, like every
    node's: a class re-rendered onto other lines is the same tree."""
    source = "class A { public: int x; void f(); };\nvoid g() { A a; }\n"
    tree = parse(source)
    rendered = parse(unparse_program(tree))
    assert [f.line for f in tree.classes[0].fields] != [
        f.line for f in rendered.classes[0].fields
    ]
    assert rendered == tree
    int_ref = ast.TypeRef(name="int")
    fields = [ast.FieldDecl(type=int_ref, name="x", line=line) for line in (1, 9)]
    assert fields[0] == fields[1] and hash(fields[0]) == hash(fields[1])
    methods = [
        ast.MethodDecl(name="f", return_type=int_ref, params=(), line=line) for line in (1, 9)
    ]
    assert methods[0] == methods[1] and hash(methods[0]) == hash(methods[1])

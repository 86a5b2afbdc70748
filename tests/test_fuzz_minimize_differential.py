"""Differential test: line-shifted minimizer candidates against the parser.

In a round whose source is the canonical rendering of its program, the
minimizer builds a statement, field or global deletion's tree without a
parse: it checks that the candidate's text is the round's text with the
dropped node's lines cut out, and moves every later ``line`` up by the
number of lines cut (:func:`repro.fuzz.minimize._deletion_ast`).  That
tree is cached as the parse of the candidate's text, so it must be the
parser's tree field for field, every ``line`` included; ``==`` ignores
``line`` fields, so trees are compared by ``repr``.  Inputs are
Hypothesis mutant chains over the seed panel and the divergences that
seed-panel campaigns minimize.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings

from repro._record import replace
from repro.analysis import cache
from repro.analysis.parser import parse
from repro.analysis.unparse import unparse_program
from repro.fuzz import FuzzConfig, campaign, minimize, run_campaign

from .test_fuzz_rewrite_differential import _PROGRAMS, _nodes


def _checked(record: list):
    """``_deletion_ast`` that also checks each tree it builds against
    ``parse`` and appends it to ``record``."""
    real = minimize._deletion_ast

    def checked(candidate_ast, removed, text, starts, source):
        tree = real(candidate_ast, removed, text, starts, source)
        if tree is not None:
            assert repr(tree) == repr(parse(source)), source
            record.append(tree)
        return tree

    return checked


@settings(deadline=None)
@given(program=_PROGRAMS)
def test_line_shifted_deletions_equal_their_parse(program):
    text = unparse_program(program)
    canonical = parse(text)
    assume(unparse_program(canonical) == text)
    starts = minimize._line_starts(text)
    for candidate, removed in minimize._deletions(canonical):
        if removed is None:  # a class deletion: always parsed
            continue
        source = unparse_program(candidate)
        tree = minimize._deletion_ast(candidate, removed, text, starts, source)
        assert tree is not None, source
        assert repr(tree) == repr(parse(source))
        # Only the nodes whose lines moved (or that hold one) are new.
        before, after = _nodes(candidate), _nodes(tree)
        assert len(before) == len(after)
        for old, new in zip(before, after):
            assert (old is new) == (repr(old) == repr(new))


@pytest.mark.parametrize("seed", [7, 43, 302])
def test_campaign_divergences_minimize_through_exact_trees(seed, monkeypatch):
    trees: list = []
    monkeypatch.setattr(minimize, "_deletion_ast", _checked(trees))
    report = run_campaign(FuzzConfig(seed=seed, iterations=200))
    assert report.divergences
    assert trees


def test_finalize_parses_only_class_deletions_and_hand_written_rounds(
    monkeypatch,
):
    """During ``finalize`` of a seed-7 campaign the parser reads a round's
    own source, a class-deletion candidate, or a candidate of a round
    whose source is not canonical; never another candidate."""
    parsed, rounds = [], []
    finalizing = [False]
    real_parse, real_shrink = cache.parse, minimize._shrink_once
    real_finalize = campaign.DifferentialFuzzer.finalize

    def counting_parse(source, *declarations):
        if finalizing[0]:
            parsed.append(source)
        return real_parse(source, *declarations)

    def recording_shrink(current, predicate):
        rounds.append(current.source)
        return real_shrink(current, predicate)

    def finalize(self):
        finalizing[0] = True
        try:
            return real_finalize(self)
        finally:
            finalizing[0] = False

    monkeypatch.setattr(cache, "parse", counting_parse)
    monkeypatch.setattr(minimize, "_shrink_once", recording_shrink)
    monkeypatch.setattr(campaign.DifferentialFuzzer, "finalize", finalize)
    run_campaign(FuzzConfig(seed=7, iterations=200))

    allowed = set(rounds)
    line_shifted = 0
    for text in rounds:
        program = real_parse(text)
        canonical = unparse_program(program) == text
        for index in range(len(program.classes)):
            classes = program.classes[:index] + program.classes[index + 1 :]
            allowed.add(unparse_program(replace(program, classes=classes)))
        for candidate, removed in minimize._deletions(program):
            if not canonical:
                allowed.add(unparse_program(candidate))
            elif removed is not None:
                line_shifted += 1
    assert line_shifted > len(parsed)  # most candidates were never parsed
    assert [source for source in parsed if source not in allowed] == []

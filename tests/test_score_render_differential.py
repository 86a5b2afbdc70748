"""Differential test: ``CorpusScore.to_json`` against the stdlib encoder.

``to_json`` writes the report a field at a time: each distinct risk
tuple is encoded once and re-indented to its depth, and names, numbers
and rankings go through the C string encoder and ``repr``.  The
reference is the one-call dump it replaced,
``json.dumps(score.to_dict(), indent=2, sort_keys=True)``: the two must
agree byte for byte on names and details with quotes, backslashes,
control and non-ASCII characters, on floats whose ``repr`` takes an
exponent or a sign (``1e-07``, ``1e16``, ``-0.0``) or is not finite, on
empty and shared risk lists, on an empty corpus, and on a generated
3,000-package corpus scored end to end.
"""

from __future__ import annotations

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.score import (
    Package,
    PackageGraph,
    generated_package_graph,
    score_graph,
    score_packages,
)
from repro.score.propagate import CorpusScore, PackageScore


def _reference(score: CorpusScore) -> str:
    return json.dumps(score.to_dict(), indent=2, sort_keys=True)


_TEXT = st.text(
    st.sampled_from(
        ["a", "Z", "0", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x7f", "é", "中", "\u2028", "😀"]
    ),
    max_size=8,
)
_FLOATS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1e-07, 1e16, 1e-300, 1.5, 0.1, 123456.789012]
        + [float("inf"), float("-inf"), float("nan")]
    ),
    st.floats(),
)
_RISK = st.fixed_dictionaries(
    {
        "capec": _TEXT,
        "cwe": st.lists(st.integers(0, 1000), max_size=3),
        "detail": _TEXT,
        "impact": _TEXT,
        "kind": _TEXT,
        "likelihood": _TEXT,
        "line": st.integers(0, 10**6),
        "score": st.integers(0, 12),
        "threat": _TEXT,
        "threat_name": _TEXT,
        "trigger": _TEXT,
    },
    optional={"weight": _FLOATS, "note": st.none() | st.booleans()},
)
_RISK_LISTS = st.lists(_RISK, max_size=3).map(tuple)


@st.composite
def _scores(draw) -> CorpusScore:
    """A report whose packages draw their risk tuples from a small pool,
    so some share one tuple and some hold equal copies."""
    pool = draw(st.lists(_RISK_LISTS, min_size=1, max_size=4)) + [()]
    packages = []
    for name in sorted(draw(st.lists(_TEXT, unique=True, max_size=8))):
        risks = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            risks = tuple(dict(risk) for risk in risks)
        packages.append(
            PackageScore(
                name=name,
                intrinsic=draw(st.integers(-10, 10**9)),
                blast_radius=draw(_FLOATS),
                exposure=draw(_FLOATS),
                dependents=draw(st.integers(0, 5000)),
                risks=risks,
            )
        )
    return CorpusScore(
        attenuation=draw(_FLOATS),
        packages=tuple(packages),
        fingerprint=draw(st.dictionaries(_TEXT, _TEXT, max_size=3)),
    )


@settings(deadline=None)
@given(_scores())
@example(CorpusScore(attenuation=0.5, packages=(), fingerprint={}))
def test_to_json_matches_the_stdlib_dump(score):
    assert score.to_json() == _reference(score)


@settings(deadline=None)
@given(
    st.lists(_TEXT.filter(bool), min_size=1, max_size=8, unique=True),
    st.lists(_RISK_LISTS.map(list), min_size=1, max_size=3),
    st.data(),
)
def test_score_packages_shares_equal_risk_lists(names, pool, data):
    """Packages whose risk lists are equal, whether one list object or
    copies, end up holding one tuple; the report is unchanged."""
    graph = PackageGraph(Package(name=name, source="") for name in names)
    risks_by_package = {}
    for name in graph.names():
        risks = data.draw(st.sampled_from(pool))
        if data.draw(st.booleans()):
            risks = [dict(risk) for risk in risks]
        risks_by_package[name] = risks
    score = score_packages(graph, risks_by_package)
    assert score.to_json() == _reference(score)
    for package in score.packages:
        # by repr: a ``nan`` weight is not ``==`` to itself
        assert repr(list(package.risks)) == repr(risks_by_package[package.name])
        for other in score.packages:
            if repr(other.risks) == repr(package.risks):
                assert other.risks is package.risks


def test_a_generated_corpus_renders_as_the_stdlib_dump():
    score = score_graph(generated_package_graph(43, 3000))
    assert len(score.packages) == 3000
    assert score.to_json() == _reference(score)

"""Differential test: level-at-a-time propagation against the old walk.

``PackageGraph._closure`` walks one breadth-first level at a time over
plain adjacency lookups, and ``score_packages`` reads each
``attenuation ** depth`` from a table built once.  The references here
are the walks they replaced: a deque BFS of ``(name, depth)`` pairs,
the per-member ``attenuation ** depth`` sums, and the recursive cycle
check and topological sort.  On random DAGs the closures must match
member for member, in insertion order, and the score reports must match
byte for byte at every attenuation; on random DAGs and digraphs the
graph must refuse the same cycle, with the same message, or sort the
same order.  (Reports round to six decimals, so a change in summation
order alone almost never shows in their bytes.)
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.score import Package, PackageGraph, score_packages
from repro.score.propagate import CorpusScore, PackageScore

ATTENUATIONS = (0.0, 0.1, 0.3, 0.5, 1.0)


def _reference_closure(name, edges):
    depths = {}
    queue = deque([(name, 0)])
    while queue:
        current, depth = queue.popleft()
        for neighbor in edges(current):
            if neighbor not in depths:
                depths[neighbor] = depth + 1
                queue.append((neighbor, depth + 1))
    return depths


def _reference_dependents(graph, name):
    importers = {}
    for importer in graph.names():  # sorted, so each list is too
        for dep in graph.package(importer).imports:
            importers.setdefault(dep, []).append(importer)
    return _reference_closure(name, lambda current: importers.get(current, ()))


def _reference_dependencies(graph, name):
    return _reference_closure(name, lambda n: graph.package(n).imports)


def _reference_score(graph, risks_by_package, attenuation):
    """``score_packages`` as it was: ``attenuation ** depth`` per member."""
    intrinsic = {
        name: sum(risk["score"] for risk in risks_by_package[name])
        for name in graph.names()
    }
    scores = []
    for name in graph.names():
        dependents = _reference_dependents(graph, name)
        reach = 1.0 + sum(
            attenuation ** depth for _, depth in sorted(dependents.items())
        )
        exposure = float(intrinsic[name]) + sum(
            intrinsic[dep] * attenuation ** depth
            for dep, depth in sorted(_reference_dependencies(graph, name).items())
        )
        scores.append(
            PackageScore(
                name=name,
                intrinsic=intrinsic[name],
                blast_radius=round(intrinsic[name] * reach, 6),
                exposure=round(exposure, 6),
                dependents=len(dependents),
                risks=tuple(dict(r) for r in risks_by_package[name]),
            )
        )
    return CorpusScore(attenuation=attenuation, packages=tuple(scores))


def _reference_cycle(packages):
    """The recursive cycle check's message, or None for a DAG."""
    imports = {package.name: package.imports for package in packages}
    state = {}

    def visit(name, trail):
        mark = state.get(name)
        if mark == 1:
            return None
        if mark == 0:
            return " -> ".join(trail[trail.index(name):] + (name,))
        state[name] = 0
        for dep in imports[name]:
            cycle = visit(dep, trail + (name,))
            if cycle:
                return cycle
        state[name] = 1
        return None

    for name in sorted(imports):
        cycle = visit(name, ())
        if cycle:
            return f"package import cycle: {cycle}"
    return None


def _reference_topological(graph):
    order, done = [], set()

    def visit(name):
        if name in done:
            return
        done.add(name)
        for dep in sorted(graph.package(name).imports):
            visit(dep)
        order.append(name)

    for name in graph.names():
        visit(name)
    return order


_NAMES = st.lists(
    st.text("abcdefgh", min_size=1, max_size=3), min_size=1, max_size=24, unique=True
)


@st.composite
def _dags(draw):
    """A DAG whose edges follow a random permutation, so sorted-name
    order and dependency order disagree; imports in random order."""
    names = draw(st.permutations(draw(_NAMES)))
    packages = []
    for index, name in enumerate(names):
        earlier = names[:index]
        imports = draw(st.lists(st.sampled_from(earlier), unique=True)) if earlier else []
        packages.append(Package(name=name, source="", imports=tuple(imports)))
    return packages


@st.composite
def _digraphs(draw):
    """Any import graph without self-imports: cycles allowed."""
    names = draw(_NAMES)
    packages = []
    for name in names:
        others = [other for other in names if other != name]
        imports = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
        packages.append(Package(name=name, source="", imports=tuple(imports)))
    return packages


@settings(deadline=None)
@given(_dags())
def test_closures_match_the_deque_walk_in_insertion_order(packages):
    graph = PackageGraph(packages)
    for name in graph.names():
        for ours, reference in (
            (graph.transitive_dependents(name), _reference_dependents(graph, name)),
            (graph.transitive_dependencies(name), _reference_dependencies(graph, name)),
        ):
            assert list(ours.items()) == list(reference.items())
            if ours:
                assert next(reversed(ours.values())) == max(ours.values())


@settings(deadline=None)
@given(
    _dags(),
    st.sampled_from(ATTENUATIONS),
    st.lists(st.integers(0, 12), min_size=24, max_size=24),
)
def test_score_report_matches_per_member_powers_byte_for_byte(
    packages, attenuation, scores
):
    graph = PackageGraph(packages)
    risks = {
        name: [{"score": score, "line": 1, "trigger": "PN-OVERSIZE"}] if score else []
        for name, score in zip(graph.names(), scores)
    }
    ours = score_packages(graph, risks, attenuation)
    assert ours.to_json() == _reference_score(graph, risks, attenuation).to_json()


@settings(deadline=None)
@given(st.one_of(_dags(), _digraphs()))
def test_cycle_check_and_topological_order_match_the_recursive_walks(packages):
    expected = _reference_cycle(packages)
    try:
        graph = PackageGraph(packages)
    except ValueError as error:
        assert str(error) == expected
        return
    assert expected is None
    assert graph.topological() == _reference_topological(graph)


def test_deep_chain_scores_like_the_reference():
    names = [f"p{i:03d}" for i in range(300)]
    graph = PackageGraph(
        Package(name=name, source="", imports=(names[i + 1],) if i + 1 < len(names) else ())
        for i, name in enumerate(names)
    )
    risks = {name: [{"score": 3, "line": 1, "trigger": "PN-OVERSIZE"}] for name in names}
    for attenuation in ATTENUATIONS:
        ours = score_packages(graph, risks, attenuation).to_json()
        assert ours == _reference_score(graph, risks, attenuation).to_json()

"""Differential test: the typed AST rewrite against the reflective one.

:func:`repro.fuzz.mutator.transform` reads each node class's field
names once, from a per-class table, and passes over leaf values
without a call.  The reference below is the rewrite it replaced: for
every value it asks the record helper (``repro._record.fields``)
whether the value is a node and which fields it has, and recurses into
every field value, leaves included.  Over the seed-panel programs and
random chains of mutants the two must visit the same nodes in the same
order, rebuild equal trees (sharing exactly the same untouched
subtrees) when random nodes are replaced, and return the very input
when nothing changes.  The minimizer's path-only statement deletions
must equal one whole-tree rewrite per deletion, candidate for
candidate and in the same order.
"""

from __future__ import annotations

import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._record import FIELDS, fields, replace
from repro.analysis import ast_nodes as ast
from repro.analysis import parse_cached
from repro.analysis.unparse import unparse_program
from repro.fuzz import FuzzInput, mutate, seed_inputs
from repro.fuzz.minimize import _candidates
from repro.fuzz.mutator import transform


def reference_transform(node, visit):
    """The reflective rewrite: the record helper asked at every value."""
    if isinstance(node, tuple):
        rebuilt = tuple(reference_transform(item, visit) for item in node)
        return node if all(a is b for a, b in zip(rebuilt, node)) else rebuilt
    if isinstance(node, type):
        return node
    try:
        specs = fields(node)
    except TypeError:  # not a record: a leaf
        return node
    changes = {}
    for spec in specs:
        value = getattr(node, spec.name)
        rebuilt = reference_transform(value, visit)
        if rebuilt is not value:
            changes[spec.name] = rebuilt
    result = replace(node, **changes) if changes else node
    replacement = visit(result)
    return result if replacement is None else replacement


#: One program with a node of every concrete AST class (the generated
#: panel has few ``else`` branches and no ``cout``), so every field of
#: every class is walked.
EVERY_NODE_CLASS = FuzzInput(
    source="""\
class Base {
  public:
    virtual int size() { return sizeof(Base); }
    int tag;
};
class Wide : public Base {
  public:
    double weight;
    char name[8];
};
char pool[64];
int limit = 4;
int helper(int n, char* label) {
  if (n > limit) {
    cout << "big" << n;
  } else {
    cout << label;
  }
  return -n;
}
void run() {
  int count = 0;
  bool flag = true;
  double ratio = 1.5;
  cin >> count;
  Base* p = new (pool) Wide();
  Wide* many = new Wide[count];
  int* q = nullptr;
  for (int i = 0; i < count; ++i) {
    many[i].tag = i * 2;
  }
  while (!flag) {
    flag = (count != 0) && (sizeof(count) >= 4);
  }
  p->tag = helper(count, "x");
  delete[] many;
}
""",
    stdin=(3,),
)


def reference_candidates(program):
    """The minimizer's single deletions, each statement deletion made
    by one whole-tree reflective rewrite."""
    busy = []
    reference_transform(
        program,
        lambda node: busy.append(node)
        if isinstance(node, ast.Block) and node.statements
        else None,
    )
    for block_index, block in enumerate(busy):
        for stmt_index in range(len(block.statements)):
            state = {"seen": 0}

            def visit(node):
                if not (isinstance(node, ast.Block) and node.statements):
                    return None
                position = state["seen"]
                state["seen"] += 1
                if position != block_index:
                    return None
                statements = node.statements
                return replace(
                    node,
                    statements=statements[:stmt_index] + statements[stmt_index + 1 :],
                )

            yield reference_transform(program, visit)
    for class_index, cls in enumerate(program.classes):
        for field_index in range(len(cls.fields)):
            classes = list(program.classes)
            classes[class_index] = replace(
                cls,
                fields=cls.fields[:field_index] + cls.fields[field_index + 1 :],
            )
            yield replace(program, classes=tuple(classes))
        classes = list(program.classes)
        del classes[class_index]
        yield replace(program, classes=tuple(classes))
    for global_index in range(len(program.globals)):
        globals_ = list(program.globals)
        del globals_[global_index]
        yield replace(program, globals=tuple(globals_))


@functools.lru_cache(maxsize=None)
def _panel(seed: int) -> tuple:
    return (*seed_inputs(seed), EVERY_NODE_CLASS)


def _program(seed: int, index: int, chain: int, salt: int) -> ast.Program:
    """A seed-panel program after up to ``chain`` random mutations."""
    current = _panel(seed)[index]
    rng = random.Random(f"rewrite/{seed}/{index}/{salt}")
    for _ in range(chain):
        mutant = mutate(rng, current)
        if mutant is not None:
            current = mutant
    return parse_cached(current.source)


_PROGRAMS = st.builds(
    _program,
    seed=st.integers(1, 4),
    index=st.integers(0, len(_panel(1)) - 1),
    chain=st.integers(0, 6),
    salt=st.integers(0, 2**16),
)


def _visits(rewrite, program) -> list:
    seen: list = []

    def visit(node):
        seen.append(node)
        return None

    assert rewrite(program, visit) is program
    return seen


def _replacing(positions: frozenset):
    """A visit that swaps the nth visited node for a marker literal."""
    state = {"seen": 0}

    def visit(node):
        position = state["seen"]
        state["seen"] += 1
        if position in positions:
            return ast.IntLit(value=-position, line=position)
        return None

    return visit


def _nodes(tree) -> list:
    """Every node of ``tree`` in visit order (the reference's walk)."""
    return _visits(reference_transform, tree)


def test_panel_reaches_every_node_class():
    classes = {
        cls
        for cls in vars(ast).values()
        if isinstance(cls, type)
        and FIELDS in vars(cls)
        and cls not in (ast.Node, ast.Expr, ast.Stmt)
    }
    visited = {type(node) for node in _nodes(parse_cached(EVERY_NODE_CLASS.source))}
    assert visited == classes


@settings(deadline=None)
@given(program=_PROGRAMS)
def test_same_nodes_visited_in_the_same_order(program):
    typed = _visits(transform, program)
    reference = _visits(reference_transform, program)
    assert len(typed) == len(reference)
    assert all(a is b for a, b in zip(typed, reference))


@settings(deadline=None)
@given(program=_PROGRAMS, data=st.data())
def test_nth_node_replacement_rebuilds_equal_trees(program, data):
    count = len(_nodes(program))
    positions = frozenset(
        data.draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=4))
    )
    typed = transform(program, _replacing(positions))
    reference = reference_transform(program, _replacing(positions))
    assert typed == reference
    assert (typed is program) == (reference is program)
    original = {id(node) for node in _nodes(program)}
    typed_nodes, reference_nodes = _nodes(typed), _nodes(reference)
    assert len(typed_nodes) == len(reference_nodes)
    for a, b in zip(typed_nodes, reference_nodes):
        assert a == b and getattr(a, "line", None) == getattr(b, "line", None)
        # An untouched subtree is shared with the input on both sides;
        # a rebuilt one is fresh on both.
        assert (id(a) in original) == (id(b) in original)
        assert (a is b) == (id(a) in original)


@settings(deadline=None)
@given(program=_PROGRAMS)
def test_no_replacement_returns_the_input(program):
    assert transform(program, lambda node: None) is program
    for node in _nodes(program):
        assert transform(node, lambda candidate: None) is node


@settings(deadline=None)
@given(program=_PROGRAMS)
def test_minimizer_candidates_match_whole_tree_rewrites(program):
    candidates = list(_candidates(program))
    reference = list(reference_candidates(program))
    assert len(candidates) == len(reference)
    for candidate, expected in zip(candidates, reference):
        assert candidate == expected
        assert [getattr(n, "line", None) for n in _nodes(candidate)] == [
            getattr(n, "line", None) for n in _nodes(expected)
        ]
        assert unparse_program(candidate) == unparse_program(expected)

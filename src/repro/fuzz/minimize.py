"""Greedy divergence-preserving reduction of a fuzz input.

Classic delta-debugging at statement/field granularity: repeatedly try
to delete one statement, one class field, one global, or trailing stdin
tokens, keeping any deletion under which ``predicate`` (usually "same
divergence fingerprint") still holds.  The loop is greedy and runs to a
fixpoint, so the result is 1-minimal with respect to the tried edits —
small enough to read in a triage report.

Each candidate is a tree: the round's program less one node, rendered
back to text for ``predicate``.  Its parse is known without running the
parser when the round's source is the canonical rendering of its
program (every round after a hand-written first one): a statement,
field or global deletion then cuts whole lines out of the text, so the
parser's tree is the candidate's own with every later ``line`` moved up
by the number of lines cut.  That tree goes into the AST cache under the
candidate's text, where the detector and the simulator find it.  A class
deletion changes which names the parser reads as types, so it is parsed,
as is every candidate of a round on hand-written text.
"""

from __future__ import annotations

from typing import Callable

from .._record import replace
from ..analysis import ast_nodes as ast
from ..analysis import parse_cached
from ..analysis.cache import cache_parsed
from ..analysis.unparse import unparse_program
from ..errors import ParseError
from .mutator import FIELD_NAMES, LEAF_TYPES
from .seeds import FuzzInput


def _busy_blocks(node, path: tuple = ()):
    """Every non-empty block under ``node`` with the steps (field names
    and tuple indexes) that lead to it, in the order
    :func:`~repro.fuzz.mutator.transform` visits them (children before
    their parent), which fixes the minimizer's candidate order."""
    if isinstance(node, tuple):
        for index, item in enumerate(node):
            yield from _busy_blocks(item, path + (index,))
        return
    for name in FIELD_NAMES.get(type(node), ()):
        yield from _busy_blocks(getattr(node, name), path + (name,))
    if isinstance(node, ast.Block) and node.statements:
        yield node, path


def _replace_at(node, path: tuple, value):
    """``node`` with the sub-node at ``path`` replaced by ``value``;
    only the nodes along the path are copied."""
    if not path:
        return value
    step, rest = path[0], path[1:]
    if isinstance(node, tuple):
        return (*node[:step], _replace_at(node[step], rest, value), *node[step + 1 :])
    return replace(
        node, **{step: _replace_at(getattr(node, step), rest, value)}
    )


def _deletions(program: ast.Program):
    """Every single-deletion candidate, deterministic order, each with
    the node it drops; a class deletion comes with ``None``, because
    the class name also leaves the parser's known type names."""
    for block, path in _busy_blocks(program):
        statements = block.statements
        for index in range(len(statements)):
            smaller = statements[:index] + statements[index + 1 :]
            candidate = _replace_at(
                program, path, replace(block, statements=smaller)
            )
            yield candidate, statements[index]
    for class_index, cls in enumerate(program.classes):
        for field_index in range(len(cls.fields)):
            classes = list(program.classes)
            classes[class_index] = replace(
                cls,
                fields=cls.fields[:field_index] + cls.fields[field_index + 1 :],
            )
            candidate = replace(program, classes=tuple(classes))
            yield candidate, cls.fields[field_index]
        classes = list(program.classes)
        del classes[class_index]
        yield replace(program, classes=tuple(classes)), None
    for global_index in range(len(program.globals)):
        globals_ = list(program.globals)
        del globals_[global_index]
        candidate = replace(program, globals=tuple(globals_))
        yield candidate, program.globals[global_index]


def _candidates(program: ast.Program):
    """Every single-deletion candidate, deterministic order."""
    for candidate, _ in _deletions(program):
        yield candidate


def _line_starts(text: str) -> list:
    """Offset of the start of each line of ``text``; entry ``n - 1``
    for line ``n``, plus one past a final newline."""
    starts = [0]
    index = text.find("\n")
    while index >= 0:
        starts.append(index + 1)
        index = text.find("\n", index + 1)
    return starts


def _shift_lines(node, first: int, by: int):
    """``node`` with every ``line`` at or past ``first`` moved up by
    ``by``.  Only the nodes that change are copied, each through its
    constructor; the rest keep their identity."""
    if isinstance(node, tuple):
        shifted = None
        last = len(node) - 1
        for index, item in enumerate(node):
            if type(item) in LEAF_TYPES:
                continue
            # Siblings are in source order and every ``line`` comes from
            # one of the node's own tokens, so an item whose next
            # sibling starts before ``first`` has nothing to move.
            if index < last and getattr(node[index + 1], "line", first) < first:
                continue
            new = _shift_lines(item, first, by)
            if new is not item:
                if shifted is None:
                    shifted = list(node)
                shifted[index] = new
        return node if shifted is None else tuple(shifted)
    names = FIELD_NAMES.get(type(node))
    if names is None:
        return node
    values = None
    for position, name in enumerate(names):
        value = getattr(node, name)
        if name == "line":
            if value < first:
                continue
            new = value - by
        elif type(value) in LEAF_TYPES:
            continue
        else:
            new = _shift_lines(value, first, by)
            if new is value:
                continue
        if values is None:
            values = [getattr(node, field) for field in names]
        values[position] = new
    return node if values is None else type(node)(*values)


def _deletion_ast(candidate_ast, removed, text: str, starts: list, source: str):
    """The parse of ``source`` without parsing it, or ``None``.

    ``text`` is the canonical rendering of the round's program (its
    line offsets are ``starts``) and ``source`` that of
    ``candidate_ast``, which is the program less ``removed``.  When
    ``source`` is ``text`` with ``removed``'s lines cut out, the parser
    would read the same tokens less that node's, so its tree is
    ``candidate_ast`` with every later ``line`` moved up by the number
    of lines cut.
    """
    first = removed.line
    cut = len(starts) - 1 - source.count("\n")
    if cut < 1 or not 1 <= first <= len(starts) - cut:
        return None
    start, end = starts[first - 1], starts[first - 1 + cut]
    if source != text[:start] + text[end:]:
        return None
    return _shift_lines(candidate_ast, first + cut, cut)


def minimize_input(
    fuzz_input: FuzzInput,
    predicate: Callable[[FuzzInput], bool],
    max_rounds: int = 12,
) -> FuzzInput:
    """Shrink ``fuzz_input`` while ``predicate`` keeps holding."""
    current = fuzz_input
    for _ in range(max_rounds):
        shrunk = _shrink_once(current, predicate)
        if shrunk is None:
            break
        current = shrunk
    # Trailing stdin tokens the divergence does not need.
    while current.stdin:
        candidate = replace(current, stdin=current.stdin[:-1])
        if not predicate(candidate):
            break
        current = candidate
    return current


def _shrink_once(current: FuzzInput, predicate) -> FuzzInput | None:
    """The first single deletion that preserves the divergence.

    Each candidate's tree is in the AST cache before ``predicate`` sees
    it: line-shifted (:func:`_deletion_ast`) where the module docstring
    says it can be, otherwise, or when the text is not the expected line
    cut, parsed.
    """
    try:
        program = parse_cached(current.source)
    except ParseError:
        return None
    text = current.source
    starts = _line_starts(text) if unparse_program(program) == text else None
    for candidate_ast, removed in _deletions(program):
        if candidate_ast is program:
            continue
        try:
            source = unparse_program(candidate_ast)
        except ValueError:
            continue
        if source == text:
            continue
        tree = None
        if starts is not None and removed is not None:
            tree = _deletion_ast(candidate_ast, removed, text, starts, source)
        if tree is not None:
            cache_parsed(source, tree)
        else:
            try:
                parse_cached(source)
            except (ParseError, ValueError):
                continue
        candidate = replace(current, source=source)
        if predicate(candidate):
            return candidate
    return None

"""Greedy divergence-preserving reduction of a fuzz input.

Classic delta-debugging at statement/field granularity: repeatedly try
to delete one statement, one class field, one global, or trailing stdin
tokens, keeping any deletion under which ``predicate`` (usually "same
divergence fingerprint") still holds.  The loop is greedy and runs to a
fixpoint, so the result is 1-minimal with respect to the tried edits —
small enough to read in a triage report.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from ..analysis import ast_nodes as ast
from ..analysis import parse_cached
from ..analysis.unparse import unparse_program
from ..errors import ParseError
from .mutator import FIELD_NAMES
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
    return dataclasses.replace(
        node, **{step: _replace_at(getattr(node, step), rest, value)}
    )


def _candidates(program: ast.Program):
    """Every single-deletion candidate, deterministic order."""
    for block, path in _busy_blocks(program):
        statements = block.statements
        for index in range(len(statements)):
            smaller = statements[:index] + statements[index + 1 :]
            yield _replace_at(
                program, path, dataclasses.replace(block, statements=smaller)
            )
    for class_index, cls in enumerate(program.classes):
        for field_index in range(len(cls.fields)):
            classes = list(program.classes)
            classes[class_index] = dataclasses.replace(
                cls,
                fields=cls.fields[:field_index] + cls.fields[field_index + 1 :],
            )
            yield dataclasses.replace(program, classes=tuple(classes))
        classes = list(program.classes)
        del classes[class_index]
        yield dataclasses.replace(program, classes=tuple(classes))
    for global_index in range(len(program.globals)):
        globals_ = list(program.globals)
        del globals_[global_index]
        yield dataclasses.replace(program, globals=tuple(globals_))


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
        candidate = dataclasses.replace(current, stdin=current.stdin[:-1])
        if not predicate(candidate):
            break
        current = candidate
    return current


def _shrink_once(current: FuzzInput, predicate) -> FuzzInput | None:
    """The first single deletion that preserves the divergence."""
    try:
        program = parse_cached(current.source)
    except ParseError:
        return None
    for candidate_ast in _candidates(program):
        if candidate_ast is program:
            continue
        try:
            source = unparse_program(candidate_ast)
            parse_cached(source)
        except (ParseError, ValueError):
            continue
        if source == current.source:
            continue
        candidate = dataclasses.replace(current, source=source)
        if predicate(candidate):
            return candidate
    return None

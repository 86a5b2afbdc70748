"""Content-hash memoization for the analysis pipeline.

Analyzing the same source twice — warm service sweeps, the legacy suite
running three scanners over one program, benchmark reruns — used to pay
the full lex + parse + walk cost every time.  This module memoizes the
expensive products in three tiers:

* **AST cache** — ``parse_cached`` maps ``sha256(source)`` to the parsed
  :class:`~.ast_nodes.Program`.  AST nodes are frozen records, so a
  cached tree can be shared without copying.  Every parse in the package
  goes through it: the analyzers, the executor (``run_source``), the fuzz
  oracles' entry planning, the mutator's parent and validity parses, and
  the minimizer's class deletions and the candidates of a round on
  hand-written text.  A fuzz input or matrix program row is thus parsed
  once per process, however many consumers see it.  The minimizer's
  other candidates are never parsed: it derives each one's tree from
  its round's by a line shift and stores it with ``cache_parsed``, so
  every consumer finds it here.
* **Declaration cache** — a miss in the AST cache parses through a memo
  of top-level declarations (classes, functions, global declaration
  statements), so text shared between sources is parsed once: the
  classes and helpers that a package corpus repeats, and every
  declaration of a fuzz mutant before the mutated one.  The key is the
  declaration's source text, its first token's line and column, and the
  type names known before it (``Parser._parse_declarations_memoized``
  says why that is exact).  A hit skips lexing as well as parsing: the
  parser lexes a declaration only when the memo misses it.
* **Report cache** — ``cached_report`` maps
  ``(tool_key, version, sha256(source))`` to the finished findings.  The
  ``version`` is supplied by the caller (the detector passes
  ``DETECTOR_VERSION``, the legacy scanners ``LEGACY_RULE_VERSION``) so
  this module never imports them — the same bump-to-invalidate scheme as
  :mod:`repro.service.cache`, without the circular import.

Hits rebuild a fresh :class:`~.reports.AnalysisReport` around the cached
:class:`~.reports.Finding` tuple: findings are frozen and safe to share,
but the report object itself is mutable (``add``), so callers must never
alias one another's report.

All tiers are process-local, thread-safe LRUs — the service layer's
:class:`~repro.service.cache.ResultCache` remains the cross-process
persistent tier.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable

from .ast_nodes import Program
from .parser import parse
from .reports import AnalysisReport

#: Entries per tier.  Sized for a fuzz campaign's working set: a mutant
#: is reused by both oracles right after the mutator parses it, and
#: corpus parents are picked again and again.  Scoring leans on the
#: declaration tier only: ``score_graph`` analyzes each distinct package
#: source once, so its AST and report lookups all miss, but 256
#: declarations hold most of the classes and helpers its sources repeat.
#: Only speed depends on a hit.
MAX_CACHE_ENTRIES = 256


class _LruCache:
    """A small thread-safe LRU with hit/miss accounting."""

    def __init__(self, max_entries: int = MAX_CACHE_ENTRIES) -> None:
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


_ast_cache = _LruCache()
_declaration_cache = _LruCache()
_report_cache = _LruCache()


def source_hash(source: str) -> str:
    """The content key both tiers share."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def parse_cached(source: str) -> Program:
    """Parse ``source``, memoized on content.

    A miss parses through the declaration tier.  Parse errors propagate
    and are not cached in either tier — a failing source re-parses (and
    re-fails) on every call, which keeps error behavior identical to
    :func:`~.parser.parse`.
    """
    key = source_hash(source)
    program = _ast_cache.get(key)
    if program is None:
        program = parse(source, _declaration_cache)
        _ast_cache.put(key, program)
    return program


def cache_parsed(source: str, program: Program) -> None:
    """Record ``program`` as the parse of ``source`` without parsing.

    The caller vouches that ``program`` is exactly what
    :func:`~.parser.parse` would return for ``source``, every ``line``
    included: later lookups cannot tell the two apart.
    """
    _ast_cache.put(source_hash(source), program)


def cached_report(
    tool_key: str,
    version: str,
    source: str,
    build: Callable[[Program], AnalysisReport],
) -> AnalysisReport:
    """Run ``build`` over the (cached) AST, memoizing its report.

    ``tool_key`` must identify everything that can change the findings
    besides the source — detector class, scanner name and rule set —
    and ``version`` is the caller's semantics revision.
    """
    key = (tool_key, version, source_hash(source))
    cached = _report_cache.get(key)
    if cached is not None:
        tool, findings = cached
        return AnalysisReport(tool=tool, findings=list(findings))
    report = build(parse_cached(source))
    # Snapshot as a tuple: the caller may mutate the report it receives,
    # but the cache entry stays immutable.
    _report_cache.put(key, (report.tool, tuple(report.findings)))
    return report


def clear_analysis_caches() -> None:
    """Drop every tier (tests, and benchmark cold-path measurement)."""
    _ast_cache.clear()
    _declaration_cache.clear()
    _report_cache.clear()


def analysis_cache_stats() -> dict:
    """Hit/miss accounting for every tier."""
    return {
        "ast": _ast_cache.stats(),
        "declarations": _declaration_cache.stats(),
        "reports": _report_cache.stats(),
    }

"""Static analysis of MiniC++ programs.

The constructive half of the paper's Section 5: a lexer/parser for the
C++ subset the listings use, a flow-sensitive placement-new detector
(:mod:`detector`), and reimplementations of the classic rule-based
scanners (:mod:`legacy_tools`) whose placement-new blind spot the paper
documents.
"""

from .ast_nodes import Program
from .cache import (
    analysis_cache_stats,
    cached_report,
    clear_analysis_caches,
    parse_cached,
    source_hash,
)
from .detector import DETECTOR_VERSION, PlacementNewDetector, analyze_source
from .legacy_tools import (
    CLASSIC_RULES,
    LEGACY_RULE_VERSION,
    LegacyRule,
    LegacyRuleScanner,
    run_tool_suite,
    simulated_tool_suite,
)
from .lexer import Token, TokenKind, tokenize
from .parser import Parser, parse
from .reports import AnalysisReport, Finding, Severity
from .symbols import SymbolTable, constant_int
from .unparse import unparse_expr, unparse_program

__all__ = [
    "AnalysisReport",
    "CLASSIC_RULES",
    "DETECTOR_VERSION",
    "Finding",
    "LEGACY_RULE_VERSION",
    "LegacyRule",
    "LegacyRuleScanner",
    "Parser",
    "PlacementNewDetector",
    "Program",
    "Severity",
    "SymbolTable",
    "Token",
    "TokenKind",
    "analysis_cache_stats",
    "analyze_source",
    "cached_report",
    "clear_analysis_caches",
    "constant_int",
    "parse",
    "parse_cached",
    "run_tool_suite",
    "simulated_tool_suite",
    "source_hash",
    "tokenize",
    "unparse_expr",
    "unparse_program",
]

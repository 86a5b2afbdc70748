"""Static analysis of MiniC++ programs.

The constructive half of the paper's Section 5: a lexer/parser for the
C++ subset the listings use, a flow-sensitive placement-new detector
(:mod:`detector`), and reimplementations of the classic rule-based
scanners (:mod:`legacy_tools`) whose placement-new blind spot the paper
documents.
"""

from .._exports import exports_getattr

#: Public name -> the submodule that defines it, imported on first
#: access (see :mod:`repro._exports`).
_EXPORTS = {
    "Program": "ast_nodes",
    **dict.fromkeys(
        (
            "analysis_cache_stats",
            "cached_report",
            "clear_analysis_caches",
            "parse_cached",
            "source_hash",
        ),
        "cache",
    ),
    **dict.fromkeys(("DETECTOR_VERSION", "PlacementNewDetector", "analyze_source"), "detector"),
    **dict.fromkeys(
        (
            "CLASSIC_RULES",
            "LEGACY_RULE_VERSION",
            "LegacyRule",
            "LegacyRuleScanner",
            "run_tool_suite",
            "simulated_tool_suite",
        ),
        "legacy_tools",
    ),
    **dict.fromkeys(("Token", "TokenKind", "tokenize"), "lexer"),
    **dict.fromkeys(("Parser", "parse"), "parser"),
    **dict.fromkeys(("AnalysisReport", "Finding", "Severity"), "reports"),
    **dict.fromkeys(("SymbolTable", "constant_int"), "symbols"),
    **dict.fromkeys(("unparse_expr", "unparse_program"), "unparse"),
}

__all__ = sorted(_EXPORTS)

__getattr__ = exports_getattr(__name__, _EXPORTS)

"""Workload definitions: the paper's example classes and generators
used by the benchmark harnesses."""

from .._exports import exports_getattr

#: Public name -> the submodule that defines it, imported on first
#: access (see :mod:`repro._exports`).
_EXPORTS = {
    **dict.fromkeys(
        ("make_mobile_player", "make_someclass", "make_student_classes", "set_ssn"),
        "classes",
    ),
    **dict.fromkeys(("CorpusProgram", "FULL_CORPUS", "corpus_sources"), "corpus"),
    **dict.fromkeys(
        (
            "ALL_SHAPES",
            "CLASSIC_SHAPES",
            "DetectorScore",
            "GeneratedProgram",
            "generate_corpus",
            "generate_package_corpus",
            "generate_program",
            "score_detector",
        ),
        "generators",
    ),
}

__all__ = sorted(_EXPORTS)

__getattr__ = exports_getattr(__name__, _EXPORTS)

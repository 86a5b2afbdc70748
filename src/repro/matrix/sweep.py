"""The modern-mitigation sweep: every workload × every defense.

This is the one place the attack × defense matrix is evaluated.  Rows
are the gallery scenarios (the E14 table, :func:`attack_rows`) *plus*
the vulnerable twin of every generator seed family *plus* every
committed regression bundle, and columns are the full defense roster
including the modern mitigations (shadow call stack, VRT, memory
tagging).  Program rows run on the simulated machine built by the
defense's environment — which is how the sweep demonstrates,
mechanically, that the §5.1 *source fix* (checked placement) cannot
protect programs it was never compiled into, while the machine-level
mitigations can.

Determinism is load-bearing: cell evaluation is pure (fresh machine,
seeded canaries, fixed stdin), rows and defenses are ordered, and the
report is canonical JSON with no timing fields — so the same sweep is
byte-identical at any worker count, which is what lets CI diff a
committed baseline.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .._record import record
from ..attacks import all_attacks, attack_by_name
from ..defenses.base import ALL_DEFENSES, classify_failure, defense_by_name, disarm_on_exit
from ..fileio import canonical_json
from ..fuzz.oracles import (
    DEFAULT_STDIN,
    DEFAULT_STEP_BUDGET,
    VULNERABLE_EVENTS,
    run_program,
)

#: Schema stamp for saved sweep reports.
SCHEMA = 1

#: Campaign seed the seed-family rows are generated under.
DEFAULT_SEED = 1


@record(frozen=True)
class MatrixRow:
    """One sweep row: an attack scenario or a runnable program."""

    kind: str  # "attack" | "seed" | "regress"
    row_id: str
    source: str = ""
    stdin: tuple = ()

    @property
    def is_program(self) -> bool:
        return self.kind != "attack"


# -- row collection ---------------------------------------------------------


def attack_rows() -> list:
    """The gallery scenarios, in gallery order."""
    return [
        MatrixRow(kind="attack", row_id=scenario.name)
        for scenario in all_attacks()
    ]


def seed_rows(seed: int = DEFAULT_SEED) -> list:
    """The vulnerable twin of every generator seed family."""
    from ..fuzz.seeds import generator_seeds

    return [
        MatrixRow(
            kind="seed",
            row_id=entry.family,
            source=entry.source,
            stdin=tuple(entry.stdin),
        )
        for entry in generator_seeds(seed)
        if entry.label == "vulnerable"
    ]


def regress_rows(store_dir: str) -> list:
    """Every committed regression bundle, in bundle-id order."""
    from ..regress import RegressionStore

    store = RegressionStore(store_dir, create=False)
    return [
        MatrixRow(
            kind="regress",
            row_id=bundle.bundle_id,
            source=bundle.source,
            stdin=tuple(bundle.stdin),
        )
        for bundle in store.bundles()
    ]


def collect_rows(
    seed: int = DEFAULT_SEED, regress_dir: Optional[str] = None
) -> list:
    """The full deterministic row list for one sweep."""
    rows = attack_rows() + seed_rows(seed)
    if regress_dir:
        rows += regress_rows(regress_dir)
    return rows


# -- cell evaluation --------------------------------------------------------


def cell_summary(succeeded: bool, detected_by: Optional[str], crashed: bool) -> str:
    """The cell text for one outcome — the only place it is derived."""
    if succeeded:
        return "ATTACK-WINS"
    if detected_by:
        return f"detected({detected_by})"
    if crashed:
        return "crashed"
    return "prevented"


def _cell(succeeded: bool, detected_by=None, crashed: bool = False) -> dict:
    return {
        "summary": cell_summary(succeeded, detected_by, crashed),
        "succeeded": succeeded,
        "detected_by": detected_by,
        "crashed": crashed,
    }


def _invalid_cell() -> dict:
    """A program the sweep cannot run: neither a win nor a stop."""
    return {**_cell(False), "summary": "invalid"}


def run_attack_cell(attack_name: str, defense_name: str) -> dict:
    """One gallery scenario under one defense (fresh environment)."""
    scenario = attack_by_name(attack_name)
    result = scenario.run(defense_by_name(defense_name).fresh_environment())
    return _cell(result.succeeded, result.detected_by, result.crashed)


def run_program_cell(
    source: str,
    stdin: Sequence,
    defense_name: str,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> dict:
    """One MiniC++ program on the defense environment's machine.

    The run is the fuzz dynamic oracle's harness
    (:func:`~repro.fuzz.oracles.run_program`) except that the machine
    comes from ``defense.fresh_environment().make_machine``, so
    machine-level mitigations are armed while source-level disciplines
    (checked placement, sanitize-on-reuse) have nothing to hook — the
    interpreter places objects itself, exactly the legacy-code gap §5
    worries about.  A simulated fault decides the cell on its own.  The
    machine is disarmed when the run ends, as a scenario's are
    (:meth:`~repro.attacks.base.AttackScenario.run`).
    """
    env = defense_by_name(defense_name).fresh_environment()
    try:
        with disarm_on_exit():
            run = run_program(
                source, env.make_machine, tuple(stdin) or DEFAULT_STDIN, step_budget
            )
    except Exception:
        return _invalid_cell()
    if run is None or run.error:
        return _invalid_cell()
    if run.fault is not None:
        detected_by, crashed = classify_failure(run.fault)
        return _cell(False, detected_by, crashed)
    return _cell(bool(run.events & VULNERABLE_EVENTS))


def evaluate_cell(payload: dict) -> dict:
    """Worker-shaped cell evaluation (dict in, dict out)."""
    row_kind = payload.get("row_kind", "attack")
    defense = payload["defense"]
    if row_kind == "attack":
        cell = run_attack_cell(payload["row_id"], defense)
    else:
        cell = run_program_cell(
            payload.get("source", ""),
            tuple(payload.get("stdin") or ()),
            defense,
            step_budget=payload.get("step_budget") or DEFAULT_STEP_BUDGET,
        )
    cell["row_kind"] = row_kind
    cell["row_id"] = payload["row_id"]
    cell["defense"] = defense
    return cell


# -- report assembly --------------------------------------------------------


def build_report(
    rows: Sequence,
    defense_names: Sequence[str],
    cells: Iterable[dict],
) -> dict:
    """Assemble the canonical sweep report from evaluated cells.

    ``cells`` must arrive in row-major submission order (every defense
    for row 0, then row 1, ...).  The report carries no worker count or
    timing — byte-identity across those knobs is the point.
    """
    from ..score.threats import risks_from_matrix

    cell_list = list(cells)
    report_rows = []
    totals = {name: 0 for name in defense_names}
    index = 0
    for row in rows:
        row_cells = {}
        for name in defense_names:
            cell = cell_list[index]
            index += 1
            row_cells[name] = cell["summary"]
            if cell["succeeded"]:
                totals[name] += 1
        report_rows.append(
            {"kind": row.kind, "id": row.row_id, "cells": row_cells}
        )
    matrix_dict = {
        "cells": [
            {
                "attack": cell["row_id"],
                "defense": cell["defense"],
                "summary": cell["summary"],
            }
            for cell in cell_list
            if cell.get("row_kind") == "attack"
        ]
    }
    risks = [risk.to_dict() for risk in risks_from_matrix(matrix_dict)]
    return {
        "schema": SCHEMA,
        "defenses": list(defense_names),
        "rows": report_rows,
        "attacks_succeeding": totals,
        "risks": risks,
    }


def canonical_report_json(report: dict) -> str:
    """The byte-stable encoding used for baselines and ``--json``."""
    return canonical_json(report)


def _table(report, corner, label, total_label):
    """Table lines: the header, one line per row, then the win totals.

    Each column is as wide as its widest entry and one space from the
    next, so no two cells ever touch.
    """
    defenses = report["defenses"]
    totals = report["attacks_succeeding"]
    lines = [[corner, *defenses]]
    lines += [
        [label(row), *(row["cells"].get(name, "?") for name in defenses)]
        for row in report["rows"]
    ]
    lines.append([total_label, *(str(totals.get(name, 0)) for name in defenses)])
    widths = [max(map(len, column)) for column in zip(*lines)]

    def render(cells):
        return f"{cells[0]:{widths[0]}s}" + "".join(
            f" {cell:>{width}s}" for cell, width in zip(cells[1:], widths[1:])
        )

    header, *body, total = map(render, lines)
    rule = "-" * len(header)
    return [header, rule, *body, rule, total]


def render_report(report: dict) -> str:
    """A table of the sweep (rows grouped by kind)."""
    lines = _table(
        report,
        "row",
        lambda row: f"{row['kind']}:{row['id']}",
        "rows where the attack wins",
    )
    if report.get("risks"):
        lines.append(f"risks (matrix-cell evidence): {len(report['risks'])}")
    return "\n".join(lines)


def render_attack_table(report: dict) -> str:
    """The E14 table of a sweep over :func:`attack_rows`: one line per
    gallery attack, labelled by name."""
    return "\n".join(
        _table(report, "attack", lambda row: row["id"], "attacks succeeding")
    )


def diff_reports(baseline: dict, current: dict) -> list:
    """Cell-level outcome drift between two sweep reports.

    Returns human-readable drift lines; empty means no drift.  Rows or
    defenses present on one side only are drift too — a silently
    vanished row must fail the gate, not shrink it.
    """
    drift = []
    base_defenses = list(baseline.get("defenses", ()))
    cur_defenses = list(current.get("defenses", ()))
    if base_defenses != cur_defenses:
        drift.append(
            f"defense roster changed: {base_defenses} -> {cur_defenses}"
        )
    base_rows = {
        (row["kind"], row["id"]): row["cells"]
        for row in baseline.get("rows", ())
    }
    cur_rows = {
        (row["kind"], row["id"]): row["cells"]
        for row in current.get("rows", ())
    }
    for key in sorted(base_rows.keys() | cur_rows.keys()):
        kind, row_id = key
        base_cells = base_rows.get(key)
        cur_cells = cur_rows.get(key)
        if base_cells is None:
            drift.append(f"{kind}:{row_id}: new row (not in baseline)")
            continue
        if cur_cells is None:
            drift.append(f"{kind}:{row_id}: row missing from current sweep")
            continue
        for name in sorted(base_cells.keys() | cur_cells.keys()):
            before = base_cells.get(name, "<absent>")
            after = cur_cells.get(name, "<absent>")
            if before != after:
                drift.append(
                    f"{kind}:{row_id} under {name}: {before} -> {after}"
                )
    return drift


# -- driver -----------------------------------------------------------------

#: Per-cell deadline when the sweep fans out over a worker pool.
CELL_TIMEOUT = 120.0


def cell_jobs(
    rows: Sequence,
    defense_names: Sequence[str],
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> list:
    """One :func:`evaluate_cell` payload per (row, defense), row-major."""
    return [
        {
            "row_kind": row.kind,
            "row_id": row.row_id,
            "source": row.source,
            "stdin": tuple(row.stdin),
            "defense": name,
            "step_budget": step_budget,
        }
        for row in rows
        for name in defense_names
    ]


def run_sweep(
    rows: Optional[Sequence] = None,
    defenses: Sequence[str] = (),
    seed: int = DEFAULT_SEED,
    regress_dir: Optional[str] = None,
    step_budget: int = DEFAULT_STEP_BUDGET,
    pool=None,
) -> dict:
    """Evaluate the sweep in-process (``pool=None``, as ``repro-matrix
    run`` does on the thread backend) or fanned out over ``pool``; the
    report is byte-identical either way."""
    if rows is None:
        rows = collect_rows(seed=seed, regress_dir=regress_dir)
    defense_names = list(defenses) or [d.name for d in ALL_DEFENSES]
    for name in defense_names:
        defense_by_name(name)  # reject unknown names up front
    from ..service.workers import run_jobs

    arguments = [(cell,) for cell in cell_jobs(rows, defense_names, step_budget)]
    cells = [
        handle.result()
        for handle in run_jobs(evaluate_cell, arguments, pool, CELL_TIMEOUT)
    ]
    return build_report(rows, defense_names, cells)

"""The repro-matrix sweep: determinism, drift gating, CLI, coverage.

The acceptance property is byte-identity: the same sweep must encode to
the same bytes sequentially and fanned over the worker pool at any
worker count.  These tests pin that on a small row subset (the full
sweep is CI's job), plus cell order-independence and the E14 table
every matrix caller renders from the sweep.
"""

import json
import re

import pytest

from repro.cli import matrix_main
from repro.defenses import ALL_DEFENSES
from repro.matrix import (
    attack_rows,
    build_report,
    canonical_report_json,
    collect_rows,
    diff_reports,
    render_attack_table,
    render_report,
    run_sweep,
    seed_rows,
)
from repro.matrix.sweep import run_attack_cell, run_program_cell
from repro.service import WorkerPool

#: Small-but-representative slice: three gallery attacks, two program
#: rows, and the defenses whose cells exercise every outcome kind.
SUBSET_DEFENSES = ("none", "checked-placement", "vrt", "memory-tagging")


def _subset_rows():
    return attack_rows()[:3] + seed_rows()[:2]


@pytest.fixture(scope="module")
def subset_report():
    return run_sweep(rows=_subset_rows(), defenses=SUBSET_DEFENSES)


class TestRowCollection:
    def test_attack_rows_follow_gallery_order(self):
        from repro.attacks import all_attacks

        assert [r.row_id for r in attack_rows()] == [s.name for s in all_attacks()]

    def test_seed_rows_are_vulnerable_twins_with_sources(self):
        rows = seed_rows()
        assert rows
        for row in rows:
            assert row.kind == "seed"
            assert row.source
            assert row.is_program

    def test_collect_rows_includes_regress_bundles(self):
        rows = collect_rows(regress_dir="corpus/regress")
        kinds = {row.kind for row in rows}
        assert kinds == {"attack", "seed", "regress"}

    def test_collect_rows_without_store(self):
        rows = collect_rows(regress_dir=None)
        assert {row.kind for row in rows} == {"attack", "seed"}


class TestByteIdentity:
    def test_fanned_sweep_matches_sequential(self, subset_report):
        sequential = canonical_report_json(subset_report)
        for workers in (1, 4):
            with WorkerPool(workers) as pool:
                fanned = run_sweep(
                    rows=_subset_rows(), defenses=SUBSET_DEFENSES, pool=pool
                )
            assert canonical_report_json(fanned) == sequential, (
                f"jobs={workers} diverged from sequential"
            )

    def test_repeated_sweeps_are_stable(self, subset_report):
        again = run_sweep(rows=_subset_rows(), defenses=SUBSET_DEFENSES)
        assert canonical_report_json(again) == canonical_report_json(subset_report)

    def test_report_carries_no_engine_or_timing_fields(self, subset_report):
        assert set(subset_report) == {
            "schema",
            "defenses",
            "rows",
            "attacks_succeeding",
            "risks",
        }

    def test_unknown_defense_rejected_up_front(self):
        with pytest.raises(KeyError):
            run_sweep(rows=_subset_rows(), defenses=("none", "asan"))


class TestCommittedBaseline:
    """The CI gate's contract with corpus/matrix/baseline.json."""

    @pytest.fixture(scope="class")
    def baseline(self):
        with open("corpus/matrix/baseline.json", encoding="utf-8") as handle:
            return json.load(handle)

    def test_baseline_covers_the_full_roster(self, baseline):
        assert baseline["defenses"] == [d.name for d in ALL_DEFENSES]

    def test_each_modern_mitigation_beats_the_seed_columns(self, baseline):
        # The acceptance criterion: every modern mitigation stops attack
        # classes the seed-era defenses miss, visibly in the totals.
        totals = baseline["attacks_succeeding"]
        seed_best = min(
            totals[name]
            for name in ("none", "stackguard", "nx-stack", "sanitize-on-reuse")
        )
        assert totals["vrt"] < seed_best
        assert totals["memory-tagging"] < seed_best
        assert totals["shadow-ret-stack"] < totals["none"]

    def test_checked_placement_cannot_reach_interpreted_programs(self, baseline):
        # §5's legacy-code gap, mechanically: the source fix shows
        # ATTACK-WINS on every seed program while the machine-level VRT
        # detects them.
        seed_program_rows = [r for r in baseline["rows"] if r["kind"] == "seed"]
        assert seed_program_rows
        for row in seed_program_rows:
            if row["id"] == "dos-loop":
                continue  # resource exhaustion, not a placement overflow
            assert row["cells"]["checked-placement"] == "ATTACK-WINS"
        vrt_detected = [
            r["id"]
            for r in seed_program_rows
            if r["cells"]["vrt"] == "detected(vrt)"
        ]
        # Every overflow family is caught; only the in-bounds residue
        # leak (`leak`) stays invisible to a bounds table.
        assert set(vrt_detected) == {
            r["id"] for r in seed_program_rows if r["id"] != "leak"
        }

    def test_risks_carry_matrix_cell_evidence(self, baseline):
        assert baseline["risks"]
        assert all("risk_score" in risk or risk for risk in baseline["risks"])


class TestDiffGate:
    def test_identical_reports_have_no_drift(self, subset_report):
        assert diff_reports(subset_report, subset_report) == []

    def test_cell_outcome_change_is_drift(self, subset_report):
        mutated = json.loads(canonical_report_json(subset_report))
        mutated["rows"][0]["cells"]["vrt"] = "ATTACK-WINS"
        drift = diff_reports(subset_report, mutated)
        assert len(drift) == 1
        assert "vrt" in drift[0] and "->" in drift[0]

    def test_vanished_row_is_drift(self, subset_report):
        shrunk = json.loads(canonical_report_json(subset_report))
        dropped = shrunk["rows"].pop()
        drift = diff_reports(subset_report, shrunk)
        assert any(dropped["id"] in line and "missing" in line for line in drift)

    def test_new_row_is_drift(self, subset_report):
        grown = json.loads(canonical_report_json(subset_report))
        grown["rows"].append({"kind": "attack", "id": "novel", "cells": {}})
        drift = diff_reports(subset_report, grown)
        assert any("new row" in line for line in drift)

    def test_roster_change_is_drift(self, subset_report):
        changed = json.loads(canonical_report_json(subset_report))
        changed["defenses"] = changed["defenses"][:-1]
        assert any(
            "roster" in line for line in diff_reports(subset_report, changed)
        )


class TestReportShape:
    def test_totals_count_wins_per_defense(self, subset_report):
        for name in SUBSET_DEFENSES:
            wins = sum(
                1
                for row in subset_report["rows"]
                if row["cells"][name] == "ATTACK-WINS"
            )
            assert subset_report["attacks_succeeding"][name] == wins

    def test_render_lists_rows_and_totals(self, subset_report):
        text = render_report(subset_report)
        assert "rows where the attack wins" in text
        for row in subset_report["rows"]:
            assert f"{row['kind']}:{row['id']}" in text

    @pytest.mark.parametrize("render", [render_report, render_attack_table])
    def test_table_cells_never_touch_and_align_with_headers(
        self, subset_report, render
    ):
        """``detected(vrt)`` next to ``detected(memory-tagging)`` stays
        two cells, each right-aligned under its defense's header."""
        defenses = subset_report["defenses"]
        header, _, *body = render(subset_report).splitlines()
        columns = list(re.finditer(r"\S+", header))[1:]
        assert [column.group() for column in columns] == defenses
        expected = [
            [row["cells"][name] for name in defenses] for row in subset_report["rows"]
        ]
        totals = subset_report["attacks_succeeding"]
        expected.append([str(totals[name]) for name in defenses])
        lines = [line for line in body if not line.startswith(("-", "risks"))]
        assert len(lines) == len(expected)
        for line, cells in zip(lines, expected):
            tokens = list(re.finditer(r"\S+", line))[-len(defenses):]
            assert [token.group() for token in tokens] == cells, line
            assert [token.end() for token in tokens] == [
                column.end() for column in columns
            ], line

    def test_build_report_consumes_cells_in_row_major_order(self):
        rows = _subset_rows()[:2]
        names = ["none", "vrt"]
        cells = [
            {
                "summary": f"cell-{i}",
                "succeeded": False,
                "detected_by": None,
                "crashed": False,
                "row_kind": row.kind,
                "row_id": row.row_id,
                "defense": name,
            }
            for i, (row, name) in enumerate(
                [(r, n) for r in rows for n in names]
            )
        ]
        report = build_report(rows, names, cells)
        assert report["rows"][0]["cells"] == {"none": "cell-0", "vrt": "cell-1"}
        assert report["rows"][1]["cells"] == {"none": "cell-2", "vrt": "cell-3"}


class TestCellOrderIndependence:
    """Every cell gets a fresh environment, so no outcome depends on
    which cells ran before it."""

    def test_scenario_order_does_not_change_outcomes(self):
        rows = attack_rows()
        forward = run_sweep(rows=rows)
        backward = run_sweep(rows=list(reversed(rows)))
        assert forward["rows"] == list(reversed(backward["rows"]))
        assert forward["attacks_succeeding"] == backward["attacks_succeeding"]

    def test_fresh_environment_is_a_distinct_object(self):
        for defense in ALL_DEFENSES:
            env = defense.fresh_environment()
            assert env is not defense.environment
            assert env.machine_config is not defense.environment.machine_config
            assert env.label == defense.environment.label


class TestCellsFreeTheirMachines:
    """A finished cell (or service attack job) disarms its defenses, so
    its machine, segments and all, is freed by reference counting, not
    left to the collector."""

    @staticmethod
    def _garbage_after(cells):
        import gc

        gc.collect()
        gc.disable()
        try:
            for cell in cells:
                cell()
            return gc.collect()
        finally:
            gc.enable()

    @pytest.mark.parametrize("defense", [d.name for d in ALL_DEFENSES])
    def test_attack_cells_leave_nothing_to_the_collector(self, defense):
        rows = attack_rows()
        assert self._garbage_after(
            lambda row=row: run_attack_cell(row.row_id, defense) for row in rows
        ) == 0

    @pytest.mark.parametrize("defense", [d.name for d in ALL_DEFENSES])
    def test_program_cells_leave_nothing_to_the_collector(self, defense):
        rows = seed_rows()
        assert self._garbage_after(
            lambda row=row: run_program_cell(row.source, row.stdin, defense)
            for row in rows
        ) == 0

    @pytest.mark.parametrize("defense", [d.name for d in ALL_DEFENSES])
    def test_service_attack_jobs_leave_nothing_to_the_collector(self, defense):
        from repro.defenses import defense_by_name
        from repro.service.workers import run_attack

        env = defense_by_name(defense).environment.label
        rows = attack_rows()
        assert self._garbage_after(
            lambda row=row: run_attack({"attack": row.row_id, "env": env}) for row in rows
        ) == 0

    def test_disarm_puts_back_the_machine_dispatch(self):
        from repro.attacks.base import VTABLE_INTEGRITY
        from repro.defenses.base import disarm
        from repro.runtime.machine import Machine

        machine = VTABLE_INTEGRITY.make_machine()
        assert "virtual_call" in vars(machine)
        disarm(machine)
        assert "virtual_call" not in vars(machine)
        assert machine.virtual_call.__func__ is Machine.virtual_call
        assert not hasattr(machine, "defense")

    @pytest.mark.parametrize("defense", [d.name for d in ALL_DEFENSES])
    def test_disarm_leaves_the_machine_unhooked(self, defense):
        from repro.defenses import defense_by_name
        from repro.defenses.base import disarm

        def hooks(machine):
            return (
                "defense" in vars(machine),
                "virtual_call" in vars(machine),
                machine.call_shadow is not None,
                len(machine.space._hooks),
                len(machine.space._typed_guards),
                len(machine.tracker._observers),
                len(machine.placement_log._observers),
            )

        bare = defense_by_name("none").environment.make_machine()
        machine = defense_by_name(defense).environment.make_machine()
        disarm(machine)
        assert hooks(machine) == hooks(bare)


class TestThreatCoverage:
    """Satellite: defenses/detections/outcomes cannot ship unmapped."""

    def test_registry_has_no_coverage_gaps(self):
        from repro.score.threats import coverage_gaps

        assert coverage_gaps() == {}

    def test_every_matrix_outcome_classifies(self):
        from repro.score.threats import outcome_class

        assert outcome_class("ATTACK-WINS") == "win"
        assert outcome_class("detected(vrt)") == "stopped"
        assert outcome_class("detected(memory-tagging)") == "stopped"
        assert outcome_class("crashed") == "stopped"
        assert outcome_class("prevented") == "stopped"
        assert outcome_class("invalid") == "unjudged"
        assert outcome_class("gibberish") is None

    @pytest.mark.parametrize(
        "summary",
        [
            "detected(no-such-defense)",
            "detected",
            "detected()",
            "detected(vrt",
            "detected(vrt)x",
            "ATTACK-WINS(vrt)",
        ],
    )
    def test_an_unknown_detection_label_does_not_classify(self, summary):
        from repro.score.threats import outcome_class

        assert outcome_class(summary) is None

    def test_every_baseline_cell_classifies(self):
        from repro.score.threats import outcome_class

        with open("corpus/matrix/baseline.json", encoding="utf-8") as handle:
            baseline = json.load(handle)
        summaries = {
            summary for row in baseline["rows"] for summary in row["cells"].values()
        }
        assert summaries
        assert [s for s in sorted(summaries) if outcome_class(s) is None] == []


class TestMatrixCli:
    def test_run_json_round_trips(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = matrix_main(
            [
                "run",
                "--jobs",
                "0",
                "--no-regress",
                "--defenses",
                "none,vrt",
                "--json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed == out.read_text().strip()
        report = json.loads(printed)
        assert report["defenses"] == ["none", "vrt"]

    def test_diff_clean_exits_zero(self, tmp_path, capsys, subset_report):
        path = tmp_path / "r.json"
        path.write_text(canonical_report_json(subset_report))
        assert matrix_main(["diff", str(path), str(path)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_drift_exits_one(self, tmp_path, capsys, subset_report):
        base = tmp_path / "base.json"
        base.write_text(canonical_report_json(subset_report))
        mutated = json.loads(canonical_report_json(subset_report))
        mutated["rows"][0]["cells"]["none"] = "prevented"
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(mutated))
        assert matrix_main(["diff", str(base), str(cur)]) == 1
        assert "->" in capsys.readouterr().out

    def test_diff_missing_file_fails(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert matrix_main(["diff", missing, missing]) == 2
        assert "no such report" in capsys.readouterr().err

    def test_report_renders_saved_sweep(self, tmp_path, capsys, subset_report):
        path = tmp_path / "r.json"
        path.write_text(canonical_report_json(subset_report))
        assert matrix_main(["report", str(path)]) == 0
        assert "rows where the attack wins" in capsys.readouterr().out

    def test_negative_jobs_rejected(self, capsys):
        assert matrix_main(["run", "--jobs", "-1"]) == 2

    def test_unknown_defense_fails_cleanly(self, capsys):
        code = matrix_main(
            ["run", "--jobs", "0", "--no-regress", "--defenses", "asan"]
        )
        assert code == 2
        assert "asan" in capsys.readouterr().err

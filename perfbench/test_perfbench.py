"""Tests of the benchmark itself: a deterministic generator, and checks
that pass a correct output and reject corrupted copies of it.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import csv
import json
import os
import shutil
import subprocess
import sys
import warnings

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402

LEVELS, ALGORITHMS = checks.EVAL_LEVELS, checks.ALGORITHMS

TINY = gen.Shape(
    files=3, methods=(3, 4), stmts=(2, 4), commits=60, bugs=16, fixes=(1,),
    touches=(1, 2), lead=(2, 6), spread=(1, 1), edits=(1, 1), burst=2,
    planted=True, duplicates=2, open_issues=1, other_issues=1,
)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A correct output tree of the full pipeline on a tiny planted repo."""
    from fixpair.pipeline import PipelineConfig, run_pipeline

    base = tmp_path_factory.mktemp("tiny")
    gen.SHAPES["tiny"] = TINY
    try:
        truth = gen.generate("tiny", 3, str(base)).truth()
    finally:
        del gen.SHAPES["tiny"]
    out = str(base / "out")
    config = PipelineConfig(
        out=out, repo=str(base / "repo.git"), issues=str(base / "issues.json"),
        eval_filters=("full",), levels=LEVELS, jobs=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fresh = run_pipeline(config)["stages"]
        digest = checks.tree_digest(out)
        run_pipeline(config)
    return {"out": out, "truth": truth, "fresh": fresh, "digest": digest}


def _copy(tiny, tmp_path):
    out = str(tmp_path / "copy")
    shutil.copytree(tiny["out"], out)
    return out


def _edit_csv(path, edit):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _all_problems(out, tiny):
    truth = tiny["truth"]
    problems = (checks.check_plan(out, truth) + checks.check_rows(out, truth)
                + checks.check_metrics(out, truth) + checks.check_filters(out)
                + checks.check_stats(out)
                + checks.check_rerun(out, tiny["digest"], tiny["fresh"]))
    cells = checks.check_cells(out, "full", LEVELS, ALGORITHMS)
    return problems + [p for bad in cells.values() for p in bad]


def test_one_seed_gives_identical_commit_hashes(tmp_path):
    a = gen.generate("wide", 11, str(tmp_path / "a")).truth()
    b = gen.generate("wide", 11, str(tmp_path / "b")).truth()
    assert a.commits == b.commits
    heads = [subprocess.run(["git", "-C", str(tmp_path / d / "repo.git"),
                             "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                            check=True).stdout for d in ("a", "b")]
    assert heads[0] == heads[1]
    assert gen.generate("wide", 12, str(tmp_path / "c")).truth().commits != a.commits


def test_shape_does_not_depend_on_the_seed(tmp_path):
    facts = [gen.generate("long", s, str(tmp_path / str(s))).truth().facts
             for s in (1, 2)]
    for key in ("java_files", "classes", "first_parent_commits", "side_commits",
                "merges", "fix_commits", "analysed_commits", "issues"):
        assert facts[0][key] == facts[1][key], key


def test_learn_rows_do_not_depend_on_the_seed(tmp_path):
    """Every seed gives learn the same metric rows, so the learners' work
    is the same; the seed still changes names, hashes and history."""
    truths = [gen.generate("learn", s, str(tmp_path / str(s))).truth()
              for s in (1, 2)]
    assert truths[0].commits != truths[1].commits
    for level in checks.LEVELS:
        rows = [sorted((t.rows[level][key], sorted(t.metrics[level][key].items()))
                       for key in t.rows[level]) for t in truths]
        assert rows[0] == rows[1], level


def test_checks_pass_a_correct_output(tiny):
    assert _all_problems(tiny["out"], tiny) == []
    assert checks.check_signal(tiny["out"], "full", ("method",)) == []


def test_changed_metric_cell_is_rejected(tiny, tmp_path):
    out = _copy(tiny, tmp_path)
    path = os.path.join(out, "dataset", "full", "method.csv")

    def bump_loc(rows):
        col = rows[0].index("LOC")
        rows[1][col] = str(int(rows[1][col]) + 1)
        return rows

    _edit_csv(path, bump_loc)
    assert checks.check_metrics(out, tiny["truth"])


def test_changed_bug_count_is_rejected(tiny, tmp_path):
    out = _copy(tiny, tmp_path)

    def bump(rows):
        rows[1][-1] = str(int(rows[1][-1]) + 1)
        return rows

    _edit_csv(os.path.join(out, "dataset", "full", "file.csv"), bump)
    assert checks.check_rows(out, tiny["truth"])


@pytest.mark.parametrize("where", ["full", "subtract"])
def test_dropped_row_is_rejected(tiny, tmp_path, where):
    out = _copy(tiny, tmp_path)
    _edit_csv(os.path.join(out, "dataset", where, "class.csv"),
              lambda rows: rows[:1] + rows[2:])
    problems = (checks.check_rows(out, tiny["truth"]) if where == "full"
                else checks.check_filters(out))
    assert problems


def test_dropped_plan_line_is_rejected(tiny, tmp_path):
    out = _copy(tiny, tmp_path)
    path = os.path.join(out, "plan.txt")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[1:])
    assert checks.check_plan(out, tiny["truth"])


def test_skipped_cell_is_rejected(tiny, tmp_path):
    out = _copy(tiny, tmp_path)
    path = os.path.join(out, "eval", "results.csv")

    def skip_projected(rows):
        keep = [r for r in rows if r[1] != "projected"]
        return keep + [["full", "projected", "-", "", "", "",
                        "skipped: method x lacks a parent class"]]

    _edit_csv(path, skip_projected)
    cells = checks.check_cells(out, "full", LEVELS, ALGORITHMS)
    assert all(cells[("projected", a)] for a in ALGORITHMS)
    assert not any(cells[("method", a)] for a in ALGORITHMS)


def test_changed_result_is_rejected(tiny, tmp_path):
    out = _copy(tiny, tmp_path)

    def nudge(rows):
        rows[1][5] = f"{float(rows[1][5]) + 0.01:.4f}"
        return rows

    _edit_csv(os.path.join(out, "eval", "results.csv"), nudge)
    cells = checks.check_cells(out, "full", LEVELS, ALGORITHMS)
    assert any(cells.values())


def test_changed_friedman_statistic_is_rejected(tiny, tmp_path):
    out = _copy(tiny, tmp_path)
    path = os.path.join(out, "stats", "summary.txt")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace("chi2=", "chi2=1", 1))
    assert checks.check_stats(out)


def test_flipped_stage_status_is_rejected(tiny, tmp_path):
    out = _copy(tiny, tmp_path)
    path = os.path.join(out, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["stages"]["build"]["status"] = "fresh"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert checks.check_rerun(out, tiny["digest"], tiny["fresh"])


def test_changed_artifact_after_rerun_is_rejected(tiny, tmp_path):
    out = _copy(tiny, tmp_path)
    with open(os.path.join(out, "plan.txt"), "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert checks.check_rerun(out, tiny["digest"], tiny["fresh"])

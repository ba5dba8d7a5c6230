"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import math
import os
import random
import subprocess
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as sstats

from fixpair.analyzer import analyze_source
from fixpair.dataset import load_entries_csv
from fixpair.diffs import apply_file_diff, elements_touched, parse_unified_diff
from fixpair.filters import STRATEGIES, filter_entries
from fixpair.learn.evaluate import (
    ConfusionMatrix,
    EvalResult,
    cross_validate,
    cross_validate_projected,
    prf,
    project_to_class,
    undersample,
)
from fixpair.linker import HistoryIndex, build_timeline
from fixpair.pipeline import PipelineConfig, run_pipeline
from fixpair.stats import (
    effect_size_r,
    friedman,
    nemenyi,
    rate,
    studentized_range_isf,
    wilcoxon_signed_rank,
)

from snippets import make_class
from test_diffs import _random_layout, brute_force_touched
from test_filters import expected_counts, make_entries

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def report(criterion, detail, started):
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {criterion}: PASS ({detail}; {elapsed:.2f}s)")
    return elapsed


# -----------------------------------------------------------------------------
# 1. filter semantics
# -----------------------------------------------------------------------------

def test_criterion_1_filter_semantics():
    t0 = time.perf_counter()
    base = make_entries(10, 20)

    def counts(entries):
        b = sum(1 for e in entries if e.bug_count > 0)
        return b, len(entries) - b

    assert counts(filter_entries(base, "removal", 1)) == (0, 20)
    assert counts(filter_entries(base, "subtract", 1)) == (0, 10)
    assert counts(filter_entries(base, "single", 1)) == (0, 1)
    assert counts(filter_entries(base, "gcf", 1)) == (1, 2)

    rng = random.Random(8128)
    for trial in range(1000):
        b, c = rng.randrange(0, 18), rng.randrange(0, 18)
        entries = make_entries(b, c)
        for strategy in STRATEGIES:
            got = counts(filter_entries(entries, strategy, rng_seed=trial))
            want = expected_counts(strategy, b, c)
            if want is None:
                assert got in ((1, 0), (0, 1)), (strategy, b, c)
            else:
                assert got == want, (strategy, b, c)
    elapsed = report("1 (filter semantics)", "10:20 worked examples + 1000 random pairs", t0)
    assert elapsed < 1.0


# -----------------------------------------------------------------------------
# 2. timeline classification
# -----------------------------------------------------------------------------

def test_criterion_2_timeline_classification(fixture_repo):
    t0 = time.perf_counter()
    from fixpair.ingest import load_issue_specs, snapshot_from_local_repo

    snap = snapshot_from_local_repo(
        fixture_repo["repo"],
        load_issue_specs(fixture_repo["issues"]),
        bug_labels=frozenset({"bug"}),
        repo_id="demo/fixture",
    )
    h = fixture_repo["hashes"]
    hist = HistoryIndex(snap)
    closed = [i for i in snap.issues if i.state == "closed"]
    assert len(snap.commits) == 12 and len(closed) == 3
    t1, t2, t3 = (build_timeline(i, snap, hist) for i in closed)
    ground_truth = {
        1: (h["C3"], (h["C4"], h["C10"]),
            (h["C5"], h["C6"], h["C7"], h["C8"], h["C9"]), (h["C3"],)),
        2: (h["C5"], (h["C6"], h["C8"]), (h["C7"],), (h["C5"],)),
        3: (h["C6"], (h["C7"],), (), (h["C6"],)),
    }
    for t in (t1, t2, t3):
        assert not t.degraded
        assert (t.orange, t.green, t.gray, t.blue) == ground_truth[t.issue_id]
    elapsed = report(
        "2 (timeline classification)",
        "12-commit fixture, 3 issues, roles exact", t0,
    )
    assert elapsed < 5.0


# -----------------------------------------------------------------------------
# 3. diff replay soundness + touch mapping oracle
# -----------------------------------------------------------------------------

def test_criterion_3_diff_replay_and_touch_oracle(fixture_repo):
    t0 = time.perf_counter()
    repo = fixture_repo["repo"]
    hashes = fixture_repo["hashes"]
    names = sorted(hashes, key=lambda n: int(n[1:]))
    pairs = list(zip(names, names[1:])) + [("C1", "C6"), ("C3", "C10"), ("C1", "C12")]
    replayed = 0
    for a, b in pairs:
        text = subprocess.run(
            ["git", "-C", repo, "diff", "--no-color", "--no-renames",
             hashes[a], hashes[b]],
            stdout=subprocess.PIPE, check=True,
        ).stdout.decode()
        for d in parse_unified_diff(text):
            old = _git_show(repo, hashes[a], d.old_path) if not d.is_add else ""
            new = _git_show(repo, hashes[b], d.new_path) if not d.is_delete else ""
            assert apply_file_diff(old, d) == new, (a, b, d.old_path, d.new_path)
            replayed += 1
    assert replayed >= 14

    rng = random.Random(31337)
    for _ in range(200):
        elements = _random_layout(rng)
        max_line = max(e.end_line for e in elements)
        lines = sorted(rng.sample(range(1, max_line + 5), rng.randrange(1, 12)))
        assert elements_touched(set(lines), elements) == brute_force_touched(
            lines, elements
        )
    elapsed = report(
        "3 (diff replay soundness)",
        f"{replayed} git diffs replayed byte-exactly + 200 layout oracles", t0,
    )
    assert elapsed < 10.0


def _git_show(repo, rev, path):
    proc = subprocess.run(
        ["git", "-C", repo, "show", f"{rev}:{path}"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    return proc.stdout.decode() if proc.returncode == 0 else ""


# -----------------------------------------------------------------------------
# 4. dataset construction vs goldens
# -----------------------------------------------------------------------------

def test_criterion_4_dataset_construction(fixture_repo, tmp_path):
    t0 = time.perf_counter()
    out = str(tmp_path / "out")
    config = PipelineConfig(
        out=out,
        repo=fixture_repo["repo"],
        issues=fixture_repo["issues"],
        repo_id="demo/fixture",
        seed=7,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        run_pipeline(config, stop_after="build")

    for name in ("file.csv", "class.csv", "method.csv", "method-p.csv"):
        got = Path(out, "dataset", "full", name).read_bytes()
        want = Path(GOLDEN_DIR, name).read_bytes()
        assert got == want, f"{name} is not byte-identical to the golden copy"

    entries = load_entries_csv(
        os.path.join(out, "dataset", "full", "method.csv"), "method"
    )
    h = fixture_repo["hashes"]
    by_key = {(e.commit_hash, e.fqn): e.bug_count for e in entries}
    div = "com.example.Calc.div(int,int)int"
    norm = "com.example.Util.normalize(String)String"
    # isolated bug: buggy count >= 1, fixed count = 0
    assert by_key[(h["C3"], div)] >= 1
    assert by_key[(h["C10"], div)] == 0
    # overlapping bugs: the fixed entry of issue 3 still carries issue 2's bug
    assert by_key[(h["C7"], norm)] == 1
    assert by_key[(h["C6"], norm)] == 2
    elapsed = report(
        "4 (dataset construction)",
        "golden CSVs byte-identical; isolated and overlapping counts exact", t0,
    )
    assert elapsed < 30.0


# -----------------------------------------------------------------------------
# 5. metric identities on fuzzed sources
# -----------------------------------------------------------------------------

def test_criterion_5_metric_identities():
    t0 = time.perf_counter()
    rel = 1e-9
    checked_methods = 0
    for seed in range(500):
        fa = analyze_source("src/Fuzz.java", make_class(seed))
        assert fa.error is None
        wmc = {}
        for (kind, fqn), vec in fa.vectors.items():
            v = vec.values
            if kind == "method":
                checked_methods += 1
                hpv_log = math.log2(v["HPV"]) if v["HPV"] > 0 else 0.0
                assert v["HVOL"] == pytest.approx(v["HPL"] * hpv_log, rel=rel)
                assert v["HEFF"] == pytest.approx(v["HDIF"] * v["HVOL"], rel=rel)
                assert v["HNDB"] == pytest.approx(v["HVOL"] / 3000.0, rel=rel)
                assert v["HTRP"] == pytest.approx(v["HEFF"] / 18.0, rel=rel)
                assert v["McCC"] >= 1
                wmc.setdefault(vec.element.parent_fqn, 0.0)
                wmc[vec.element.parent_fqn] += v["McCC"]
            if kind in ("method", "class"):
                assert v["LLOC"] <= v["LOC"]
                assert 0.0 <= v["CD"] <= 1.0
        for (kind, fqn), vec in fa.vectors.items():
            if kind == "class":
                assert vec.values["WMC"] == wmc.get(fqn, 0.0)  # exact
    elapsed = report(
        "5 (metric identities)",
        f"500 fuzzed files, {checked_methods} methods, Halstead/WMC exact", t0,
    )
    assert elapsed < 10.0


# -----------------------------------------------------------------------------
# 6. evaluation formulas
# -----------------------------------------------------------------------------

def test_criterion_6_evaluation_formulas():
    t0 = time.perf_counter()
    rng = random.Random(606)
    for _ in range(100):
        m = ConfusionMatrix(
            tp=rng.randrange(0, 50), fp=rng.randrange(0, 50),
            tn=rng.randrange(0, 50), fn=rng.randrange(0, 50),
        )
        res = prf(m)
        p = m.tp / (m.tp + m.fp) if m.tp + m.fp else 0.0
        r = m.tp / (m.tp + m.fn) if m.tp + m.fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        assert abs(res.precision - p) < 1e-12
        assert abs(res.recall - r) < 1e-12
        assert abs(res.f_measure - f) < 1e-12

    # balanced data + the two constant classifiers over symmetric folds sum to
    # a quarter in every confusion cell
    fold_matrices = []
    for label in (1, 0):
        for _fold in range(5):
            m = ConfusionMatrix()
            for actual in (1, 1, 0, 0):
                m.record(label, actual)
            fold_matrices.append(m)
    combined = EvalResult.from_matrices(fold_matrices)
    assert (combined.precision, combined.recall, combined.f_measure) == (0.5, 0.5, 0.5)

    # under-sampling balances 10 buggy / 50 clean to 10-10
    y = np.array([1 if i < 10 else 0 for i in range(60)], dtype=np.int64)
    balanced = undersample(y, np.arange(60), rng_seed=3)
    assert sum(1 for i in balanced if y[i] == 1) == 10
    assert sum(1 for i in balanced if y[i] == 0) == 10
    report(
        "6 (evaluation formulas)",
        "100 matrices at 1e-12; constant classifier 0.5 exact; 10-10 balance", t0,
    )


# -----------------------------------------------------------------------------
# 7. projection experiment
# -----------------------------------------------------------------------------

def test_criterion_7_projection_oracle():
    t0 = time.perf_counter()
    rng = random.Random(707)
    for _ in range(100):
        rows = []
        for c in range(rng.randrange(1, 101)):
            for m_i in range(rng.randrange(1, 11)):
                rows.append(
                    (f"C{c}.m{m_i}()", f"C{c}", rng.randrange(2), rng.randrange(2))
                )
        got = project_to_class(rows)
        classes = {}
        for fqn, parent, pred, actual in rows:
            agg = classes.setdefault(parent, [0, 0])
            agg[0] |= pred
            agg[1] |= actual
        want = ConfusionMatrix()
        for pred, actual in classes.values():
            want.record(pred, actual)
        assert got == want
    report("7 (projection experiment)", "100 fixtures vs brute-force any-rule", t0)


# -----------------------------------------------------------------------------
# 8. statistics vs reference oracle + reference constants
# -----------------------------------------------------------------------------

def test_criterion_8_statistics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    for trial in range(50):
        n = int(rng.integers(4, 15))
        k = int(rng.integers(3, 6))
        m = rng.random((n, k))
        if trial % 3 == 0:
            m = np.round(m, 1)  # force ties
        mine = friedman(m.tolist())
        ref_stat, ref_p = sstats.friedmanchisquare(*m.T)
        assert abs(mine.statistic - ref_stat) < 1e-6
        assert abs(mine.p_value - ref_p) < 1e-6

        nem = nemenyi(m.tolist())
        se = math.sqrt(k * (k + 1) / (6.0 * n))
        for i in range(k):
            for j in range(i):
                q = abs(nem.mean_ranks[i] - nem.mean_ranks[j]) / se
                assert abs(nem.q_stats[i][j] - q) < 1e-9
                ref = float(sstats.studentized_range.sf(q, k, np.inf))
                ref = min(0.9, max(0.001, ref))
                assert abs(nem.p_values[i][j] - ref) < 1e-6

        size = int(rng.integers(8, 30))
        a = rng.random(size)
        b = a + rng.normal(0, 0.35, size)
        mine_w = wilcoxon_signed_rank(a.tolist(), b.tolist())
        ref_w = sstats.wilcoxon(
            a, b, zero_method="wilcox", correction=False, method="approx"
        )
        assert abs(mine_w.p_value - ref_w.pvalue) < 1e-6

    assert round(studentized_range_isf(0.05, 5, df=176), 1) == 3.9
    es = effect_size_r(10.9, 353)
    assert round(es.r, 2) == 0.58 and es.magnitude == "large"
    assert round(rate(167708, 109244), 2) == 1.54
    assert round(rate(27216, 66092), 2) == 0.41
    assert round(rate(16235, 49868), 2) == 0.33
    report(
        "8 (statistics)",
        "50 matrices vs scipy at 1e-6; q_crit 3.9; r 0.58; rates 1.54/0.41/0.33",
        t0,
    )


# -----------------------------------------------------------------------------
# 9. planted-signal learnability (full-scale results are not desk-reproducible)
# -----------------------------------------------------------------------------

def _planted_instances(seed, n_classes=120, methods_per=3, d=10, shift=2.0, shuffle=False):
    rng = np.random.default_rng(seed)
    rows, labels, names = [], [], []
    for c in range(n_classes):
        buggy = c < n_classes // 2
        class_offset = rng.normal(0, 0.4, size=d)
        for m in range(methods_per):
            feats = rng.normal(0, 1, size=d) + class_offset
            if buggy:
                feats[:3] += shift  # 2 sigma on 3 features
            rows.append(feats)
            labels.append(1 if buggy else 0)
            names.append((f"C{c}.m{m}()", f"C{c}"))
    y = np.array(labels, dtype=np.int64)
    if shuffle:
        y = y[rng.permutation(len(y))]
    return np.array(rows), y, names


def test_criterion_9_planted_signal():
    t0 = time.perf_counter()
    instances = _planted_instances(424242)
    res = cross_validate("random_forest", instances, k=10, repeats=1, seed=99)
    assert res.f_measure >= 0.80, res.f_measure
    projected = cross_validate_projected(
        "random_forest", instances, k=10, repeats=1, seed=99
    )
    assert projected.f_measure >= res.f_measure - 0.05, (
        projected.f_measure, res.f_measure,
    )
    shuffled = _planted_instances(424242, shuffle=True)
    bands = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for algo in ("one_r", "naive_bayes", "logistic", "decision_tree",
                     "random_tree", "random_forest"):
            r = cross_validate(algo, shuffled, k=10, repeats=1, seed=99)
            bands[algo] = r.f_measure
            assert 0.40 <= r.f_measure <= 0.60, (algo, r.f_measure)
    elapsed = report(
        "9 (planted signal)",
        f"RF F={res.f_measure:.3f}, projected={projected.f_measure:.3f}, "
        f"shuffled in [{min(bands.values()):.3f}, {max(bands.values()):.3f}]",
        t0,
    )
    assert elapsed < 60.0


# -----------------------------------------------------------------------------
# 10. determinism of the whole pipeline
# -----------------------------------------------------------------------------

def _tree_bytes(root):
    snapshot = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root)
            with open(full, "rb") as fh:
                snapshot[rel] = fh.read()
    return snapshot


def test_criterion_10_determinism(fixture_repo, tmp_path):
    t0 = time.perf_counter()
    trees = []
    for run in ("a", "b"):
        out = str(tmp_path / f"run_{run}")
        config = PipelineConfig(
            out=out,
            repo=fixture_repo["repo"],
            issues=fixture_repo["issues"],
            repo_id="demo/fixture",
            eval_filters=("subtract",),
            levels=("method", "class", "file", "projected"),
            seed=7,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            run_pipeline(config)
        trees.append(_tree_bytes(out))
    assert trees[0].keys() == trees[1].keys()
    diverging = [k for k in trees[0] if trees[0][k] != trees[1][k]]
    assert not diverging, f"artifacts differ between identical runs: {diverging}"
    report(
        "10 (determinism)",
        f"{len(trees[0])} artifacts byte-identical across two runs", t0,
    )

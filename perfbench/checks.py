"""Correctness checks on one fixpair output tree.

Every check returns a list of failure messages; an empty list means the
output passed.  The expected values come from the generator's ground truth
(:class:`gen.Truth`), from scipy, or from the rules stated in fixpair's own
docstrings, never from a stored copy of an earlier output.
"""

import csv
import hashlib
import json
import math
import os
import re

LEVELS = ("file", "class", "method")  # dataset levels
STRATEGIES = ("removal", "subtract", "single", "gcf")  # filters besides full
ALGORITHMS = ("one_r", "naive_bayes", "logistic", "decision_tree",
              "random_tree", "random_forest")
EVAL_LEVELS = LEVELS + ("projected",)  # evaluation levels of ``learn``


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _rows(out, strategy, name):
    return _read_csv(os.path.join(out, "dataset", strategy, name))


def check_plan(out, truth):
    """plan.txt equals the generator's plan, line for line."""
    with open(os.path.join(out, "plan.txt"), encoding="utf-8") as fh:
        got = [tuple(line.split()) for line in fh if line.strip()]
    want = [tuple(p) for p in truth.plan]
    if got == want:
        return []
    extra = sorted(set(got) - set(want))[:3]
    missing = sorted(set(want) - set(got))[:3]
    return [f"plan: {len(got)} lines, want {len(want)}; "
            f"unexpected {extra}, missing {missing}"]


def check_rows(out, truth):
    """Each level's (hash, fqn) rows and bug counts equal the ground truth;
    method-p.csv names each method's class."""
    problems = []
    for level in LEVELS:
        got = {}
        for r in _rows(out, "full", f"{level}.csv"):
            key = (r["hash"], r["fqn"])
            if key in got:
                problems.append(f"{level}: duplicate row {key}")
            got[key] = int(r["bug_count"])
        want = truth.rows[level]
        for key in sorted(set(want) - set(got))[:3]:
            problems.append(f"{level}: missing row {key}")
        for key in sorted(set(got) - set(want))[:3]:
            problems.append(f"{level}: unexpected row {key}")
        for key in sorted(set(got) & set(want)):
            if got[key] != want[key]:
                problems.append(
                    f"{level}: bug_count of {key} is {got[key]}, want {want[key]}")
    for r in _rows(out, "full", "method-p.csv"):
        want = truth.parents.get((r["hash"], r["fqn"]))
        if want is not None and r["parent_fqn"] != want:
            problems.append(
                f"method-p: parent of {r['fqn']} is {r['parent_fqn']!r}, want {want!r}")
    return problems


def check_metrics(out, truth):
    """Metric columns the generator knows by construction match every row."""
    problems = []
    for level in LEVELS:
        want = truth.metrics[level]
        for r in _rows(out, "full", f"{level}.csv"):
            facts = want.get((r["hash"], r["fqn"]))
            if facts is None:
                continue  # reported by check_rows
            for metric, value in facts.items():
                cell = r.get(metric, "")
                if cell == "" or float(cell) != value:
                    problems.append(
                        f"{level} {r['fqn']}@{r['hash'][:8]}: {metric}={cell!r}, "
                        f"want {value}")
    return problems


def _feature_key(row, skip=("hash", "fqn", "parent_fqn", "bug_count")):
    return tuple(v for k, v in row.items() if k not in skip)


def _expected_counts(strategy, b, c):
    """Survivors (buggy, clean) of a b:c conflict group, or None when a tie
    leaves one survivor of either label (``single``)."""
    if b == 0 or c == 0:
        return b, c
    if strategy == "removal":
        return (0, 0) if b == c else ((b, 0) if b > c else (0, c))
    if strategy == "subtract":
        return (0, 0) if b == c else ((b - c, 0) if b > c else (0, c - b))
    if strategy == "single":
        return None if b == c else ((1, 0) if b > c else (0, 1))
    g = math.gcd(b, c)
    return b // g, c // g


def check_filters(out):
    """Every filtered dataset obeys the group rules of fixpair's filters
    module: it is an order-preserving subset of the full dataset, and each
    group of identical feature vectors keeps the survivors its strategy
    prescribes."""
    problems = []
    for level in LEVELS:
        full = _rows(out, "full", f"{level}.csv")
        groups = {}
        for r in full:
            tally = groups.setdefault(_feature_key(r), [0, 0])
            tally[0 if int(r["bug_count"]) > 0 else 1] += 1
        order = {tuple(r.values()): i for i, r in enumerate(full)}
        for strategy in STRATEGIES:
            kept = _rows(out, strategy, f"{level}.csv")
            where = f"{strategy}/{level}"
            idx = [order.get(tuple(r.values())) for r in kept]
            if None in idx:
                problems.append(f"{where}: a row not in the full dataset")
                continue
            if idx != sorted(set(idx)):
                problems.append(f"{where}: rows repeated or out of dataset order")
            got = {}
            for r in kept:
                tally = got.setdefault(_feature_key(r), [0, 0])
                tally[0 if int(r["bug_count"]) > 0 else 1] += 1
            for key, (b, c) in groups.items():
                have = tuple(got.get(key, (0, 0)))
                want = _expected_counts(strategy, b, c)
                ok = sum(have) == 1 if want is None else have == want
                if not ok:
                    problems.append(
                        f"{where}: group {b}:{c} kept {have[0]}:{have[1]}, "
                        f"want {'1 of either' if want is None else want}")
            if level == "method":
                plain = [_feature_key(r, ("parent_fqn",)) for r in kept]
                with_p = [_feature_key(r, ("parent_fqn",))
                          for r in _rows(out, strategy, "method-p.csv")]
                if plain != with_p:
                    problems.append(f"{where}: method-p.csv rows differ from method.csv")
    return problems


def _prf(tp, fp, fn):
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def check_cells(out, strategy, levels, algorithms):
    """Per evaluation cell: ``{(level, algorithm): [failures]}``.

    A cell fails when it is missing or skipped, when its P/R/F differ from
    the values recomputed from its summed fold matrices, when a fold's F
    differs from its own matrix, or when the fold totals do not match the
    instance count of the level.
    """
    results = {(r["level"], r["algorithm"]): r
               for r in _read_csv(os.path.join(out, "eval", "results.csv"))
               if r["filter"] == strategy}
    folds = {}
    for r in _read_csv(os.path.join(out, "eval", "folds.csv")):
        if r["filter"] == strategy:
            folds.setdefault((r["level"], r["algorithm"]), []).append(r)
    sizes = {lvl: len(_rows(out, "full", f"{lvl}.csv")) for lvl in LEVELS}
    classes = len({r["parent_fqn"] for r in _rows(out, "full", "method-p.csv")})
    cells = {}
    for level in levels:
        for algo in algorithms:
            bad = cells.setdefault((level, algo), [])
            row = results.get((level, algo))
            if row is None:
                skipped = results.get((level, "-"))
                bad.append(f"{level}/{algo}: "
                           + (skipped["note"] if skipped else "no result row"))
                continue
            if row["note"]:
                bad.append(f"{level}/{algo}: note {row['note']!r}")
                continue
            fold_rows = folds.get((level, algo), [])
            tally = [0, 0, 0, 0]
            for fr in fold_rows:
                m = [int(fr[k]) for k in ("tp", "fp", "tn", "fn")]
                tally = [a + b for a, b in zip(tally, m)]
                f_fold = _prf(m[0], m[1], m[3])[2]
                if abs(float(fr["f_measure"]) - f_fold) > 5e-7:
                    bad.append(f"{level}/{algo} fold {fr['fold']}: F "
                               f"{fr['f_measure']} != {f_fold:.6f}")
            want = _prf(tally[0], tally[1], tally[3])
            got = tuple(row[k] for k in ("precision", "recall", "f_measure"))
            if got != tuple(f"{v:.4f}" for v in want):
                bad.append(f"{level}/{algo}: P/R/F {got} but folds give "
                           f"{tuple(round(v, 4) for v in want)}")
            total = sum(tally)
            if level == "projected":
                if not classes <= total <= sizes["method"]:
                    bad.append(f"projected/{algo}: {total} class verdicts for "
                               f"{classes} classes and {sizes['method']} methods")
            elif total != sizes[level]:
                bad.append(f"{level}/{algo}: folds hold {total} instances, "
                           f"dataset has {sizes[level]}")
    return cells


def check_signal(out, strategy, levels):
    """At every level the best learner beats predicting every instance
    buggy, whose F is 2p/(1+p) for a buggy share p."""
    totals = {}
    for r in _read_csv(os.path.join(out, "eval", "folds.csv")):
        if r["filter"] != strategy:
            continue
        t = totals.setdefault((r["level"], r["algorithm"]), [0, 0, 0, 0])
        for i, k in enumerate(("tp", "fp", "tn", "fn")):
            t[i] += int(r[k])
    problems = []
    for level in levels:
        scores = [(_prf(t[0], t[1], t[3])[2], t) for (lvl, _), t in totals.items()
                  if lvl == level]
        if not scores:
            continue  # reported per cell
        best, t = max(scores)
        share = (t[0] + t[3]) / sum(t)
        baseline = 2 * share / (1 + share)
        if best <= baseline:
            problems.append(f"{level}: best F {best:.4f} does not beat the "
                            f"all-buggy F {baseline:.4f}")
    return problems


_FRIEDMAN_RE = re.compile(
    r"^\[(\S+)/(\S+)\] friedman chi2=(\S+) p=(\S+)( \(degenerate\))?$")
_QCRIT_RE = re.compile(r"^q_crit\(alpha=(\S+), k=(\d+), N=(\d+)\) = (\S+)$")


def check_stats(out):
    """Friedman statistic and p-value, and the Nemenyi critical value, match
    scipy.stats computed from folds.csv."""
    from scipy import stats as sps

    groups = {}
    for r in _read_csv(os.path.join(out, "eval", "folds.csv")):
        key = (r["filter"], r["level"])
        groups.setdefault(key, {}).setdefault(r["algorithm"], []).append(
            float(r["f_measure"]))
    with open(os.path.join(out, "stats", "summary.txt"), encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    reported = {}
    for line in lines:
        m = _FRIEDMAN_RE.match(line)
        if m is None:
            return [f"stats: unparsable summary line {line!r}"]
        reported[(m[1], m[2])] = (float(m[3]), float(m[4]), bool(m[5]))
    problems = []
    for key, by_algo in sorted(groups.items()):
        algos = sorted(by_algo)
        n = min(len(v) for v in by_algo.values())
        if len(algos) < 2 or n < 2:
            continue
        if key not in reported:
            problems.append(f"stats: no Friedman line for {key}")
            continue
        chi2, p, degenerate = reported[key]
        cols = [by_algo[a][:n] for a in algos]
        if all(len(set(row)) == 1 for row in zip(*cols)):
            if not degenerate:
                problems.append(f"stats {key}: all folds tied but not degenerate")
        else:
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ref = sps.friedmanchisquare(*cols)
            if abs(chi2 - ref.statistic) > 5e-5 + 1e-9 * abs(ref.statistic):
                problems.append(f"stats {key}: chi2 {chi2} != scipy {ref.statistic:.6f}")
            if abs(p - ref.pvalue) > 5e-4 * max(abs(ref.pvalue), 1e-300) + 1e-12:
                problems.append(f"stats {key}: p {p} != scipy {ref.pvalue:.6g}")
        path = os.path.join(out, "stats", f"nemenyi_{key[0]}_{key[1]}.txt")
        with open(path, encoding="utf-8") as fh:
            m = _QCRIT_RE.match(fh.readline().strip())
        if m is None:
            problems.append(f"stats {key}: no q_crit line")
            continue
        alpha, k, samples, qcrit = float(m[1]), int(m[2]), int(m[3]), float(m[4])
        ref_q = sps.studentized_range.isf(alpha, k, samples)
        if (k, samples) != (len(algos), n) or abs(qcrit - ref_q) > 5e-4 + 1e-6:
            problems.append(f"stats {key}: q_crit {qcrit} (k={k}, N={samples}) "
                            f"!= scipy {ref_q:.4f} (k={len(algos)}, N={n})")
    return problems


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(root, n))
               for root, _, names in os.walk(path) for n in names)


def tree_digest(out):
    """sha256 of every file under ``out`` except manifest.json, whose stage
    statuses change from fresh to cached on a rerun."""
    digest = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out)
            if rel == "manifest.json":
                continue
            with open(path, "rb") as fh:
                digest[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digest


def check_rerun(out, fresh_digest, fresh_manifest):
    """Every stage of the rerun is cached and the tree is byte-identical."""
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)["stages"]
    problems = [f"rerun: stage {name} is {info['status']}"
                for name, info in manifest.items() if info["status"] != "cached"]
    if sorted(manifest) != sorted(fresh_manifest):
        problems.append(f"rerun: stages {sorted(manifest)} != {sorted(fresh_manifest)}")
    now = tree_digest(out)
    changed = sorted(k for k in set(now) | set(fresh_digest)
                     if now.get(k) != fresh_digest.get(k))
    if changed:
        problems.append(f"rerun: {len(changed)} files differ, e.g. {changed[:3]}")
    return problems

"""Evaluation harness: labeling, under-sampling, stratified k-fold
cross-validation, method-to-class projection, and P/R/F reporting."""

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import FixpairError, SnapshotFormatError
from ..ingest import csv_records, read_input
from ..metrics import COLUMNS_BY_LEVEL, EMPTY_CLASS_COLUMNS, EMPTY_METHOD_COLUMNS
from .models import _rng, train

LABEL_CLEAN = 0
LABEL_BUGGY = 1


@dataclass
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __add__(self, other):
        return ConfusionMatrix(
            self.tp + other.tp,
            self.fp + other.fp,
            self.tn + other.tn,
            self.fn + other.fn,
        )

    def total(self):
        return self.tp + self.fp + self.tn + self.fn

    def record(self, predicted, actual):
        if actual == LABEL_BUGGY:
            if predicted == LABEL_BUGGY:
                self.tp += 1
            else:
                self.fn += 1
        else:
            if predicted == LABEL_BUGGY:
                self.fp += 1
            else:
                self.tn += 1


@dataclass(frozen=True)
class PrfResult:
    precision: float
    recall: float
    f_measure: float


def prf(m: ConfusionMatrix) -> PrfResult:
    """precision = tp/(tp+fp); recall = tp/(tp+fn); F = harmonic mean.

    Zero denominators yield 0.
    """
    precision = m.tp / (m.tp + m.fp) if m.tp + m.fp > 0 else 0.0
    recall = m.tp / (m.tp + m.fn) if m.tp + m.fn > 0 else 0.0
    if precision + recall > 0:
        f = 2.0 * precision * recall / (precision + recall)
    else:
        f = 0.0
    return PrfResult(precision, recall, f)


def feature_columns(level):
    empty = EMPTY_METHOD_COLUMNS if level == "method" else EMPTY_CLASS_COLUMNS
    if level == "file":
        empty = frozenset()
    return [c for c in COLUMNS_BY_LEVEL[level] if c not in empty]


def instances_from_entries(entries, level):
    """A level's rows as ``(X, y, names)``: the metric matrix over the
    computed columns, the labels (zero bugs -> clean, one or more -> buggy)
    and each row's ``(fqn, parent_fqn)``.

    Structurally empty columns are dropped from the feature vector, never
    imputed.
    """
    cols = feature_columns(level)
    X = np.array(
        [[float(e.metrics.get(c) or 0.0) for c in cols] for e in entries],
        dtype=np.float64,
    )
    y = np.array([e.bug_count > 0 for e in entries], dtype=np.int64)
    return X, y, [(e.fqn, e.parent_fqn) for e in entries]


def undersample(y, rows, rng_seed):
    """The training ``rows`` with the majority class randomly shrunk to the
    minority size (seeded), in their given order."""
    buggy = y[rows] == LABEL_BUGGY
    n_buggy = int(buggy.sum())
    n_minority = min(n_buggy, len(rows) - n_buggy)
    if not n_minority:
        raise FixpairError("under-sampling needs both classes to be nonempty")
    majority = buggy if n_buggy > n_minority else ~buggy
    drawn = _rng(rng_seed).permutation(len(rows) - n_minority)[:n_minority]
    keep = ~majority
    keep[np.flatnonzero(majority)[drawn]] = True
    return rows[keep]


def stratified_folds(y, k, seed):
    """Round-robin stratified fold assignment; returns one sorted row-index
    array per fold."""
    by_class = [np.flatnonzero(y == label) for label in (LABEL_CLEAN, LABEL_BUGGY)]
    min_class = min(map(len, by_class))
    if min_class < 2:
        raise FixpairError(
            "cross-validation needs at least 2 rows per class, "
            f"got {len(by_class[1])} buggy and {len(by_class[0])} clean"
        )
    if k > min_class:
        warnings.warn(
            f"k={k} exceeds minority class size {min_class}; reducing k",
            stacklevel=2,
        )
        k = min_class
    rng = _rng(seed)
    dealt = [rows[rng.permutation(len(rows))] for rows in by_class]
    return [np.sort(np.concatenate([d[f::k] for d in dealt])) for f in range(k)]


@dataclass
class EvalResult:
    precision: float
    recall: float
    f_measure: float
    fold_matrices: list = field(default_factory=list)
    predictions: list = field(default_factory=list)  # (fqn, parent, pred, actual)

    @classmethod
    def from_matrices(cls, matrices, predictions=()):
        p = prf(sum(matrices, ConfusionMatrix()))
        return cls(p.precision, p.recall, p.f_measure, list(matrices), list(predictions))


def cross_validate(algorithm, instances, k=10, repeats=1, seed=0) -> EvalResult:
    """Stratified k-fold CV of ``instances`` (``(X, y, names)``) with
    per-training-fold random under-sampling.

    Folds are fixed by ``seed``; each repeat redraws the under-sample and
    retrains.  Confusion matrices are summed over folds and repeats and
    P/R/F recomputed from the sum, never averaged from per-fold ratios.
    """
    X, y, names = instances
    folds = stratified_folds(y, k, seed)
    matrices = []
    predictions = []
    for r in range(repeats):
        for fi, test in enumerate(folds):
            train_rows = undersample(
                y, np.concatenate(folds[:fi] + folds[fi + 1:]),
                rng_seed=seed * 7_919 + r * 101 + fi,
            )
            model = train(algorithm, X[train_rows], y[train_rows],
                          rng_seed=seed * 31 + r * 7 + fi)
            pred = model.predict(X[test]).tolist()
            m = ConfusionMatrix()
            for row, p_lab, a_lab in zip(test.tolist(), pred, y[test].tolist()):
                m.record(p_lab, a_lab)
                predictions.append((*names[row], p_lab, a_lab))
            matrices.append(m)
    return EvalResult.from_matrices(matrices, predictions)


def project_to_class(method_predictions) -> ConfusionMatrix:
    """Any-rule projection of method predictions onto their classes.

    A class is predicted buggy iff any member method is predicted buggy, and
    actually buggy iff any member method is actually buggy; the confusion
    matrix is over classes.
    """
    by_class = {}
    for fqn, parent_fqn, predicted, actual in method_predictions:
        if parent_fqn is None:
            raise FixpairError(f"method {fqn} lacks a parent class")
        agg = by_class.setdefault(parent_fqn, [False, False])
        agg[0] = agg[0] or predicted == LABEL_BUGGY
        agg[1] = agg[1] or actual == LABEL_BUGGY
    m = ConfusionMatrix()
    for pred_buggy, act_buggy in by_class.values():
        m.record(
            LABEL_BUGGY if pred_buggy else LABEL_CLEAN,
            LABEL_BUGGY if act_buggy else LABEL_CLEAN,
        )
    return m


def project_folds(result) -> EvalResult:
    """Project a method-level CV result onto classes, fold by fold.

    ``result.predictions`` holds each fold's test methods in fold order, so
    each fold matrix's ``total()`` marks its slice of the predictions.
    """
    matrices, start = [], 0
    for m in result.fold_matrices:
        stop = start + m.total()
        matrices.append(project_to_class(result.predictions[start:stop]))
        start = stop
    return EvalResult.from_matrices(matrices)


def cross_validate_projected(
    algorithm, instances, k=10, repeats=1, seed=0
) -> EvalResult:
    """Method-level CV whose per-fold matrices are projected to class level."""
    return project_folds(
        cross_validate(algorithm, instances, k=k, repeats=repeats, seed=seed)
    )


_PREDICTION_LABELS = {"buggy": LABEL_BUGGY, "clean": LABEL_CLEAN}


def load_predictions_csv(path) -> list:
    """External predictions: columns fqn, parent_fqn, predicted, actual
    with buggy/clean values.  Covers learners the harness does not implement."""
    fieldnames, records = read_input(path, csv_records)
    for column in ("fqn", "predicted", "actual"):
        if column not in (fieldnames or ()):
            raise SnapshotFormatError("header lacks a column", path=path, field=column)
    rows = []
    for line_num, rec in records:
        labels = []
        for column in ("predicted", "actual"):
            value = (rec[column] or "").strip()
            if value not in _PREDICTION_LABELS:
                raise SnapshotFormatError(
                    f"line {line_num}: {value!r} is neither buggy nor clean",
                    path=path,
                    field=column,
                )
            labels.append(_PREDICTION_LABELS[value])
        rows.append((rec["fqn"], rec.get("parent_fqn") or None, *labels))
    return rows


def evaluate_external(rows, projected=False) -> EvalResult:
    """Score an externally produced prediction list with the same reporting."""
    if projected:
        matrix = project_to_class(rows)
    else:
        matrix = ConfusionMatrix()
        for _, _, predicted, actual in rows:
            matrix.record(predicted, actual)
    return EvalResult.from_matrices([matrix])

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


@dataclass(frozen=True)
class LabeledInstance:
    features: tuple
    label: int  # 1 = buggy, 0 = clean
    fqn: str = ""
    parent_fqn: str = None


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


def label_entries(entries) -> list:
    """Binary labeling: zero bugs -> clean, one or more -> buggy."""
    return [
        (e, LABEL_BUGGY if e.bug_count > 0 else LABEL_CLEAN) for e in entries
    ]


def feature_columns(level):
    empty = EMPTY_METHOD_COLUMNS if level == "method" else EMPTY_CLASS_COLUMNS
    if level == "file":
        empty = frozenset()
    return [c for c in COLUMNS_BY_LEVEL[level] if c not in empty]


def instances_from_entries(entries, level) -> list:
    """Dense instances over the computed metric columns of the level.

    Structurally empty columns are dropped from the feature vector, never
    imputed.
    """
    cols = feature_columns(level)
    out = []
    for e, lab in label_entries(entries):
        values = tuple(float(e.metrics.get(c) or 0.0) for c in cols)
        out.append(
            LabeledInstance(
                features=values, label=lab, fqn=e.fqn, parent_fqn=e.parent_fqn
            )
        )
    return out


def undersample(instances, rng_seed) -> list:
    """Randomly shrink the majority class to the minority size (seeded)."""
    buggy = [i for i in instances if i.label == LABEL_BUGGY]
    clean = [i for i in instances if i.label == LABEL_CLEAN]
    if not buggy or not clean:
        raise FixpairError("under-sampling needs both classes to be nonempty")
    rng = _rng(rng_seed)
    if len(buggy) > len(clean):
        majority, minority = buggy, clean
    else:
        majority, minority = clean, buggy
    keep = set(rng.permutation(len(majority))[: len(minority)].tolist())
    kept_major = [inst for k, inst in enumerate(majority) if k in keep]
    kept = set(map(id, kept_major)) | set(map(id, minority))
    return [inst for inst in instances if id(inst) in kept]


def stratified_folds(instances, k, seed):
    """Round-robin stratified fold assignment; returns a list of index lists."""
    by_class = {LABEL_CLEAN: [], LABEL_BUGGY: []}
    for idx, inst in enumerate(instances):
        by_class[inst.label].append(idx)
    min_class = min(len(v) for v in by_class.values() if v) if instances else 0
    if k > min_class:
        warnings.warn(
            f"k={k} exceeds minority class size {min_class}; reducing k",
            stacklevel=2,
        )
        k = max(2, min_class)
    if k < 2 or min_class < 2:
        raise FixpairError("cross-validation needs at least 2 folds per class")
    rng = _rng(seed)
    folds = [[] for _ in range(k)]
    for label in (LABEL_CLEAN, LABEL_BUGGY):
        idxs = by_class[label]
        order = rng.permutation(len(idxs))
        for slot, j in enumerate(order):
            folds[slot % k].append(idxs[j])
    return [sorted(f) for f in folds]


@dataclass
class EvalResult:
    algorithm: str
    level: str
    precision: float
    recall: float
    f_measure: float
    fold_matrices: list = field(default_factory=list)
    repeats: int = 1
    predictions: list = field(default_factory=list)  # (fqn, parent, pred, actual)

    @classmethod
    def from_matrices(cls, algorithm, level, matrices, repeats, predictions=()):
        p = prf(sum(matrices, ConfusionMatrix()))
        return cls(
            algorithm=algorithm,
            level=level,
            precision=p.precision,
            recall=p.recall,
            f_measure=p.f_measure,
            fold_matrices=list(matrices),
            repeats=repeats,
            predictions=list(predictions),
        )


def _xy(instances):
    X = np.array([i.features for i in instances], dtype=np.float64)
    y = np.array([i.label for i in instances], dtype=np.int64)
    return X, y


def cross_validate(algorithm, instances, k=10, repeats=1, seed=0) -> EvalResult:
    """Stratified k-fold CV with per-training-fold random under-sampling.

    Folds are fixed by ``seed``; each repeat redraws the under-sample and
    retrains.  Confusion matrices are summed over folds and repeats and
    P/R/F recomputed from the sum, never averaged from per-fold ratios.
    """
    if repeats < 1:
        raise FixpairError(f"cross-validation needs at least 1 repeat, got {repeats}")
    instances = list(instances)
    folds = stratified_folds(instances, k, seed)
    matrices = []
    predictions = []
    for r in range(repeats):
        for fi, test_idx in enumerate(folds):
            train_idx = [i for f in folds for i in f if f is not test_idx]
            train_set = undersample(
                [instances[i] for i in train_idx], rng_seed=seed * 7_919 + r * 101 + fi
            )
            X, y = _xy(train_set)
            model = train(algorithm, X, y, rng_seed=seed * 31 + r * 7 + fi)
            test_set = [instances[i] for i in test_idx]
            Xt, yt = _xy(test_set)
            pred = model.predict(Xt)
            m = ConfusionMatrix()
            for inst, p_lab, a_lab in zip(test_set, pred, yt):
                m.record(int(p_lab), int(a_lab))
                predictions.append(
                    (inst.fqn, inst.parent_fqn, int(p_lab), int(a_lab))
                )
            matrices.append(m)
    return EvalResult.from_matrices(
        algorithm, "instances", matrices, repeats, predictions
    )


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
    return EvalResult.from_matrices(
        result.algorithm, "projected", matrices, result.repeats
    )


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
    return EvalResult.from_matrices(
        "external", "projected" if projected else "instances", [matrix], 1, rows
    )

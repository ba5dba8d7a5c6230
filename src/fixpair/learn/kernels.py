"""Hot numeric kernel for tree training.

Split search dominates the harness runtime.  ``best_split(X, y, feat_idx,
min_leaf)`` scans every candidate threshold of each sampled feature with
numpy and returns ``(feature, threshold, weighted_entropy)``, or
``(-1, 0.0, inf)`` when no admissible split exists.  Ties keep the first
candidate in scan order: features in ``feat_idx`` order, thresholds in
ascending value order, replaced only by a strictly lower score.
"""

import math

import numpy as np

KERNEL_BACKEND = "numpy"  # recorded with benchmark results


def entropy(pos, n):
    """Binary entropy of a ``pos``-of-``n`` split, in bits."""
    if pos == 0 or pos == n:
        return 0.0
    p = pos / n
    q = 1.0 - p
    return -(p * math.log2(p) + q * math.log2(q))


def best_split(X, y, feat_idx, min_leaf):
    """Best weighted-entropy split over the features in ``feat_idx``."""
    n = X.shape[0]
    total_pos = int(y.sum())
    best_feature = -1
    best_threshold = 0.0
    best_score = np.inf
    for f in feat_idx:
        order = np.argsort(X[:, f], kind="mergesort")
        v = X[order, f]
        pos_left = np.cumsum(y[order])[:-1].astype(np.float64)
        n_left = np.arange(1, n, dtype=np.float64)
        n_right = n - n_left
        pos_right = total_pos - pos_left
        valid = (v[:-1] != v[1:]) & (n_left >= min_leaf) & (n_right >= min_leaf)
        if not valid.any():
            continue
        score = (
            n_left * _entropy_vec(pos_left, n_left)
            + n_right * _entropy_vec(pos_right, n_right)
        ) / n
        score = np.where(valid, score, np.inf)
        i = int(np.argmin(score))  # first minimum, same as the scan
        if score[i] < best_score:
            best_score = float(score[i])
            best_feature = int(f)
            best_threshold = float((v[i] + v[i + 1]) / 2.0)
    return best_feature, best_threshold, best_score


def _entropy_vec(pos, n):
    p = np.divide(pos, n)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(p * np.log2(p) + q * np.log2(q))
    return np.where((pos == 0) | (pos == n), 0.0, h)

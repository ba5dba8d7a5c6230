"""Hot numeric kernel for tree training.

Split search dominates the harness runtime.  ``best_split(X, y, feat_idx,
min_leaf)`` scores every candidate threshold of every sampled feature in
one numpy pass and returns ``(feature, threshold, weighted_entropy)``, or
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
    """Best weighted-entropy split over the features in ``feat_idx``.

    Every threshold of every sampled feature is scored in one pass: column
    ``j`` of the ``(n - 1, k)`` grid holds the ``n - 1`` cut points of
    feature ``feat_idx[j]`` in ascending value order.
    """
    n = X.shape[0]
    if n < 2 or len(feat_idx) == 0:
        return -1, 0.0, np.inf
    cols = X[:, feat_idx]
    order = np.argsort(cols, axis=0, kind="mergesort")
    v = np.take_along_axis(cols, order, axis=0)
    pos_left = np.cumsum(y[order][:-1], axis=0)
    pos_right = y.sum() - pos_left
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n - n_left
    score = (
        n_left * _entropy_vec(pos_left, n_left)
        + n_right * _entropy_vec(pos_right, n_right)
    ) / n
    valid = (v[:-1] != v[1:]) & ((n_left >= min_leaf) & (n_right >= min_leaf))
    score[~valid] = np.inf
    # feature-major: the first feature in ``feat_idx`` order, then the
    # lowest threshold, among the minimal scores
    j, i = divmod(int(np.argmin(score.T)), n - 1)
    best = float(score[i, j])
    if best == np.inf:
        return -1, 0.0, np.inf
    return int(feat_idx[j]), float((v[i, j] + v[i + 1, j]) / 2.0), best


def _entropy_vec(pos, n):
    p = np.divide(pos, n)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(p * np.log2(p) + q * np.log2(q))
    return np.where((pos == 0) | (pos == n), 0.0, h)

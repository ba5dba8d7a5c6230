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
    feature ``feat_idx[j]`` in ascending value order.  The left and right
    sides of every cut share one entropy evaluation.
    """
    n = X.shape[0]
    k = len(feat_idx)
    if n < 2 or k == 0:
        return -1, 0.0, np.inf
    cols = X[:, feat_idx]
    order = np.argsort(cols, axis=0, kind="mergesort")
    v = cols[order, np.arange(k)]
    pos = np.empty((2, n - 1, k), dtype=np.int64)
    np.cumsum(y[order[:-1]], axis=0, out=pos[0])
    np.subtract(y.sum(), pos[0], out=pos[1])
    left = np.arange(1, n, dtype=np.float64)
    rows = np.stack([left, n - left])[:, :, None]  # (2, n - 1, 1) side rows
    h = _entropy_vec(pos, rows)
    h *= rows
    score = (h[0] + h[1]) / n
    score[v[:-1] == v[1:]] = np.inf
    # fewer than min_leaf rows on the left of the first cuts, on the right
    # of the last ones
    short = max(math.ceil(min_leaf), 1) - 1
    score[:short] = np.inf
    score[n - 1 - short:] = np.inf
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

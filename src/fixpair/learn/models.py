"""Built-in learners: one_r, naive_bayes, logistic, decision_tree,
random_tree, random_forest.

All of them train deterministically under a fixed seed and predict binary
labels (1 = buggy).  External prediction files are scored by
``evaluate.evaluate_external`` instead.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .kernels import entropy

# C4.5-style pessimistic pruning confidence (CF = 0.25, one-tailed z).
_PRUNE_Z = 0.6744897501960817


def _rng(seed):
    return np.random.Generator(np.random.PCG64(int(seed) & 0xFFFFFFFFFFFFFFFF))


@dataclass
class ConstantModel:
    label: int

    def predict(self, X):
        return np.full(X.shape[0], self.label, dtype=np.int64)


def _degenerate(y):
    classes = np.unique(y)
    if len(classes) < 2:
        warnings.warn(
            "training set contains a single class; using a constant classifier",
            stacklevel=3,
        )
        return ConstantModel(label=int(classes[0]) if len(classes) else 0)
    return None


# ---------------------------------------------------------------------------
# OneR
# ---------------------------------------------------------------------------

@dataclass
class OneRModel:
    feature: int
    threshold: float
    label_below: int
    label_above: int

    def predict(self, X):
        below = X[:, self.feature] < self.threshold
        return np.where(below, self.label_below, self.label_above).astype(np.int64)


_TIED = np.iinfo(np.int64).max  # the error of a cut between equal values


def train_one_r(X, y, hyper, seed):
    model = _degenerate(y)
    if model is not None:
        return model
    n, d = X.shape
    total_pos = int(y.sum())
    order = np.argsort(X, axis=0, kind="mergesort")
    v = X[order, np.arange(d)]
    pos_below = np.cumsum(y[order[:-1]], axis=0).T  # (d, n - 1)
    n_below = np.arange(1, n)
    # errors in scan order: feature, threshold, then orientation A
    # (below -> clean, above -> buggy) before B (below -> buggy, above -> clean)
    err = np.empty((d, n - 1, 2), dtype=np.int64)
    err[:, :, 0] = pos_below + ((n - n_below) - (total_pos - pos_below))
    err[:, :, 1] = (n_below - pos_below) + (total_pos - pos_below)
    err[(v[:-1] == v[1:]).T] = _TIED
    # the first minimum is the candidate a strict-< scan keeps
    best = int(np.argmin(err)) if d else None
    if best is None or err.flat[best] == _TIED:  # all features constant
        majority = 1 if total_pos * 2 >= n else 0
        return ConstantModel(label=majority)
    f, rest = divmod(best, 2 * (n - 1))
    i, orientation = divmod(rest, 2)
    return OneRModel(
        feature=f,
        threshold=(v[i, f] + v[i + 1, f]) / 2.0,
        label_below=orientation,
        label_above=1 - orientation,
    )


# ---------------------------------------------------------------------------
# Gaussian naive Bayes
# ---------------------------------------------------------------------------

@dataclass
class NaiveBayesModel:
    means: np.ndarray  # (2, d)
    variances: np.ndarray
    log_priors: np.ndarray

    def predict(self, X):
        scores = []
        for c in (0, 1):
            z = (X - self.means[c]) ** 2 / (2.0 * self.variances[c])
            log_lik = -0.5 * np.log(2.0 * np.pi * self.variances[c]) - z
            scores.append(self.log_priors[c] + log_lik.sum(axis=1))
        return (scores[1] > scores[0]).astype(np.int64)


def train_naive_bayes(X, y, hyper, seed):
    model = _degenerate(y)
    if model is not None:
        return model
    var_floor = hyper.get("var_floor", 1e-9)
    means = np.zeros((2, X.shape[1]))
    variances = np.ones((2, X.shape[1]))
    log_priors = np.zeros(2)
    for c in (0, 1):
        rows = X[y == c]
        means[c] = rows.mean(axis=0)
        variances[c] = np.maximum(rows.var(axis=0), var_floor)
        log_priors[c] = math.log(rows.shape[0] / X.shape[0])
    return NaiveBayesModel(means=means, variances=variances, log_priors=log_priors)


# ---------------------------------------------------------------------------
# L2-regularized logistic regression (standardized inputs)
# ---------------------------------------------------------------------------

@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    center: np.ndarray
    scale: np.ndarray

    def predict(self, X):
        z = (X - self.center) / self.scale
        logits = z @ self.weights + self.bias
        return (logits > 0).astype(np.int64)


def train_logistic(X, y, hyper, seed):
    model = _degenerate(y)
    if model is not None:
        return model
    lr = hyper.get("learning_rate", 0.1)
    iters = hyper.get("iterations", 500)
    l2 = hyper.get("l2", 1e-3)
    center = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    z = (X - center) / scale
    n, d = z.shape
    w = np.zeros(d)
    b = 0.0
    yf = y.astype(np.float64)
    for _ in range(iters):
        logits = z @ w + b
        p = 1.0 / (1.0 + np.exp(-logits))
        g = p - yf
        w -= lr * ((z.T @ g) / n + l2 * w)
        b -= lr * (g.sum() / n)
    return LogisticModel(weights=w, bias=b, center=center, scale=scale)


# ---------------------------------------------------------------------------
# decision trees
# ---------------------------------------------------------------------------

@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node" = None
    right: "_Node" = None
    n: int = 0
    pos: int = 0

    @property
    def is_leaf(self):
        return self.feature < 0

    def prob_buggy(self):
        return self.pos / self.n if self.n else 0.5


@dataclass
class TreeModel:
    root: _Node

    def predict(self, X):
        return (self.predict_proba(X) * 2 >= 1.0).astype(np.int64)

    def predict_proba(self, X):
        out = np.empty(X.shape[0])
        for i in range(X.shape[0]):
            node = self.root
            while not node.is_leaf:
                node = (
                    node.left if X[i, node.feature] < node.threshold else node.right
                )
            out[i] = node.prob_buggy()
        return out


def _grow(X, y, idx, min_leaf, max_depth, depth, feature_sampler):
    yn = y[idx]
    node = _Node(n=len(idx), pos=int(yn.sum()))
    if (
        node.pos in (0, node.n)
        or node.n < 2 * min_leaf
        or (max_depth is not None and depth >= max_depth)
    ):
        return node
    feat_idx = feature_sampler()
    Xn = X[idx]
    f, thr, score = kernels.best_split(Xn, yn, feat_idx, min_leaf)
    if f < 0:
        return node
    parent_h = entropy(node.pos, node.n)
    if parent_h - score <= 1e-12:
        return node
    mask = Xn[:, f] < thr
    node.feature = int(f)
    node.threshold = float(thr)
    node.left = _grow(X, y, idx[mask], min_leaf, max_depth, depth + 1, feature_sampler)
    node.right = _grow(X, y, idx[~mask], min_leaf, max_depth, depth + 1, feature_sampler)
    return node


def _pessimistic_errors(n, e):
    """C4.5 upper-bound error estimate for a leaf covering n cases, e wrong."""
    if n == 0:
        return 0.0
    z = _PRUNE_Z
    f = e / n
    num = f + z * z / (2 * n) + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))
    return n * (num / (1 + z * z / n))


def _prune(node):
    if node.is_leaf:
        return _pessimistic_errors(node.n, min(node.pos, node.n - node.pos))
    subtree = _prune(node.left) + _prune(node.right)
    as_leaf = _pessimistic_errors(node.n, min(node.pos, node.n - node.pos))
    if as_leaf <= subtree + 1e-9:
        node.feature = -1
        node.left = node.right = None
        return as_leaf
    return subtree


def train_decision_tree(X, y, hyper, seed):
    model = _degenerate(y)
    if model is not None:
        return model
    min_leaf = hyper.get("min_leaf", 2)
    max_depth = hyper.get("max_depth")
    all_features = np.arange(X.shape[1], dtype=np.int64)
    root = _grow(
        X, y, np.arange(X.shape[0]), min_leaf, max_depth, 0, lambda: all_features
    )
    if hyper.get("prune", True):
        _prune(root)
    return TreeModel(root=root)


def _random_tree(X, y, hyper, rng):
    min_leaf = hyper.get("min_leaf", 1)
    max_depth = hyper.get("max_depth")
    d = X.shape[1]
    k = max(1, int(math.isqrt(d)))

    def sampler():
        return np.sort(rng.choice(d, size=k, replace=False))

    root = _grow(X, y, np.arange(X.shape[0]), min_leaf, max_depth, 0, sampler)
    return TreeModel(root=root)


def train_random_tree(X, y, hyper, seed):
    model = _degenerate(y)
    if model is not None:
        return model
    return _random_tree(X, y, hyper, _rng(seed))


@dataclass
class ForestModel:
    trees: list = field(default_factory=list)

    def predict(self, X):
        probs = np.mean([t.predict_proba(X) for t in self.trees], axis=0)
        return (probs * 2 >= 1.0).astype(np.int64)


def train_random_forest(X, y, hyper, seed):
    n_trees = hyper.get("n_trees", 50)
    if n_trees < 1:
        raise ValueError(f"a random forest needs n_trees >= 1, got {n_trees}")
    model = _degenerate(y)
    if model is not None:
        return model
    if n_trees == 1:
        # degenerate ensemble: exactly a random tree, no bootstrap
        return ForestModel(trees=[train_random_tree(X, y, hyper, seed)])
    trees = []
    n = X.shape[0]
    for t in range(n_trees):
        rng = _rng(seed * 1_000_003 + t)
        sample = rng.integers(0, n, size=n)
        trees.append(_random_tree(X[sample], y[sample], hyper, rng))
    return ForestModel(trees=trees)


# ---------------------------------------------------------------------------
# algorithm table
# ---------------------------------------------------------------------------

TRAINERS = {
    "one_r": train_one_r,
    "naive_bayes": train_naive_bayes,
    "logistic": train_logistic,
    "decision_tree": train_decision_tree,
    "random_tree": train_random_tree,
    "random_forest": train_random_forest,
}

ALGORITHMS = tuple(TRAINERS)


def train(algorithm, X, y, hyperparameters=None, rng_seed=0):
    """Train one of the ``ALGORITHMS`` on a feature matrix."""
    if algorithm not in TRAINERS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(TRAINERS)}"
        )
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    return TRAINERS[algorithm](X, y, dict(hyperparameters or {}), rng_seed)

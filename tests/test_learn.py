import math
import random

import numpy as np
import pytest

from fixpair.errors import FixpairError
from fixpair.learn.evaluate import (
    ConfusionMatrix,
    EvalResult,
    LabeledInstance,
    cross_validate,
    cross_validate_projected,
    evaluate_external,
    label_entries,
    load_predictions_csv,
    prf,
    project_folds,
    project_to_class,
    stratified_folds,
    undersample,
)
from fixpair.learn.kernels import best_split, entropy
from fixpair.learn.models import (
    ALGORITHMS,
    TRAINERS,
    ConstantModel,
    OneRModel,
    train,
)


def make_instances(n_buggy, n_clean, rng, d=4, shift=0.0, label_order=None):
    out = []
    labels = [1] * n_buggy + [0] * n_clean
    if label_order:
        labels = label_order
    for i, lab in enumerate(labels):
        feats = tuple(rng.gauss(shift * lab, 1.0) for _ in range(d))
        out.append(
            LabeledInstance(
                features=feats, label=lab, fqn=f"C{i // 3}.m{i}()", parent_fqn=f"C{i // 3}"
            )
        )
    return out


# --- kernels -------------------------------------------------------------------

def _best_split_scalar(X, y, feat_idx, min_leaf):
    """Plain-Python scan of every threshold: the oracle for ``best_split``."""
    n = X.shape[0]
    best_feature, best_threshold, best_score = -1, 0.0, math.inf
    total_pos = int(y.sum())
    for f in feat_idx:
        order = np.argsort(X[:, f], kind="mergesort")
        pos_left = 0
        for i in range(n - 1):
            idx = order[i]
            pos_left += int(y[idx])
            v, v_next = X[idx, f], X[order[i + 1], f]
            if v == v_next:
                continue
            n_left = i + 1
            n_right = n - n_left
            if n_left < min_leaf or n_right < min_leaf:
                continue
            score = (
                n_left * entropy(pos_left, n_left)
                + n_right * entropy(total_pos - pos_left, n_right)
            ) / n
            if score < best_score:
                best_feature, best_threshold, best_score = f, (v + v_next) / 2.0, score
    return best_feature, best_threshold, best_score


def test_kernel_matches_scalar_scan():
    rng = np.random.default_rng(5)
    for trial in range(25):
        n = int(rng.integers(4, 60))
        d = int(rng.integers(2, 9))
        X = np.round(rng.normal(size=(n, d)), 1)  # rounding ties values
        y = rng.integers(0, 2, size=n).astype(np.int64)
        if trial % 2 == 0:
            # labels mirrored along column 0, so its thresholds tie in pairs
            X[:, 0] = np.arange(n)
            y = y | y[::-1]
        X[:, -1] = X[:, 0]  # a copied column ties features
        feat_idx = rng.permutation(d).astype(np.int64)
        min_leaf = int(rng.integers(1, 4))
        got = best_split(X, y, feat_idx, min_leaf)
        want = _best_split_scalar(X, y, feat_idx, min_leaf)
        assert got[0] == want[0], trial
        assert got[1] == want[1], trial  # bit-exact thresholds
        assert got[2] == want[2], trial


def test_kernel_edge_shapes_match_scalar_scan():
    def check(X, y, feat_idx, min_leaf=1):
        feat_idx = np.asarray(feat_idx, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        got = best_split(X, y, feat_idx, min_leaf)
        assert got == _best_split_scalar(X, y, feat_idx, min_leaf)
        return got

    rng = np.random.default_rng(11)
    X = np.round(rng.normal(size=(12, 5)), 1)
    y = rng.integers(0, 2, size=12)
    y[:2] = (0, 1)

    # two rows: one threshold per feature
    assert check(X[:2], y[:2], [4, 0])[2] == 0.0
    # one row, or no sampled feature: nothing to split
    assert check(X[:1], y[:1], [4, 0]) == (-1, 0.0, math.inf)
    assert check(X, y, []) == (-1, 0.0, math.inf)
    # a single sampled feature
    assert check(X, y, [2])[0] == 2
    # every sampled column constant: no admissible split
    flat = X.copy()
    flat[:, [1, 3]] = 7.0
    assert check(flat, y, [3, 1]) == (-1, 0.0, math.inf)
    # min_leaf leaves no threshold with enough rows on both sides
    assert check(X, y, [0, 1, 2, 3, 4], min_leaf=7) == (-1, 0.0, math.inf)
    # min_leaf = n // 2 leaves one admissible cut (n even) or two (n odd)
    ramp = np.column_stack([np.arange(13.0), np.round(rng.normal(size=13), 1)])
    y13 = np.array([*y, 1])
    assert check(ramp[:12], y13[:12], [0], min_leaf=6)[:2] == (0, 5.5)
    assert check(ramp, y13, [0], min_leaf=6)[1] in (5.5, 6.5)
    check(ramp, y13, [1, 0], min_leaf=6)
    # a non-integer min_leaf admits the cuts its next integer admits
    assert check(ramp, y13, [0], min_leaf=5.5)[:2] == check(ramp, y13, [0], min_leaf=6)[:2]
    for min_leaf in (0.5, 1.5, 2.25, 6.5):
        check(X, y, [0, 1, 2, 3, 4], min_leaf=min_leaf)
    # column 4 orders the rows as column 1 does, so both score the same;
    # the feature listed first wins, although its index is higher
    twin = X.copy()
    twin[:, 4] = twin[:, 1] * 10.0
    assert check(twin, y, [4, 1])[0] == 4
    assert check(twin, y, [1, 4])[0] == 1
    # a non-contiguous row slice
    assert not X[::2].flags.c_contiguous
    check(X[::2], y[::2], [3, 0, 1])


def test_kernel_finds_obvious_split():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1], dtype=np.int64)
    f, thr, score = best_split(X, y, np.array([0], dtype=np.int64), 1)
    assert f == 0
    assert 1.0 < thr < 10.0
    assert score == 0.0


def test_entropy_edges():
    assert entropy(0, 5) == 0.0
    assert entropy(5, 5) == 0.0
    assert entropy(2, 4) == pytest.approx(1.0)


# --- models ----------------------------------------------------------------------

def test_one_r_reproduces_single_feature_split():
    rng = random.Random(0)
    X, y = [], []
    for _ in range(60):
        lab = rng.randrange(2)
        x0 = 5.0 + lab * 10 + rng.random()  # feature 0 separates perfectly
        X.append([x0, rng.random()])
        y.append(lab)
    model = train("one_r", np.array(X), np.array(y))
    assert model.feature == 0
    pred = model.predict(np.array(X))
    assert (pred == np.array(y)).all()


def test_logistic_separable_f_at_least_099():
    rng = random.Random(1)
    X, y = [], []
    for _ in range(120):
        lab = rng.randrange(2)
        base = 2.5 if lab else -2.5
        X.append([base + rng.gauss(0, 0.4), base + rng.gauss(0, 0.4)])
        y.append(lab)
    X, y = np.array(X), np.array(y)
    # exhaustive threshold check: the data is linearly separable on x0 + x1
    proj = X.sum(axis=1)
    order = np.argsort(proj)
    separable = any(
        (y[order[: i + 1]] == 0).all() and (y[order[i + 1 :]] == 1).all()
        for i in range(len(y) - 1)
    )
    assert separable
    model = train("logistic", X, y)
    m = ConfusionMatrix()
    for p_lab, a_lab in zip(model.predict(X), y):
        m.record(int(p_lab), int(a_lab))
    assert prf(m).f_measure >= 0.99


def test_naive_bayes_separates_clear_gaussians():
    rng = np.random.default_rng(4)
    X0 = rng.normal(-3, 1, size=(50, 3))
    X1 = rng.normal(3, 1, size=(50, 3))
    X = np.vstack([X0, X1])
    y = np.array([0] * 50 + [1] * 50)
    model = train("naive_bayes", X, y)
    assert (model.predict(X) == y).mean() > 0.99


def test_decision_tree_learns_separable_rule():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(200, 4))
    y = (X[:, 2] > 0.3).astype(np.int64)
    model = train("decision_tree", X, y, rng_seed=0)
    assert (model.predict(X) == y).mean() > 0.95


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_degenerate_single_class_warns_and_is_constant(algo):
    X = np.zeros((10, 2))
    y = np.ones(10, dtype=np.int64)
    with pytest.warns(UserWarning, match="single class"):
        model = train(algo, X, y)
    assert isinstance(model, ConstantModel)
    assert (model.predict(np.zeros((5, 2))) == 1).all()


def test_settings_are_fixed():
    """The learners train one configuration; a settings dict is refused, and
    cannot pass for the seed."""
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    for algo in ALGORITHMS:
        with pytest.raises(TypeError):
            train(algo, X, y, {"iterations": 200})


def test_unknown_algorithm():
    with pytest.raises(ValueError):
        train("gradient_unicorn", np.zeros((2, 2)), np.array([0, 1]))


def test_training_is_deterministic_under_seed():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(100, 6))
    y = (X[:, 0] > 0).astype(np.int64)
    Xt = rng.normal(size=(30, 6))
    for algo in ALGORITHMS:
        a = train(algo, X, y, rng_seed=7).predict(Xt)
        b = train(algo, X, y, rng_seed=7).predict(Xt)
        assert (a == b).all(), algo


# --- oracles for the array learners ----------------------------------------------

def _one_r_scalar(X, y):
    """Plain-Python scan of every threshold: the oracle for ``train_one_r``.
    Returns ``(feature, threshold, label_below, label_above)``, or the
    constant label when every feature is constant."""
    n, d = X.shape
    total_pos = int(y.sum())
    best = None  # (errors, feature, threshold, below, above)
    for f in range(d):
        order = np.argsort(X[:, f], kind="mergesort")
        v = X[order, f]
        cum_pos = np.cumsum(y[order])
        for i in range(n - 1):
            if v[i] == v[i + 1]:
                continue
            thr = (v[i] + v[i + 1]) / 2.0
            pos_below = int(cum_pos[i])
            n_below = i + 1
            # orientation A: below -> clean, above -> buggy
            err_a = pos_below + ((n - n_below) - (total_pos - pos_below))
            # orientation B: below -> buggy, above -> clean
            err_b = (n_below - pos_below) + (total_pos - pos_below)
            for err, lb, la in ((err_a, 0, 1), (err_b, 1, 0)):
                if best is None or err < best[0]:
                    best = (err, f, thr, lb, la)
    if best is None:
        return 1 if total_pos * 2 >= n else 0
    return best[1:]


def test_one_r_matches_scalar_scan():
    rng = np.random.default_rng(21)
    for trial in range(40):
        n = int(rng.integers(2, 50))
        d = int(rng.integers(1, 7))
        X = np.round(rng.normal(size=(n, d)), int(rng.integers(0, 2)))  # ties
        y = rng.integers(0, 2, size=n).astype(np.int64)
        y[:2] = (0, 1)
        if trial % 2 == 0:
            X[:, -1] = X[:, 0]  # a copied column ties features
        if trial % 5 == 0:
            X[:, 0] = 3.0  # a constant column
        model = train("one_r", X, y)
        if isinstance(model, OneRModel):
            got = (model.feature, model.threshold, model.label_below, model.label_above)
        else:  # every column constant
            got = model.label
        assert got == _one_r_scalar(X, y), trial  # bit-exact thresholds
    # both orientations make two errors: "below is clean" is scanned first
    X, y = np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([0, 1, 0, 1])
    model = train("one_r", X, y)
    assert (model.threshold, model.label_below, model.label_above) == (0.5, 0, 1)
    assert _one_r_scalar(X, y) == (0, 0.5, 0, 1)


def test_one_r_all_columns_constant_is_constant_model():
    y = np.array([1, 0, 1, 1, 0], dtype=np.int64)
    for X in (np.full((5, 3), 2.5), np.zeros((5, 0))):
        model = train("one_r", X, y)
        assert isinstance(model, ConstantModel)
        assert model.label == _one_r_scalar(X, y) == 1
    model = train("one_r", np.full((4, 2), 1.0), np.array([0, 0, 1, 0]))
    assert isinstance(model, ConstantModel) and model.label == 0


def _logistic_scalar(X, y, lr=0.1, iters=500, l2=1e-3):
    """Gradient descent with ``g.mean()``: the oracle for ``train_logistic``."""
    center = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    z = (X - center) / scale
    n, d = z.shape
    w = np.zeros(d)
    b = 0.0
    yf = y.astype(np.float64)
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(z @ w + b)))
        g = p - yf
        w -= lr * ((z.T @ g) / n + l2 * w)
        b -= lr * g.mean()
    return w, b


def test_logistic_matches_mean_gradient_loop():
    rng = np.random.default_rng(23)
    for n, d in ((7, 1), (60, 5), (143, 9)):
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10, size=d)
        y = rng.integers(0, 2, size=n).astype(np.int64)
        y[:2] = (0, 1)
        model = train("logistic", X, y)
        w, b = _logistic_scalar(X, y)
        assert model.weights.tobytes() == w.tobytes()
        assert model.bias == b


# --- labeling / undersampling ------------------------------------------------

class _Entry:
    def __init__(self, bug_count):
        self.bug_count = bug_count


def test_label_rule():
    labeled = label_entries([_Entry(0), _Entry(3)])
    assert [lab for _, lab in labeled] == [0, 1]
    assert label_entries([]) == []


def test_undersample_balances_10_50():
    rng = random.Random(2)
    instances = make_instances(10, 50, rng)
    balanced = undersample(instances, rng_seed=0)
    buggy = sum(1 for i in balanced if i.label == 1)
    assert buggy == 10
    assert len(balanced) == 20


def test_undersample_noop_when_balanced():
    rng = random.Random(2)
    instances = make_instances(7, 7, rng)
    assert undersample(instances, rng_seed=0) == instances


def test_undersample_deterministic():
    rng = random.Random(2)
    instances = make_instances(12, 40, rng)
    assert undersample(instances, 5) == undersample(instances, 5)


def test_undersample_requires_both_classes():
    rng = random.Random(2)
    with pytest.raises(FixpairError):
        undersample(make_instances(5, 0, rng), 0)


# --- prf -----------------------------------------------------------------------

def test_prf_quarter_matrix():
    res = prf(ConfusionMatrix(tp=25, fp=25, tn=25, fn=25))
    assert (res.precision, res.recall, res.f_measure) == (0.5, 0.5, 0.5)


def test_prf_known_values():
    res = prf(ConfusionMatrix(tp=6, fp=4, fn=4, tn=0))
    assert (res.precision, res.recall, res.f_measure) == (0.6, 0.6, 0.6)
    res = prf(ConfusionMatrix(tp=0, fp=0, fn=5, tn=0))
    assert res.precision == 0 and res.recall == 0 and res.f_measure == 0
    assert res.zero_division
    res = prf(ConfusionMatrix(tp=8, fp=2, fn=4, tn=0))
    assert res.precision == pytest.approx(0.8)
    assert res.recall == pytest.approx(2 / 3)
    assert res.f_measure == pytest.approx(2 * 0.8 * (2 / 3) / (0.8 + 2 / 3))


def test_prf_random_matrices_match_hand_formula():
    rng = random.Random(9)
    for _ in range(100):
        m = ConfusionMatrix(
            tp=rng.randrange(0, 40), fp=rng.randrange(0, 40),
            tn=rng.randrange(0, 40), fn=rng.randrange(0, 40),
        )
        res = prf(m)
        p = m.tp / (m.tp + m.fp) if m.tp + m.fp else 0.0
        r = m.tp / (m.tp + m.fn) if m.tp + m.fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        assert abs(res.precision - p) < 1e-12
        assert abs(res.recall - r) < 1e-12
        assert abs(res.f_measure - f) < 1e-12
        if res.precision > 0 and res.recall > 0:
            assert min(p, r) - 1e-12 <= res.f_measure <= max(p, r) + 1e-12


# --- projection -----------------------------------------------------------------

def test_projection_any_rule_fp_case():
    rows = [
        ("C.a()", "C", 0, 0),
        ("C.b()", "C", 1, 0),
    ]
    m = project_to_class(rows)
    assert (m.tp, m.fp, m.tn, m.fn) == (0, 1, 0, 0)


def test_projection_all_correct():
    rows = [("C.a()", "C", 1, 1), ("C.b()", "C", 0, 0), ("D.a()", "D", 0, 0)]
    m = project_to_class(rows)
    assert (m.tp, m.fp, m.tn, m.fn) == (1, 0, 1, 0)


def brute_force_projection(rows):
    classes = {}
    for fqn, parent, pred, actual in rows:
        classes.setdefault(parent, []).append((pred, actual))
    m = ConfusionMatrix()
    for members in classes.values():
        pred = 1 if any(p == 1 for p, _ in members) else 0
        act = 1 if any(a == 1 for _, a in members) else 0
        m.record(pred, act)
    return m


def test_projection_matches_brute_force_on_random_fixtures():
    rng = random.Random(77)
    for _ in range(100):
        rows = []
        for c in range(rng.randrange(1, 30)):
            for m_i in range(rng.randrange(1, 6)):
                rows.append(
                    (f"C{c}.m{m_i}()", f"C{c}", rng.randrange(2), rng.randrange(2))
                )
        assert project_to_class(rows) == brute_force_projection(rows)


def test_projection_requires_parent():
    with pytest.raises(FixpairError):
        project_to_class([("C.a()", None, 1, 1)])


# --- cross-validation ------------------------------------------------------------

def test_cross_validate_deterministic():
    rng = random.Random(12)
    instances = make_instances(30, 30, rng, shift=1.5)
    a = cross_validate("decision_tree", instances, k=5, repeats=2, seed=3)
    b = cross_validate("decision_tree", instances, k=5, repeats=2, seed=3)
    assert a == b


def test_matrix_cells_sum_to_instances_times_repeats():
    rng = random.Random(13)
    instances = make_instances(20, 20, rng, shift=1.0)
    res = cross_validate("one_r", instances, k=4, repeats=3, seed=1)
    assert res.matrix.total() == len(instances) * 3


def test_fold_reduction_warns():
    rng = random.Random(14)
    instances = make_instances(3, 40, rng)
    with pytest.warns(UserWarning, match="reducing k"):
        cross_validate("one_r", instances, k=10, repeats=1, seed=0)


def test_constant_classifiers_on_balanced_data(monkeypatch):
    """Summed over the two constant predictors on balanced symmetric folds the
    confusion matrix is a quarter in each cell: P = R = F = 0.5 exactly."""

    def constant_trainer(label):
        def trainer(X, y, seed):
            return ConstantModel(label=label)

        return trainer

    monkeypatch.setitem(TRAINERS, "always_buggy", constant_trainer(1))
    monkeypatch.setitem(TRAINERS, "always_clean", constant_trainer(0))
    rng = random.Random(15)
    instances = make_instances(20, 20, rng)
    res_b = cross_validate("always_buggy", instances, k=4, repeats=1, seed=2)
    res_c = cross_validate("always_clean", instances, k=4, repeats=1, seed=2)
    # each stratified fold is balanced, so the buggy-constant run is exact
    assert (res_b.precision, res_b.recall) == (0.5, 1.0)
    combined = EvalResult.from_matrices(
        "constant", "instances",
        res_b.fold_matrices + res_c.fold_matrices, repeats=1,
    )
    assert combined.precision == 0.5
    assert combined.recall == 0.5
    assert combined.f_measure == 0.5


def test_projected_cross_validation_runs():
    rng = random.Random(16)
    instances = make_instances(24, 24, rng, shift=2.0)
    res = cross_validate_projected("decision_tree", instances, k=4, seed=5)
    assert res.level == "projected"
    assert 0.0 <= res.f_measure <= 1.0


@pytest.mark.parametrize("repeats", [1, 2])
@pytest.mark.parametrize("algo", [
    "one_r", "naive_bayes", "logistic", "decision_tree", "random_tree",
    "random_forest",
])
def test_projected_folds_project_method_folds(algo, repeats):
    rng = random.Random(17)
    instances = make_instances(30, 30, rng, shift=1.0)
    method = cross_validate(algo, instances, k=5, repeats=repeats, seed=3)
    projected = cross_validate_projected(algo, instances, k=5, repeats=repeats, seed=3)
    expected, start = [], 0
    for fold in stratified_folds(instances, 5, 3) * repeats:
        stop = start + len(fold)
        expected.append(project_to_class(method.predictions[start:stop]))
        start = stop
    assert start == len(method.predictions)
    assert len(projected.fold_matrices) == 5 * repeats
    assert projected.fold_matrices == expected
    assert project_folds(method).fold_matrices == expected
    assert (projected.level, projected.repeats) == ("projected", repeats)


# --- external predictions ---------------------------------------------------------

def test_external_predictions_csv(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text(
        "fqn,parent_fqn,predicted,actual\n"
        "C.a(),C,buggy,buggy\n"
        "C.b(),C,clean,clean\n"
        "D.a(),D,buggy,clean\n"
    )
    rows = load_predictions_csv(path)
    res = evaluate_external(rows)
    assert res.matrix.tp == 1 and res.matrix.fp == 1 and res.matrix.tn == 1
    projected = evaluate_external(rows, projected=True)
    assert projected.matrix.total() == 2  # classes C and D

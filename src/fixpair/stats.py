"""Nonparametric significance machinery and the dataset-size rate metric.

Implemented from first principles (no scipy at runtime): chi-square upper
tail via the regularized incomplete gamma function, the studentized range
distribution via Gauss-Legendre quadrature, Friedman with midrank ties,
Nemenyi pairwise comparison, and the normal-approximation Wilcoxon
signed-rank test with tie correction.

Nemenyi reporting conventions: pairwise p-values use the studentized
range distribution with infinite degrees of freedom and are clipped to
[0.001, 0.9]; the critical value ``q_crit`` is looked up at
``df = number of samples``.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FixpairError

_EPS = 1e-15
_FPMIN = 1e-300


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def _gamma_series(a, x):
    ap = a
    total = 1.0 / a
    delta = total
    for _ in range(10_000):
        ap += 1.0
        delta *= x / ap
        total += delta
        if abs(delta) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cf(a, x):
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def gammainc_upper(a, x):
    """Regularized upper incomplete gamma Q(a, x).

    Series below the x = a + 1 switch point, continued fraction above.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cf(a, x)


def chi2_sf(x, df):
    """Upper tail of the chi-square distribution."""
    if x <= 0:
        return 1.0
    return gammainc_upper(df / 2.0, x / 2.0)


def normal_sf(z):
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _norm_cdf(z):
    """Standard normal CDF of every element of ``z``, one ``math.erfc`` each."""
    w = z / -1.4142135623730951
    out = np.fromiter(map(math.erfc, w.flat), np.float64, w.size).reshape(w.shape)
    out *= 0.5
    return out


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _panels(lo, hi, count):
    edges = np.linspace(lo, hi, count + 1)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = (b - a) / 2.0
        xs.append(half * _GL_NODES + (a + b) / 2.0)
        ws.append(half * _GL_WEIGHTS)
    return np.concatenate(xs), np.concatenate(ws)


_Z_NODES, _Z_WEIGHTS = _panels(-9.0, 9.0, 4)
_PHI_Z = np.exp(-0.5 * _Z_NODES**2) / math.sqrt(2.0 * math.pi)
_CDF_Z = _norm_cdf(_Z_NODES)


def _srange_cdf_rows(qs, k):
    """P(Q <= q) for the studentized range with infinite df, for every
    range ``q`` in the array ``qs`` (0 for q = 0)."""
    inner = _CDF_Z - _norm_cdf(_Z_NODES - qs[:, None])
    return k * np.sum(_Z_WEIGHTS * (_PHI_Z * np.power(inner, k - 1)), axis=1)


def _srange_cdf(q, k, df):
    """P(Q <= q): finite df mixes the infinite-df cdf over chi_df/sqrt(df)."""
    if q <= 0:
        return 0.0
    if df is None or df == math.inf or df > 1e6:
        return float(_srange_cdf_rows(np.array([q]), k)[0])
    sd = 1.0 / math.sqrt(2.0 * df)
    lo = max(1e-9, 1.0 - 12.0 * sd)
    hi = 1.0 + 12.0 * sd if df >= 4 else 1.0 + 12.0 / math.sqrt(df)
    u, wu = _panels(lo, hi, 4)
    log_norm = (
        (1.0 - df / 2.0) * math.log(2.0)
        + (df / 2.0) * math.log(df)
        - math.lgamma(df / 2.0)
    )
    log_pdf = log_norm + (df - 1.0) * np.log(u) - df * u**2 / 2.0
    pdf = np.exp(log_pdf)
    cdf_at = _srange_cdf_rows(q * u, k)
    return float(np.sum(wu * pdf * np.clip(cdf_at, 0.0, 1.0)))


def studentized_range_sf(q, k, df=None):
    """Upper tail P(Q > q) of the studentized range distribution."""
    return min(1.0, max(0.0, 1.0 - _srange_cdf(q, k, df)))


def _bracket(f, a, b, width):
    """Narrow the root bracket [a, b] of a decreasing ``f`` until it is
    narrower than ``width``, by Chandrupatla's method (*Adv. Eng. Softw.* 28,
    1997).

    Returns ``(low, high)``: ``f`` is taken to be positive at and below
    ``low`` and not positive at and above ``high``.  Both are points where
    ``f`` was evaluated; they are one end of [a, b] when ``f`` does not
    change sign over it.
    """
    fa, fb = f(a), f(b)
    if fa <= 0:
        return a, a
    if fb > 0:
        return b, b
    # x1 is the newest point, x2 the other end of the bracket, x3 the end
    # that x1 replaced
    x1, f1, x2, f2 = a, fa, b, fb
    t = 0.5
    while True:
        xt = x1 + t * (x2 - x1)
        ft = f(xt)
        if (ft > 0) == (f1 > 0):
            x3, f3 = x1, f1
        else:
            x3, f3 = x2, f2
            x2, f2 = x1, f1
        x1, f1 = xt, ft
        if abs(x2 - x1) < width:
            return (x1, x2) if f1 > 0 else (x2, x1)
        # inverse quadratic interpolation where it is safe, else bisection;
        # either way the next point stays width / 2 inside the bracket
        xi = (x1 - x2) / (x3 - x2)
        phi = (f1 - f2) / (f3 - f2)
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = (f1 / (f2 - f1) * f3 / (f2 - f3)
                 + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2))
        else:
            t = 0.5
        tl = width / 2.0 / abs(x2 - x1)
        t = min(1.0 - tl, max(tl, t))


@lru_cache(maxsize=256)
def studentized_range_isf(alpha, k, df=None):
    """Critical value q with P(Q > q) = alpha, by 42 bisection steps on
    [1e-6, 60].

    The steps are replayed against a bracket of the root that
    ``_bracket`` narrowed to about the last step's width: a midpoint at or
    below the bracket's low end sets ``lo``, one at or above its high end
    sets ``hi``, and only a midpoint inside the bracket costs a CDF
    evaluation, which narrows the bracket.  That needs the computed tail to
    fall across the bracket, which the pinned critical values check.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")

    def excess(q):
        return studentized_range_sf(q, k, df) - alpha

    lo, hi = 1e-6, 60.0
    low, high = _bracket(excess, lo, hi, 1.4e-11)  # about (hi - lo) / 2**42
    for _ in range(42):
        mid = (lo + hi) / 2.0
        if mid <= low:
            lo = mid
        elif mid >= high:
            hi = mid
        elif excess(mid) > 0:
            lo = low = mid
        else:
            hi = high = mid
    return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# rank helpers
# ---------------------------------------------------------------------------

def _midranks(row):
    """Midranks of ``row`` and its tie term: ``t**3 - t`` summed over the
    runs of ``t`` equal values."""
    order = sorted(range(len(row)), key=lambda i: row[i])
    ranks = [0.0] * len(row)
    tie_term = 0
    i = 0
    while i < len(row):
        j = i
        while j + 1 < len(row) and row[order[j + 1]] == row[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        tie_term += (j - i + 1) ** 3 - (j - i + 1)
        i = j + 1
    return ranks, tie_term


# ---------------------------------------------------------------------------
# paired-sample matrix and tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairedSampleMatrix:
    """Rows are paired samples (e.g. algorithm x project cells), columns are
    the compared treatments."""

    values: tuple  # tuple of row tuples
    col_labels: tuple = ()

    @classmethod
    def from_rows(cls, rows, col_labels=None):
        data = tuple(tuple(float(v) for v in row) for row in rows)
        if len(data) < 2:
            raise FixpairError("paired-sample matrix needs at least 2 rows")
        width = len(data[0]) if data else 0
        if width < 2:
            raise FixpairError("paired-sample matrix needs at least 2 columns")
        if any(len(r) != width for r in data):
            raise FixpairError("paired-sample matrix must be rectangular")
        labels = tuple(col_labels) if col_labels else tuple(
            f"t{i}" for i in range(width)
        )
        if len(labels) != width:
            raise FixpairError("column label count mismatch")
        return cls(values=data, col_labels=labels)

    @property
    def n_rows(self):
        return len(self.values)

    @property
    def n_cols(self):
        return len(self.values[0])


def _as_matrix(m):
    if isinstance(m, PairedSampleMatrix):
        return m
    return PairedSampleMatrix.from_rows(m)


@dataclass(frozen=True)
class FriedmanResult:
    statistic: float
    p_value: float
    mean_ranks: tuple
    degenerate: bool = False

    def __iter__(self):
        return iter((self.statistic, self.p_value))


def friedman(m) -> FriedmanResult:
    """Friedman chi-square test with midrank ties (tie-corrected statistic)."""
    m = _as_matrix(m)
    n, k = m.n_rows, m.n_cols
    rank_sums = [0.0] * k
    tie_term = 0.0
    for row in m.values:
        ranks, ties = _midranks(row)
        for j, r in enumerate(ranks):
            rank_sums[j] += r
        tie_term += ties
    mean_ranks = tuple(s / n for s in rank_sums)
    correction = 1.0 - tie_term / (n * k * (k * k - 1))
    if correction <= 0:
        return FriedmanResult(0.0, 1.0, mean_ranks, degenerate=True)
    ssbn = sum(s * s for s in rank_sums)
    chisq = (12.0 / (n * k * (k + 1))) * ssbn - 3.0 * n * (k + 1)
    statistic = chisq / correction
    return FriedmanResult(statistic, chi2_sf(statistic, k - 1), mean_ranks)


P_CAP_HIGH = 0.9
P_CAP_LOW = 0.001


@dataclass(frozen=True)
class NemenyiResult:
    col_labels: tuple
    mean_ranks: tuple
    q_stats: tuple  # |diff| / se
    p_values: tuple  # clipped to [P_CAP_LOW, P_CAP_HIGH]
    q_crit: float
    alpha: float
    n_samples: int

    def significant(self, i, j):
        return self.q_stats[i][j] > self.q_crit


def nemenyi(m, alpha=0.05) -> NemenyiResult:
    """Pairwise mean-rank comparison after a rejected Friedman null.

    The pairwise statistic is ``|R_i - R_j| / sqrt(k(k+1)/(6N))`` compared
    against the studentized range critical value.
    """
    m = _as_matrix(m)
    n, k = m.n_rows, m.n_cols
    mean_ranks = friedman(m).mean_ranks
    se = math.sqrt(k * (k + 1) / (6.0 * n))
    q = np.abs(np.subtract.outer(mean_ranks, mean_ranks)) / se
    # the infinite-df tail of every pair at once; q = 0 has cdf 0
    p = np.clip(1.0 - _srange_cdf_rows(q.ravel(), k), P_CAP_LOW, P_CAP_HIGH)
    q_crit = studentized_range_isf(alpha, k, df=n)
    return NemenyiResult(
        col_labels=m.col_labels,
        mean_ranks=mean_ranks,
        q_stats=tuple(map(tuple, q.tolist())),
        p_values=tuple(map(tuple, p.reshape(k, k).tolist())),
        q_crit=q_crit,
        alpha=alpha,
        n_samples=n,
    )


@dataclass(frozen=True)
class WilcoxonResult:
    z: float
    p_value: float
    n_nonzero: int
    degenerate: bool = False

    def __iter__(self):
        return iter((self.z, self.p_value))


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Normal-approximation Wilcoxon signed-rank test on paired samples.

    Zero differences are discarded; tied absolute differences get midranks
    and the rank variance is tie-corrected.  Two-tailed p.
    """
    if len(a) != len(b):
        raise FixpairError("paired samples must have equal length")
    d = [x - y for x, y in zip(a, b)]
    d = [v for v in d if v != 0]
    n = len(d)
    if n == 0:
        return WilcoxonResult(0.0, 1.0, 0, degenerate=True)
    if n < 5:
        raise FixpairError(
            f"need at least 5 nonzero differences, found {n}"
        )
    abs_ranks, tie_term = _midranks([abs(v) for v in d])
    w_plus = sum(r for r, v in zip(abs_ranks, d) if v > 0)
    mu = n * (n + 1) / 4.0
    sigma_sq = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
    if sigma_sq <= 0:
        return WilcoxonResult(0.0, 1.0, n, degenerate=True)
    z = (w_plus - mu) / math.sqrt(sigma_sq)
    p = 2.0 * normal_sf(abs(z))
    return WilcoxonResult(z, min(1.0, p), n)


@dataclass(frozen=True)
class EffectSize:
    r: float
    magnitude: str

    def __float__(self):
        return self.r


def effect_size_r(z, n) -> EffectSize:
    """Pearson r effect size of a z-statistic: r = z / sqrt(N)."""
    if n <= 0:
        raise ValueError("n must be positive")
    r = z / math.sqrt(n)
    size = abs(r)
    if size >= 0.5:
        magnitude = "large"
    elif size >= 0.3:
        magnitude = "medium"
    elif size >= 0.1:
        magnitude = "small"
    else:
        magnitude = "negligible"
    return EffectSize(r=r, magnitude=magnitude)


def rate(traditional_count, before_after_count) -> float:
    """Dataset size ratio: traditional entry count over before/after count."""
    if before_after_count <= 0:
        raise ValueError("before_after_count must be positive")
    if traditional_count < 0:
        raise ValueError("traditional_count must be nonnegative")
    return traditional_count / before_after_count


# ---------------------------------------------------------------------------
# report shaping
# ---------------------------------------------------------------------------

def format_significance_table(result: NemenyiResult) -> str:
    """Lower-triangle text table of ``p (q)`` cells, one row per treatment."""
    labels = result.col_labels
    k = len(labels)
    width = max(len(l) for l in labels) + 2
    cell_w = 18
    lines = [
        "q_crit(alpha=%.2f, k=%d, N=%d) = %.3f"
        % (result.alpha, k, result.n_samples, result.q_crit)
    ]
    header = " " * width + "".join(l.ljust(cell_w) for l in labels[:-1])
    lines.append(header)
    for i in range(1, k):
        cells = []
        for j in range(i):
            p, q = result.p_values[i][j], result.q_stats[i][j]
            mark = "*" if result.significant(i, j) else " "
            cells.append(f"{p:.3f} ({q:.4f}){mark}".ljust(cell_w))
        lines.append(labels[i].ljust(width) + "".join(cells))
    return "\n".join(lines)

import json
import math
import os

import numpy as np
import pytest
import scipy.stats as sstats

from fixpair import stats
from fixpair.errors import FixpairError
from fixpair.stats import (
    PairedSampleMatrix,
    chi2_sf,
    effect_size_r,
    format_significance_table,
    friedman,
    gammainc_upper,
    nemenyi,
    normal_sf,
    rate,
    studentized_range_isf,
    studentized_range_sf,
    wilcoxon_signed_rank,
)
from fixpair.stats import _norm_cdf

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def test_chi2_sf_matches_scipy():
    for x in (0.1, 0.7, 2.0, 6.0, 25.0, 120.0):
        for df in (1, 2, 4, 10, 30):
            assert chi2_sf(x, df) == pytest.approx(
                sstats.chi2.sf(x, df), abs=1e-12
            )


def test_gamma_switch_regions():
    # series (x < a+1) and continued fraction (x >= a+1) both in play
    assert gammainc_upper(5.0, 2.0) == pytest.approx(
        sstats.gamma.sf(2.0, 5.0), abs=1e-13
    )
    assert gammainc_upper(5.0, 9.0) == pytest.approx(
        sstats.gamma.sf(9.0, 5.0), abs=1e-13
    )


def test_normal_sf():
    for z in (-3.0, -1.0, 0.0, 1.96, 4.2):
        assert normal_sf(z) == pytest.approx(sstats.norm.sf(z), abs=1e-14)


def test_studentized_range_sf_matches_scipy():
    for q in (0.4, 1.7, 3.0, 4.5):
        for k in (3, 5, 8):
            assert studentized_range_sf(q, k, None) == pytest.approx(
                sstats.studentized_range.sf(q, k, np.inf), abs=1e-7
            )
            assert studentized_range_sf(q, k, 40) == pytest.approx(
                sstats.studentized_range.sf(q, k, 40), abs=1e-6
            )


def test_q_crit_reference_values():
    assert round(studentized_range_isf(0.05, 5, df=176), 1) == 3.9
    assert round(studentized_range_isf(0.05, 11, df=16), 3) == 5.256


def test_norm_cdf_is_the_scalar_erfc_formula():
    def oracle(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    xs = np.linspace(-12.0, 12.0, 100_001)
    assert _norm_cdf(xs).tolist() == [oracle(x) for x in xs.tolist()]
    grid = np.random.default_rng(9).normal(0.0, 4.0, (256, 256))
    got = _norm_cdf(grid)
    assert got.shape == grid.shape
    assert got.ravel().tolist() == [oracle(x) for x in grid.ravel().tolist()]
    # pinned to the last bit
    assert _norm_cdf(
        np.array([-38.5, -12.0, -8.25, -1.96, -0.5, 0.0, 1e-300, 0.3, 1.96, 6.0, 8.5])
    ).tolist() == [
        0.0, 1.776482112077702e-33, 7.919726314642473e-17, 0.024997895148220435,
        0.3085375387259869, 0.5, 0.5, 0.6179114221889526, 0.9750021048517795,
        0.9999999990134123, 1.0,
    ]


# studentized_range_isf(0.05, k, df) for k = 2..11, pinned to the last bit
Q_CRIT_05 = {
    2: (
        6.084869844587706, 8.330782645640227, 9.798045034624977, 10.881113542118896,
        11.734296919317675, 12.434917448696861, 13.027253951861155, 13.538976033614546,
        13.988491140059821, 14.38863984020784,
    ),
    3: (
        4.500658726459459, 5.909598453399308, 6.8245264510763946, 7.501672090360943,
        8.037084501632322, 8.478309381673608, 8.852497468970263, 9.176625754326501,
        9.46201035029478, 9.716564197739189,
    ),
    4: (
        3.926486322957791, 5.040241254979033, 5.7570603833936715, 6.287026999182812,
        6.706438087633039, 7.0525536555803505, 7.346519052705624, 7.601519502636462,
        7.826334605924826, 8.027102956458226,
    ),
    5: (
        3.635351695152731, 4.601726054367305, 5.218324875206536, 5.673124435459647,
        6.032902708730063, 6.329901069773294, 6.5823008782465, 6.8013978798782855,
        6.994697767881872, 7.167442302369976,
    ),
    6: (
        3.4604559258246983, 4.339195476516165, 4.895599211473691, 5.304890705680004,
        5.628353261689407, 5.895309338981367, 6.1222022007255905, 6.319211293042255,
        6.493084795790406, 6.648528215049351,
    ),
    7: (
        3.344083686523084, 4.164941474319479, 4.681275671504283, 5.06007421358145,
        5.359078565573318, 5.605721309814921, 5.815313926730042, 5.997304870045234,
        6.157943711258332, 6.301581360641142,
    ),
    8: (
        3.2611823228965893, 4.041036471982233, 4.528809636588292, 4.885754265248353,
        5.167152344151942, 5.399120852338646, 5.596180295950084, 5.767266110245034,
        5.9182765240444315, 6.053311650099234,
    ),
    9: (
        3.199173339843286, 3.948492203455552, 4.4148900278154795, 4.755404182106249,
        5.023514959554866, 5.24437436041805, 5.431921150041612, 5.594712272618342,
        5.73838593025549, 5.866856064060695,
    ),
    10: (
        3.1510641833258726, 3.8767767500089203, 4.326582115726239, 4.654292997855302,
        4.9120157493466685, 5.124166095295374, 5.3042381104095995, 5.460498740289445,
        5.598386466470062, 5.721671890458673,
    ),
    11: (
        3.1126630639791912, 3.819588272594455, 4.256143355755279, 4.573596254328647,
        4.8229723405458955, 5.028108003660318, 5.202146970549432, 5.353127312880176,
        5.486329585020114, 5.605410823499282,
    ),
    12: (
        3.0813066535880385, 3.7729289657267966, 4.198660231298055, 4.507709919834712,
        4.750231446705795, 4.949593972184516, 5.1186584275489935, 5.265277897189577,
        5.394605097892018, 5.510204993778251,
    ),
    13: (
        3.0552226536943614, 3.7341419975475842, 4.150866296871493, 4.452906124582819,
        4.689697096027464, 4.884223876219764, 5.049114542696898, 5.192069709131339,
        5.318136599374393, 5.430804101327892,
    ),
    14: (
        3.0331864224539604, 3.7013935945473255, 4.110506357659068, 4.406609606355385,
        4.638537996304002, 4.828954421862017, 4.990292020816993, 5.130123664661035,
        5.253408109369431, 5.363570377504109,
    ),
    15: (
        3.0143248548447987, 3.673377658896049, 4.0759737366135, 4.366984693190993,
        4.594734833058045, 4.781613924269678, 4.939889597212376, 5.077026204855116,
        5.197907291009402, 5.305903535565843,
    ),
    16: (
        2.9979988250990894, 3.6491389347638377, 4.046093060632032, 4.332687844859539,
        4.556808887968817, 4.74061129156464, 4.896220466025584, 5.031007473044115,
        5.149791158017456, 5.255895421345343,
    ),
    17: (
        2.9837298042745877, 3.6279627477151957, 4.019984785975016, 4.302713236653373,
        4.523652606969639, 4.704754249608969, 4.858020085684972, 4.990740144433278,
        5.1076770462804895, 5.212114014635649,
    ),
    18: (
        2.9711524428032137, 3.6093038287098835, 3.996977724444835, 4.276293007510727,
        4.494420094450128, 4.673131805719185, 4.824321856033304, 4.955209252010695,
        5.070507314190868, 5.173463581463167,
    ),
    19: (
        2.9599830041132753, 3.5927389736220983, 3.976550849623054, 4.252830868263295,
        4.468454195597456, 4.645035949672964, 4.7943742665859705, 4.923625406047682,
        5.037459118527048, 5.139091392606403,
    ),
    20: (
        2.94999779773649, 3.577934725219891, 3.958293560947503, 4.23185674899246,
        4.4452366636772425, 4.619908121288455, 4.767584230228056, 4.895365421235168,
        5.00788266759057, 5.108323868351471,
    ),
    21: (
        2.941018103710501, 3.564624799065954, 3.941877922764859, 4.212995101534208,
        4.424353316910139, 4.597301765691279, 4.743477432270085, 4.869930758610932,
        4.981257989276514, 5.080621858747476,
    ),
    22: (
        2.9328994192685007, 3.552593992160083, 3.9270388720709857, 4.195942292228835,
        4.405469177834737, 4.576855606394364, 4.721670019097132, 4.846917843350127,
        4.9571640446612495, 5.055548686809956,
    ),
    23: (
        2.925523648567247, 3.5416665029128316, 3.913559849522609, 4.180450183704652,
        4.388310411929984, 4.558274220960707, 4.701848015562852, 4.82599647911395,
        4.935256260914336, 5.0327468969254205,
    ),
    24: (
        2.9187933372228976, 3.5316973138425114, 3.901262196698334, 4.1663140161796335,
        4.372650991126164, 4.541313693474594, 4.683752117156001, 4.806893894535174,
        4.915249921747305, 5.011921061459105,
    ),
    25: (
        2.9126273535300102, 3.5225657398836523, 3.889997216755721, 4.153363329958625,
        4.358302701141296, 4.525770860630942, 4.667166287761045, 4.789382778610866,
        4.896907707927641, 4.992824880482349,
    ),
    26: (
        2.906957609983314, 3.5141705331864523, 3.8796401495019266, 4.141455075165302,
        4.345107553785244, 4.511475143649921, 4.651909096734933, 4.773272188124798,
        4.880030226205822, 4.9752513732816634,
    ),
    27: (
        2.9017265440956574, 3.506426123347598, 3.870085543516395, 4.1304683174735235,
        4.332931955398022, 4.498282268698176, 4.637827056999473, 4.758400553601435,
        4.8644487224075235, 4.959025330457775,
    ),
    28: (
        2.8968851611881865, 3.4992596975639865, 3.861243661550458, 4.120300124931278,
        4.321662174755918, 4.486069385371641, 4.624789445014342, 4.7446302395409266,
        4.850019412844267, 4.943997440972847,
    ),
    29: (
        2.892391498076459, 3.4926089094837245, 3.8530376596977316, 4.110862339591035,
        4.311200785046417, 4.4747312332163585, 4.612684231788819, 4.7318432706444575,
        4.836619029490215, 4.930039675828278,
    ),
    30: (
        2.8882094057572862, 3.486420064709657, 3.8454013530385236, 4.1020790195013905,
        4.301463843939006, 4.4641771027565795, 4.601414856517591, 4.719937942082074,
        4.824141286186041, 4.917041625565984,
    ),
    176: (
        2.790999096899709, 3.3427933830005783, 3.668109643877255, 3.8979464005237974,
        4.074882050400575, 4.218248183764379, 4.338461178100262, 4.441769940724816,
        4.532213311231731, 4.612549465822013,
    ),
    None: (
        2.7718076487055727, 3.31449315539468, 3.633159574906851, 3.857655510375352,
        4.0300920531871505, 4.169554155010934, 4.286309409355177, 4.386509115498042,
        4.4741242217196024, 4.55186358406114,
    ),
}


def test_q_crit_pinned_to_the_last_bit():
    got = {
        df: tuple(studentized_range_isf(0.05, k, df) for k in range(2, 12))
        for df in Q_CRIT_05
    }
    assert got == Q_CRIT_05


def _isf_by_bisection(alpha, k, df):
    """Plain 42-step bisection on [1e-6, 60]: the oracle for
    ``studentized_range_isf``."""
    lo, hi = 1e-6, 60.0
    for _ in range(42):
        mid = (lo + hi) / 2.0
        if studentized_range_sf(mid, k, df) > alpha:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_q_crit_replays_the_bisection(monkeypatch):
    for alpha in (0.01, 0.10):
        for k in (2, 5, 11):
            for df in (3, 20, None):
                want = _isf_by_bisection(alpha, k, df)
                assert studentized_range_isf(alpha, k, df) == want, (alpha, k, df)
    # roots above 60 and below 1e-6: the bisection runs into an end
    for alpha, k, df in ((0.01, 11, 1), (0.9999999, 2, 5)):
        assert studentized_range_isf(alpha, k, df) == _isf_by_bisection(alpha, k, df)
    # a cold call evaluates the tail far fewer times than the bisection's 42
    calls = []

    def counted(q, k, df=None):
        calls.append(q)
        return studentized_range_sf(q, k, df)

    monkeypatch.setattr(stats, "studentized_range_sf", counted)
    assert studentized_range_isf.__wrapped__(0.10, 5, 20) == _isf_by_bisection(
        0.10, 5, 20
    )
    assert 0 < len(calls) < 30


# --- friedman ----------------------------------------------------------------

def test_friedman_all_tied_rows():
    res = friedman([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert res.degenerate


def test_friedman_strict_dominance_3x3():
    res = friedman([[3, 2, 1], [6, 5, 4], [9, 8, 7]])
    assert res.statistic == pytest.approx(6.0)
    assert res.p_value == pytest.approx(math.exp(-3.0), rel=1e-9)


def test_friedman_matches_scipy_with_ties():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(3, 12))
        k = int(rng.integers(3, 6))
        m = np.round(rng.random((n, k)), 1)
        mine = friedman(m.tolist())
        ref_stat, ref_p = sstats.friedmanchisquare(*m.T)
        assert mine.statistic == pytest.approx(ref_stat, abs=1e-9)
        assert mine.p_value == pytest.approx(ref_p, abs=1e-9)


def test_friedman_paper_scale_replay():
    rng = np.random.default_rng(176)
    m = rng.random((176, 5)) + np.linspace(0, 0.15, 5)  # slight column effect
    mine = friedman(m.tolist())
    ref_stat, ref_p = sstats.friedmanchisquare(*m.T)
    assert mine.statistic == pytest.approx(ref_stat, abs=1e-9)
    assert mine.p_value == pytest.approx(ref_p, abs=1e-9)


def test_friedman_invariant_under_row_monotone_transforms():
    rng = np.random.default_rng(12)
    m = rng.random((8, 4))
    base = friedman(m.tolist()).statistic
    transforms = [lambda v: v**3, lambda v: 10 * v + 2, math.exp]
    warped = [
        [transforms[i % len(transforms)](v) for v in row]
        for i, row in enumerate(m.tolist())
    ]
    assert friedman(warped).statistic == pytest.approx(base, rel=1e-12)


def test_friedman_needs_two_columns():
    with pytest.raises(FixpairError):
        friedman([[1.0], [2.0]])


# --- nemenyi -------------------------------------------------------------------

def test_nemenyi_identical_columns_capped():
    res = nemenyi([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    assert res.q_stats[0][1] == 0.0
    assert res.p_values[0][1] == 0.9  # reporting cap


def test_nemenyi_antisymmetry_and_diagonal():
    rng = np.random.default_rng(13)
    m = rng.random((10, 4))
    res = nemenyi(m.tolist())
    k = 4
    for i in range(k):
        assert res.q_stats[i][i] == 0.0
        for j in range(k):
            assert res.q_stats[i][j] == pytest.approx(res.q_stats[j][i])
            assert 0.0 < res.p_values[i][j] <= 0.9
            assert res.q_stats[i][j] >= 0.0


def test_nemenyi_two_treatments_sign_consistency():
    m = [[1.0, 2.0], [1.5, 2.5], [0.5, 2.0], [1.0, 3.0], [2.0, 2.5]]
    res = nemenyi(m)
    # column 1 dominates: its mean rank is higher
    assert res.mean_ranks[1] > res.mean_ranks[0]
    assert res.q_stats[1][0] > 0
    ranks = [2.0, 1.0]  # brute-force expectation per row: col1 always ranked 2
    assert res.mean_ranks == pytest.approx((1.0, 2.0))


def test_nemenyi_p_matches_clipped_scipy():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(5, 20))
        k = int(rng.integers(3, 6))
        m = rng.random((n, k)) + np.linspace(0, 0.8, k)
        res = nemenyi(m.tolist())
        se = math.sqrt(k * (k + 1) / (6.0 * n))
        mr = res.mean_ranks
        for i in range(k):
            for j in range(i):
                q = abs(mr[i] - mr[j]) / se
                ref = sstats.studentized_range.sf(q, k, np.inf)
                ref = min(0.9, max(0.001, float(ref)))
                assert res.p_values[i][j] == pytest.approx(ref, abs=1e-6)


def _criterion_8_matrices():
    """The 50 matrices of acceptance criterion 8, drawn in its order."""
    rng = np.random.default_rng(808)
    for trial in range(50):
        n = int(rng.integers(4, 15))
        k = int(rng.integers(3, 6))
        m = rng.random((n, k))
        yield np.round(m, 1) if trial % 3 == 0 else m
        size = int(rng.integers(8, 30))
        rng.random(size)  # the criterion's Wilcoxon samples
        rng.normal(0, 0.35, size)


def test_nemenyi_matrices_pinned_to_the_last_bit():
    with open(os.path.join(FIXTURES, "nemenyi-criterion-8.json")) as fh:
        pinned = json.load(fh)
    assert len(pinned) == 50
    for m, want in zip(_criterion_8_matrices(), pinned):
        res = nemenyi(m.tolist())
        assert [list(r) for r in res.q_stats] == want["q_stats"]
        assert [list(r) for r in res.p_values] == want["p_values"]
        assert res.q_crit == want["q_crit"]


def test_nemenyi_table_format():
    m = [[0.1, 0.5, 0.9], [0.2, 0.6, 0.8], [0.15, 0.55, 0.95], [0.1, 0.4, 0.7]]
    res = nemenyi(PairedSampleMatrix.from_rows(m, col_labels=["a", "b", "c"]))
    table = format_significance_table(res)
    assert "q_crit" in table
    assert "b" in table and "c" in table


# --- wilcoxon --------------------------------------------------------------------

def test_wilcoxon_identical_samples_degenerate():
    res = wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert res.z == 0.0
    assert res.p_value == 1.0
    assert res.degenerate


def test_wilcoxon_antisymmetric_z():
    a = [0.6, 0.7, 0.55, 0.8, 0.62, 0.71, 0.66]
    b = [0.5, 0.72, 0.5, 0.6, 0.6, 0.65, 0.6]
    r1 = wilcoxon_signed_rank(a, b)
    r2 = wilcoxon_signed_rank(b, a)
    assert r1.z == pytest.approx(-r2.z)
    assert r1.p_value == pytest.approx(r2.p_value)


def test_wilcoxon_matches_scipy_normal_approx():
    rng = np.random.default_rng(15)
    for _ in range(25):
        n = int(rng.integers(8, 40))
        a = rng.random(n)
        b = a + rng.normal(0, 0.4, n)
        res = wilcoxon_signed_rank(a.tolist(), b.tolist())
        ref = sstats.wilcoxon(
            a, b, zero_method="wilcox", correction=False, method="approx"
        )
        assert res.p_value == pytest.approx(ref.pvalue, abs=1e-9)


def test_wilcoxon_handles_ties_in_abs_differences():
    a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    b = [0.0, 3.0, 2.0, 5.0, 4.0, 7.0]  # |d| = 1 six times
    res = wilcoxon_signed_rank(a, b)
    ref = sstats.wilcoxon(a, b, zero_method="wilcox", correction=False, method="approx")
    assert res.p_value == pytest.approx(ref.pvalue, abs=1e-9)


def test_wilcoxon_small_sample_rejected():
    with pytest.raises(FixpairError):
        wilcoxon_signed_rank([1, 2, 3], [3, 2, 2])


def test_wilcoxon_length_mismatch():
    with pytest.raises(FixpairError):
        wilcoxon_signed_rank([1, 2], [1])


# --- effect size and rate ----------------------------------------------------------

def test_effect_size_reference_value():
    es = effect_size_r(10.9, 353)
    assert round(es.r, 2) == 0.58
    assert es.magnitude == "large"


def test_effect_size_examples():
    es = effect_size_r(1.96, 4)
    assert es.r == pytest.approx(0.98)
    assert es.magnitude == "large"
    es = effect_size_r(0.0, 100)
    assert es.r == 0.0
    assert es.magnitude == "negligible"
    assert effect_size_r(0.6, 4).magnitude == "medium"
    assert effect_size_r(0.3, 4).magnitude == "small"


def test_rate_reference_totals():
    assert round(rate(167708, 109244), 2) == 1.54
    assert round(rate(27216, 66092), 2) == 0.41
    assert round(rate(16235, 49868), 2) == 0.33


def test_rate_edge_cases():
    assert rate(5, 5) == 1.0
    with pytest.raises(ValueError):
        rate(5, 0)


# --- matrix type ----------------------------------------------------------------

def test_paired_sample_matrix_validation():
    with pytest.raises(FixpairError):
        PairedSampleMatrix.from_rows([[1.0, 2.0]])
    with pytest.raises(FixpairError):
        PairedSampleMatrix.from_rows([[1.0], [2.0]])
    with pytest.raises(FixpairError):
        PairedSampleMatrix.from_rows([[1.0, 2.0], [1.0]])
    m = PairedSampleMatrix.from_rows([[1, 2], [3, 4]], col_labels=["x", "y"])
    assert m.n_rows == 2 and m.n_cols == 2

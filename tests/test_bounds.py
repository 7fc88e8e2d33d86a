import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from slack_descent import descend, slack_and_gradient

from ewb import (
    ETF_EQUALITY,
    BoundReport,
    STRICT,
    UTF_EQUALITY,
    Frame,
    bounds,
    bruteforce_moment,
    bruteforce_table,
    check_theorem,
    erasure_welch_bound,
    harmonic_etf,
    is_etf,
    is_utf,
    lemma1_check,
    nearest_utf,
    random_frame,
    repeated_onb,
    simplex_etf,
    subset_rms,
    subset_rms_bound,
    welch_floor,
)


def test_bound_examples():
    assert_allclose(erasure_welch_bound(2, 3, 0.5, 4), 1.1875, atol=0)
    # p = 1: the flat tight-frame value
    for m, n in [(2, 3), (3, 7), (5, 5)]:
        for d in (2, 3, 4):
            assert_allclose(erasure_welch_bound(m, n, 1.0, d), (n / m) ** (d - 1), rtol=1e-14)
    # m = n: the bound collapses to p at every order
    for d in (2, 3, 4):
        assert_allclose(erasure_welch_bound(4, 4, 0.37, d), 0.37, atol=1e-15)


def test_bound_validation():
    with pytest.raises(ValueError):
        erasure_welch_bound(3, 2, 0.5, 2)
    with pytest.raises(ValueError):
        erasure_welch_bound(2, 3, 1.5, 2)
    for d in (0, 1, 5):
        with pytest.raises(ValueError):
            erasure_welch_bound(2, 3, 0.5, d)


@pytest.mark.parametrize("fn", [lambda m, n: erasure_welch_bound(m, n, 0.5, 2),
                                lambda m, n: subset_rms_bound(2.0, m, n)])
def test_bounds_take_only_integral_frame_sizes(fn):
    for m, n in [(2.5, 4), (2, 4.5), (float("nan"), 4), (2, float("inf"))]:
        with pytest.raises(ValueError, match="must be an integer in"):
            fn(m, n)
    assert repr(fn(2.0, 4.0)) == repr(fn(2, 4))
    with pytest.raises(ValueError, match="need n >= m >= 1"):
        fn(4, 3)


def test_bound_single_vector_frames():
    # n = 1 has no finite-size correction term
    assert_allclose(erasure_welch_bound(1, 1, 0.4, 4), 0.4, atol=1e-15)


def test_check_theorem_etf_equality(mercedes_benz):
    for p in (0.2, 0.5, 0.9):
        for d in (2, 3, 4):
            rep = check_theorem(mercedes_benz, p, d)
            assert rep.equality_class == ETF_EQUALITY
            assert abs(rep.slack) <= 1e-12
            assert rep.m == 2 and rep.n == 3 and rep.d == d


def test_check_theorem_utf_equality_low_orders():
    f = repeated_onb(2, 2)
    for d in (2, 3):
        rep = check_theorem(f, 0.5, d)
        assert rep.equality_class == UTF_EQUALITY
        assert abs(rep.slack) <= 1e-12


def test_check_theorem_utf_strict_at_order_four():
    # a tight frame that is not equiangular misses equality exactly at d = 4
    f = repeated_onb(2, 2)
    for p in (0.3, 0.5, 0.8):
        rep = check_theorem(f, p, 4)
        assert rep.equality_class == STRICT
        assert_allclose(rep.slack, (p * (1.0 - p)) ** 2 * (2.0 / 3.0), rtol=1e-9)
        # independent confirmation by exhaustive enumeration
        assert_allclose(bruteforce_moment(f, p, 4), rep.moment, atol=1e-12)


@pytest.mark.parametrize("q", [7, 11])
def test_near_etf_utf_is_strict_at_order_four(q):
    # a UTF 1e-5 from a harmonic ETF: its d = 4 slack (~1e-11) is within tol,
    # but only ETFs attain the bound at 0 < p < 1, so it is not UTF-equality
    etf = harmonic_etf(q)
    rng = np.random.default_rng(0)
    noisy = etf.entries + 1e-5 * (rng.normal(size=etf.entries.shape)
                                  + 1j * rng.normal(size=etf.entries.shape))
    noisy /= np.linalg.norm(noisy, axis=0)
    f = nearest_utf(Frame("complex", noisy), max_iters=2000, tol=1e-14).frame
    assert is_utf(f) and not is_etf(f) and f.invariants.etf_gap > 1e-6
    for p in (0.3, 0.5, 0.7):
        rep = check_theorem(f, p, 4)
        assert 0.0 < rep.slack <= bounds.DEFAULT_TOL and rep.equality_class == STRICT
        for d in (2, 3):
            assert check_theorem(f, p, d).equality_class == UTF_EQUALITY
    # the p = 1 bound is attained by every UTF, at every order
    for p in (0.0, 1.0):
        assert check_theorem(f, p, 4).equality_class == UTF_EQUALITY
    assert lemma1_check(f, 4).equality_class == UTF_EQUALITY


def test_check_theorem_random_frames_strict():
    for seed in range(6):
        f = random_frame(3, 8, "complex" if seed % 2 else "real", seed=seed)
        for d in (2, 3, 4):
            rep = check_theorem(f, 0.6, d)
            assert rep.equality_class == STRICT
            assert rep.slack > 0.0


def test_check_theorem_p_edges(mercedes_benz):
    rep0 = check_theorem(mercedes_benz, 0.0, 3)
    assert rep0.moment == 0.0 and rep0.bound == 0.0
    rep1 = check_theorem(mercedes_benz, 1.0, 3)
    assert_allclose(rep1.bound, 1.5**2, rtol=1e-14)


def test_check_theorem_p1_matches_lemma():
    for seed in range(4):
        f = random_frame(2, 6, "real", seed=seed)
        for d in (2, 3, 4):
            a = check_theorem(f, 1.0, d)
            b = lemma1_check(f, d)
            assert abs(a.moment - b.moment) <= 1e-10
            assert abs(a.bound - b.bound) <= 1e-12
            assert a.equality_class == b.equality_class


def test_check_theorem_rejects_first_order(mercedes_benz):
    with pytest.raises(ValueError):
        check_theorem(mercedes_benz, 0.5, 1)


@pytest.mark.parametrize("kwargs", [{"tol": float("nan")}, {"tol": -1.0}])
def test_reports_reject_invalid_tolerances(kwargs):
    # a NaN tolerance would make every report "strict", a negative one would
    # call a generic frame a violation
    f = random_frame(3, 6, "real", seed=0)
    with pytest.raises(ValueError, match="tol must be finite"):
        check_theorem(f, 0.5, 2, **kwargs)
    with pytest.raises(ValueError, match="tol must be finite"):
        lemma1_check(f, 2, **kwargs)


def test_zero_tolerance_is_accepted():
    f = random_frame(3, 6, "real", seed=0)
    assert check_theorem(f, 0.5, 2, tol=0.0).equality_class == STRICT


def test_lemma_orthonormal_basis():
    f = Frame(field="real", entries=np.eye(4))
    for d in (1, 2, 3, 6):
        rep = lemma1_check(f, d)
        assert abs(rep.slack) <= 1e-9
        assert rep.equality_class == ETF_EQUALITY
    # a square frame that is not orthonormal stays strict
    g = random_frame(4, 4, "complex", seed=11)
    assert lemma1_check(g, 2).slack > 0.0


def test_lemma_repeated_onb():
    rep = lemma1_check(repeated_onb(2, 2), 3)
    assert_allclose(rep.moment, 4.0, atol=1e-12)
    assert_allclose(rep.bound, 4.0, atol=0)
    assert rep.equality_class == UTF_EQUALITY


def test_lemma_strict_for_generic_frames():
    for seed in range(5):
        f = random_frame(3, 7, "real", seed=seed)
        for d in (2, 3, 4, 5):
            rep = lemma1_check(f, d)
            assert rep.slack > 0.0
            assert rep.equality_class == STRICT


def test_lemma_first_order_degenerate():
    # both sides are exactly 1 for every unit-norm frame
    f = random_frame(2, 9, "real", seed=0)
    rep = lemma1_check(f, 1)
    assert abs(rep.slack) <= 1e-12
    assert rep.equality_class == STRICT  # equality, but no tight-frame structure
    with pytest.raises(ValueError):
        lemma1_check(f, 0)


def test_subset_rms_bound_examples():
    # k = n recovers the classical coherence floor
    for m, n in [(2, 3), (3, 7), (4, 13)]:
        assert_allclose(subset_rms_bound(n, m, n), welch_floor(m, n), rtol=1e-14)
    assert_allclose(subset_rms_bound(2.0, 2, 3), 1.0 / 3.0, atol=1e-15)


def test_subset_rms_bound_monotone_in_n():
    vals = [subset_rms_bound(3.0, 2, n) for n in (4, 6, 10, 50, 1000)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # large-n limit k/((k-1) m)
    assert_allclose(vals[-1], 3.0 / (2.0 * 2.0), rtol=2e-3)


def test_subset_rms_bound_validation():
    with pytest.raises(ValueError):
        subset_rms_bound(1.0, 2, 3)
    with pytest.raises(ValueError):
        subset_rms_bound(4.0, 2, 3)
    with pytest.raises(ValueError):
        subset_rms_bound(2.0, 4, 3)


def test_subset_rms_meets_floor_with_equality_for_etf(mercedes_benz):
    assert_allclose(subset_rms(mercedes_benz, 2.0 / 3.0), subset_rms_bound(2.0, 2, 3), atol=1e-12)
    for q in (7, 11):
        f = harmonic_etf(q)
        for p in (0.5, 0.8):
            k = p * f.n
            assert_allclose(subset_rms(f, p), subset_rms_bound(k, f.m, f.n), atol=1e-10)


def test_subset_rms_floor_property():
    for seed in range(8):
        f = random_frame(3, 9, "real", seed=seed)
        for p in (0.3, 0.6, 0.9):
            k = p * f.n
            assert subset_rms(f, p) >= subset_rms_bound(k, f.m, f.n) - 1e-9


def test_report_to_dict(mercedes_benz):
    d = check_theorem(mercedes_benz, 0.5, 2).to_dict()
    assert d["m"] == 2 and d["n"] == 3 and d["p"] == 0.5 and d["d"] == 2
    assert set(d) == {"m", "n", "p", "d", "moment", "bound", "slack", "equality_class"}
    assert d["equality_class"] == ETF_EQUALITY
    assert_allclose(d["moment"], 0.625, atol=1e-12)
    assert np.isclose(d["slack"], 0.0, atol=1e-12)


@pytest.mark.parametrize("frame, p, d, cls", [
    (simplex_etf(2), 0.5, 4, ETF_EQUALITY),
    (repeated_onb(2, 2), 0.5, 2, UTF_EQUALITY),
    (repeated_onb(2, 2), 0.5, 4, STRICT),
    (repeated_onb(3, 2), 1.0, 4, UTF_EQUALITY),
    (random_frame(3, 8, "real", seed=2), 0.6, 4, STRICT),
])
def test_report_to_dict_is_asdict(frame, p, d, cls):
    rep = check_theorem(frame, p, d)
    assert rep.equality_class == cls
    got = rep.to_dict()
    assert got == dataclasses.asdict(rep) and list(got) == list(dataclasses.asdict(rep))
    assert all(type(got[k]) is type(getattr(rep, k)) for k in got)


def test_violation_report_to_dict_is_asdict():
    rep = BoundReport(2, 3, 0.5, 2, 0.5, 0.625, -0.125, "violation")
    assert rep.to_dict() == dataclasses.asdict(rep)
    assert list(rep.to_dict()) == list(dataclasses.asdict(rep))


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_numpy_keep_probabilities_classify_as_their_float(dtype):
    # in the scalar's own precision the moment and bound disagree by far more
    # than tol, which labelled ETFs "violation" and "strict"
    frames = [harmonic_etf(7), harmonic_etf(11), simplex_etf(5), repeated_onb(3, 2)]
    for f in frames:
        for p in np.linspace(0.01, 0.99, 99).astype(dtype):
            for d in (2, 3, 4):
                rep = check_theorem(f, p, d)
                assert rep.equality_class == check_theorem(f, float(p), d).equality_class
                assert all(type(getattr(rep, k)) is float
                           for k in ("p", "moment", "bound", "slack"))
                json.dumps(rep.to_dict())


def test_etf_family_equality_sweep():
    frames = [simplex_etf(m) for m in (1, 2, 3, 5, 8)] + [harmonic_etf(q) for q in (3, 7, 11)]
    for f in frames:
        for p in (0.25, 0.75):
            for d in (2, 3, 4):
                rep = check_theorem(f, p, d)
                assert rep.equality_class == ETF_EQUALITY, (f.m, f.n, p, d)
                assert abs(rep.slack) <= 1e-9


@pytest.mark.parametrize("q", [131, 251, 503])
def test_harmonic_etfs_meet_the_bound_to_rounding(q):
    # renormalized exp(-2 pi i r k / q) entries read 2.1e-12 and 1.6e-13 on h503
    f = harmonic_etf(q)
    assert f.invariants.etf_gap <= 1e-16
    assert f.invariants.utf_residual <= 1e-13
    ps = np.linspace(0.05, 0.95, 19)
    assert max(abs(check_theorem(f, p, d).slack) for d in (2, 3, 4) for p in ps) <= 5e-14


def test_non_finite_slack_is_never_classified(mercedes_benz, monkeypatch):
    monkeypatch.setattr(bounds, "expected_moment", lambda frame, p, d: float("nan"))
    with pytest.raises(ValueError, match="slack must be finite"):
        check_theorem(mercedes_benz, 0.5, 2)


def test_descent_gradient_matches_a_central_difference():
    f = random_frame(3, 6, "real", seed=4).entries
    bound = erasure_welch_bound(3, 6, 0.7, 4)
    slack, grad = slack_and_gradient(f, 0.7, bound)
    assert slack == pytest.approx(check_theorem(Frame("real", f), 0.7, 4).slack, abs=1e-13)
    step = np.random.default_rng(1).standard_normal(f.shape)
    step -= f * np.sum(f * step, axis=0)  # tangent, so the columns stay unit to first order
    h = 1e-6
    diff = (slack_and_gradient(f + h * step, 0.7, bound)[0]
            - slack_and_gradient(f - h * step, 0.7, bound)[0]) / (2 * h)
    assert diff == pytest.approx(np.sum(grad * step), rel=1e-7)


@pytest.mark.parametrize("m, n, etf", [(2, 3, True), (3, 6, True), (3, 5, False)])
@pytest.mark.parametrize("p", [0.3, 0.7])
def test_descent_of_the_d4_slack_stops_at_the_bound(m, n, etf, p):
    for seed in (0, 1):
        f, slack = descend(random_frame(m, n, "real", seed=seed).entries, p)
        rep = check_theorem(Frame("real", f), p, 4)
        assert abs(rep.slack - slack) <= 1e-13
        assert rep.slack >= -bounds.DEFAULT_TOL
        assert rep.equality_class != UTF_EQUALITY
        if etf:  # the real 2 x 3 and 3 x 6 ETFs attain the bound
            assert rep.slack <= 1e-12 and rep.equality_class in (ETF_EQUALITY, STRICT)
        else:  # no real 3 x 5 ETF exists
            assert rep.equality_class == STRICT


def fixed_size_moments(frame):
    """m_d^(k) = (1/n) E tr(G_S^d) over the subsets S of exactly k vectors, from
    the 2^n oracle's per-size sums: row k-1 for k = 1..n, columns d = 2, 3, 4."""
    table = bruteforce_table(frame, d_max=4)
    return np.array([table.subset_sums[k, 1:] / math.comb(frame.n, k)
                     for k in range(1, frame.n + 1)])


@pytest.mark.parametrize("etf", [harmonic_etf(7), simplex_etf(6), harmonic_etf(11)],
                         ids=["h7", "simplex6", "h11"])
def test_fixed_size_moments_of_a_size_are_least_at_its_etf(etf):
    # subsets of exactly k vectors (analog coding): every frame of the ETF's
    # size lies at or above it for every k and d = 2..4; a UTF meets it at d = 2, 3
    least = fixed_size_moments(etf)
    for field in ("real", "complex"):
        f = random_frame(etf.m, etf.n, field, seed=1)
        slack = (fixed_size_moments(f) - least) / least
        assert slack.min() >= -1e-13
        assert slack[1:].min() > 1e-2  # strictly above once k >= 2
        utf = fixed_size_moments(nearest_utf(f).frame)
        assert_allclose(utf[:, :2], least[:, :2], rtol=1e-13, atol=0)


def test_fixed_size_moments_of_the_two_2x3_etfs_agree():
    assert_allclose(fixed_size_moments(harmonic_etf(3)), fixed_size_moments(simplex_etf(2)),
                    rtol=1e-14, atol=0)

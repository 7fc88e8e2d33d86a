import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewb import (
    ETF_EQUALITY,
    STRICT,
    UTF_EQUALITY,
    Frame,
    bounds,
    bruteforce_moment,
    check_theorem,
    erasure_welch_bound,
    harmonic_etf,
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


def test_bound_single_vector_frames():
    # n = 1 has no finite-size correction term
    assert_allclose(erasure_welch_bound(1, 1, 0.4, 4), 0.4, atol=1e-15)


def test_check_theorem_etf_equality(mercedes_benz):
    for p in (0.2, 0.5, 0.9):
        for d in (2, 3, 4):
            rep = check_theorem(mercedes_benz, p, d)
            assert rep.equality_class == ETF_EQUALITY
            assert abs(rep.slack) <= 1e-12
            assert rep.params.m == 2 and rep.params.n == 3 and rep.params.d == d


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


def test_check_theorem_tolerance_overrides():
    # a barely-perturbed tight frame: loose equality tol claims equality,
    # tight one keeps it strict
    f = nearest_utf(random_frame(2, 4, "real", seed=3)).frame
    rep_tight = check_theorem(f, 0.5, 2, equality_tol=1e-15, violation_tol=1e-9)
    rep_loose = check_theorem(f, 0.5, 2, tol=1e-6)
    assert rep_loose.equality_class in (UTF_EQUALITY, ETF_EQUALITY)
    assert rep_tight.equality_class in (STRICT, UTF_EQUALITY)


@pytest.mark.parametrize(
    "kwargs",
    [{"tol": float("nan")}, {"tol": -1.0}, {"equality_tol": float("inf")},
     {"violation_tol": -1e-12}],
)
def test_reports_reject_invalid_tolerances(kwargs):
    # a NaN tolerance would make every report "strict", a negative one would
    # call a generic frame a violation
    f = random_frame(3, 6, "real", seed=0)
    with pytest.raises(ValueError, match="tolerances"):
        check_theorem(f, 0.5, 2, **kwargs)
    with pytest.raises(ValueError, match="tolerances"):
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


def test_etf_family_equality_sweep():
    frames = [simplex_etf(m) for m in (1, 2, 3, 5, 8)] + [harmonic_etf(q) for q in (3, 7, 11)]
    for f in frames:
        for p in (0.25, 0.75):
            for d in (2, 3, 4):
                rep = check_theorem(f, p, d)
                assert rep.equality_class == ETF_EQUALITY, (f.m, f.n, p, d)
                assert abs(rep.slack) <= 1e-9


def test_non_finite_slack_is_never_classified(mercedes_benz, monkeypatch):
    monkeypatch.setattr(bounds, "expected_moment", lambda frame, p, d: float("nan"))
    with pytest.raises(ValueError, match="slack must be finite"):
        check_theorem(mercedes_benz, 0.5, 2)

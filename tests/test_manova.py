import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ewb import (
    AtomicOnlyError,
    ManovaParams,
    QuadratureError,
    bulk_mass,
    cdf,
    cdf_many,
    delta_correction,
    density,
    manova,
    moment_closed,
    moment_numeric,
    quantile_many,
    save_frame,
    simplex_etf,
    support,
)
from ewb.cli import main

trapz = getattr(np, "trapezoid", None) or np.trapz

GAMMA_GRID = [0.1, 0.25, 0.4, 0.5, 2.0 / 3.0, 0.75, 0.9, 1.0]
P_GRID = [0.05, 0.2, 0.4, 0.5, 0.6, 0.8, 0.95]


def test_params_validation():
    for gamma, p in [(0.0, 0.5), (1.1, 0.5), (-0.2, 0.5), (0.5, -0.1), (0.5, 1.5)]:
        with pytest.raises(ValueError):
            ManovaParams(gamma=gamma, p=p)
    assert_allclose(ManovaParams(gamma=0.25, p=0.5).x, 3.0, atol=0)


@pytest.mark.parametrize("gamma", [5e-324, 1e-310, 5e-309])
def test_params_reject_gamma_whose_x_overflows(gamma):
    # 1/gamma - 1 is inf here, which would give the law infinite support
    with pytest.raises(ValueError, match=f"gamma must be in .*, got {gamma}"):
        ManovaParams(gamma=gamma, p=0.5)
    assert math.isfinite(ManovaParams(gamma=6e-309, p=0.5).x)


def test_support_half_half():
    sup = support(ManovaParams(gamma=0.5, p=0.5))
    assert_allclose([sup.r_minus, sup.r_plus], [0.0, 2.0], atol=1e-15)
    assert sup.atom_location == 2.0
    assert sup.atom_weight == 0.0


def test_support_p1_collapses_to_atom_pair():
    sup = support(ManovaParams(gamma=0.4, p=1.0))
    assert_allclose(sup.r_minus, 1.5, atol=1e-12)
    assert_allclose(sup.r_plus, 1.5, atol=1e-12)
    assert sup.atom_weight == 1.0


def test_support_p0_is_degenerate_at_one():
    sup = support(ManovaParams(gamma=0.5, p=0.0))
    assert sup.r_minus == sup.r_plus == 1.0
    assert sup.atom_weight == 0.0


def test_support_bulk_never_crosses_atom():
    for gamma in GAMMA_GRID:
        for p in P_GRID + [0.0, 1.0]:
            sup = support(ManovaParams(gamma=gamma, p=p))
            assert 0.0 <= sup.r_minus <= sup.r_plus
            assert sup.r_plus <= sup.atom_location * (1.0 + 1e-12)
            assert 0.0 <= sup.atom_weight <= 1.0


def test_support_r_plus_passes_the_atom_location_by_round_off_only():
    # 1 - gamma r+ is a square, so r+ <= 1/gamma exactly; computed, r+ was
    # found at most 3 ulps (6.7e-16 relative) above it, at p = 1 - gamma
    rng = np.random.default_rng(3)
    gammas = np.concatenate([[5.6e-309, 1.0], 10.0 ** rng.uniform(-308.25, 0.0, 4000)])
    for g in gammas.tolist():
        for p in (1.0 - g, rng.uniform(), 0.0, 1.0):
            sup = support(ManovaParams(gamma=g, p=p))
            assert sup.r_plus <= sup.atom_location + 4 * np.spacing(sup.atom_location), (g, p)


def test_support_of_single_precision_params_with_p_plus_gamma_one():
    # in float32 r+ rounded past 1/gamma for 23 of these gammas
    for g in np.linspace(0.05, 0.95, 181).astype(np.float32):
        params = ManovaParams(gamma=g, p=np.float32(1) - g)
        sup = support(params)
        assert sup.r_plus <= sup.atom_location + 4 * np.spacing(sup.atom_location)
        assert type(params.gamma) is float and type(params.p) is float


def test_support_atom_weight_formula():
    sup = support(ManovaParams(gamma=0.6, p=0.7))
    assert_allclose(sup.atom_weight, 0.3 / 0.6, atol=1e-15)
    assert support(ManovaParams(gamma=0.5, p=0.3)).atom_weight == 0.0


def test_density_vanishes_outside_bulk():
    params = ManovaParams(gamma=0.5, p=0.5)
    sup = support(params)
    assert density(sup.r_minus - 0.1, params) == 0.0
    assert density(sup.r_plus + 0.1, params) == 0.0
    assert density(sup.r_minus, params) == 0.0
    assert density(sup.r_plus, params) == 0.0


def test_density_positive_inside_bulk():
    params = ManovaParams(gamma=2.0 / 3.0, p=0.5)
    sup = support(params)
    ts = np.linspace(sup.r_minus, sup.r_plus, 41)[1:-1]
    assert all(density(t, params) > 0.0 for t in ts)


def test_delta_correction_rejects_non_integral_sizes():
    params = ManovaParams(gamma=0.5, p=0.5)
    for n in (float("nan"), 1.5, float("inf")):
        with pytest.raises(ValueError, match="n must be an integer"):
            delta_correction(params, 4, n)


def test_density_atomic_only_cases():
    for gamma, p in [(0.5, 0.0), (0.5, 1.0), (1.0, 0.5)]:
        for t in (1.0, np.array([0.5, 1.0]), np.linspace(0.0, 2.0, 7).reshape(7, 1)):
            with pytest.raises(AtomicOnlyError):
                density(t, ManovaParams(gamma=gamma, p=p))


def _math_density(t: float, params: ManovaParams) -> float:
    """The bulk density one point at a time in math-module floats: the
    reference the array route must match bit for bit."""
    sup = support(params)
    if t <= sup.r_minus or t >= min(sup.r_plus, sup.atom_location):
        return 0.0
    g = params.gamma
    num = g * math.sqrt((t - sup.r_minus) * (sup.r_plus - t))
    return num / (2.0 * math.pi * t * (1.0 - g * t) * min(params.p, g))


def _density_probes(params: ManovaParams) -> np.ndarray:
    """A bulk grid plus the endpoints, points just outside them, 0, 1/gamma,
    huge values, +-inf and NaN."""
    sup = support(params)
    lo, hi = sup.r_minus, sup.r_plus
    special = [lo, hi, np.nextafter(lo, -1.0), np.nextafter(lo, 2.0), np.nextafter(hi, 0.0),
               np.nextafter(hi, 3.0), lo - 0.1, hi + 0.1, 0.0, -1.0, sup.atom_location,
               1e300, -1e300, math.inf, -math.inf, math.nan]
    return np.concatenate([np.linspace(lo, hi, 101), special])


@pytest.mark.parametrize("gamma,p", [(0.5, 0.5), (0.4, 0.6), (2.0 / 3.0, 0.5), (0.25, 0.3),
                                     (0.9, 0.05)])
def test_density_array_is_bit_identical_to_the_pointwise_route(gamma, p):
    # (0.4, 0.6) puts r+ on 1/gamma and (2/3, 0.5) puts r- at 0
    params = ManovaParams(gamma=gamma, p=p)
    ts = _density_probes(params)
    got = density(ts, params)
    assert isinstance(got, np.ndarray) and got.shape == ts.shape
    pointwise = np.array([density(t, params) for t in ts])
    reference = np.array([_math_density(float(t), params) for t in ts])
    for want in (pointwise, reference):
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()
    assert math.isnan(density(math.nan, params))
    assert np.isnan(got[-1]) and np.count_nonzero(np.isnan(got)) == 1
    # any array shape comes back in that shape
    assert density(ts[:100].reshape(4, 25), params).tobytes() == got[:100].tobytes()


@pytest.mark.parametrize("gamma,p", [(0.5, 0.6), (0.4, 0.6), (0.9, 0.05)])
def test_density_grid_csv_matches_the_pointwise_route(gamma, p, tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["manova", "--gamma", str(gamma), "--p", str(p), "--grid", "200",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    params = ManovaParams(gamma=gamma, p=p)
    sup = support(params)
    ts = np.linspace(sup.r_minus, sup.r_plus, 200)
    want = [f"{t:.17g},{_math_density(float(t), params):.17g}" for t in ts]
    assert lines[2:] == ["t,density"] + want


def test_density_vanishes_from_the_atom_location_up():
    # p + gamma = 1: the bulk ends at 1/gamma = 2, and r+ rounds one ulp above it
    params = ManovaParams(gamma=0.5, p=0.5)
    sup = support(params)
    assert sup.r_plus > sup.atom_location == 2.0
    ts = np.array([sup.atom_location, sup.r_plus, np.nextafter(2.0, 0.0)])
    assert density(2.0, params) == 0.0
    assert density(ts, params).tolist()[:2] == [0.0, 0.0]
    assert density(ts, params)[2] > 0.0


def test_density_of_a_scalar_is_a_python_float():
    params = ManovaParams(gamma=0.5, p=0.5)
    for t in (1.0, 1, np.float64(1.0), np.float32(1.0), np.array(1.0), 5.0):
        assert type(density(t, params)) is float
    assert density(np.array(1.0), params) == density(1.0, params) > 0.0


def test_density_integrates_to_bulk_mass():
    # cross-check the t-space formula against the theta-space quadrature
    params = ManovaParams(gamma=0.5, p=0.6)
    sup = support(params)
    ts = np.linspace(sup.r_minus, sup.r_plus, 40_001)
    vals = np.array([density(t, params) for t in ts])
    assert abs(trapz(vals, ts) - bulk_mass(params)) < 1e-3


def test_bulk_plus_atom_is_one():
    for gamma in GAMMA_GRID:
        for p in P_GRID:
            params = ManovaParams(gamma=gamma, p=p)
            total = bulk_mass(params) + support(params).atom_weight
            assert abs(total - 1.0) <= 1e-14, (gamma, p, total)


def test_bulk_mass_is_the_cdf_table_total():
    # one closed form of the bulk: the CDF just below the atom holds exactly
    # it, clipped to 1 by cdf_many (bulk_mass itself is not clipped)
    for gamma in GAMMA_GRID:
        for p in P_GRID:
            params = ManovaParams(gamma=gamma, p=p)
            sup = support(params)
            if sup.has_bulk:
                left = cdf_many([sup.atom_location], params, left=True)[0]
                assert left == min(1.0, bulk_mass(params)), (gamma, p)


def test_first_moment_is_p():
    for gamma in GAMMA_GRID:
        for p in P_GRID + [0.0, 1.0]:
            params = ManovaParams(gamma=gamma, p=p)
            assert_allclose(moment_closed(params, 1), p, atol=1e-15)
            assert abs(moment_numeric(params, 1) - p) <= 1e-8


def test_moment_closed_examples():
    assert_allclose(moment_closed(ManovaParams(gamma=2.0 / 3.0, p=0.5), 4), 1.1796875, atol=0)
    # p = 1: every kept spectrum is the flat tight-frame one, m_d = (1/gamma)^(d-1)
    for gamma in (0.25, 0.5, 0.8):
        for d in range(1, 9):
            assert_allclose(
                moment_closed(ManovaParams(gamma=gamma, p=1.0), d),
                (1.0 / gamma) ** (d - 1),
                rtol=1e-14,
            )
    # gamma = 1: orthonormal basis, m_d = p for every order
    for d in range(1, 9):
        assert_allclose(moment_closed(ManovaParams(gamma=1.0, p=0.31), d), 0.31, atol=1e-15)


def test_moment_closed_rejects_high_order():
    params = ManovaParams(gamma=0.5, p=0.5)
    for d in (0, -1, 2.5):
        with pytest.raises(ValueError):
            moment_closed(params, d)
    assert moment_closed(params, 2.0) == moment_closed(params, 2)


def paper_moment(params, d):
    """The paper's polynomial for order d <= 4, evaluated exactly at the
    float values of p and x and rounded once."""
    p, x = Fraction(params.p), Fraction(params.x)
    return float([
        p,
        p + p * p * x,
        p + 3 * p**2 * x + p**3 * (x * x - x),
        p + 6 * p**2 * x + p**3 * (6 * x * x - 4 * x) + p**4 * (x**3 - 3 * x * x + x),
    ][d - 1])


@settings(max_examples=200, deadline=None)
@given(
    gamma=st.floats(min_value=1e-6, max_value=1.0),
    p=st.floats(min_value=0.0, max_value=1.0),
    d=st.integers(min_value=1, max_value=4),
)
@example(gamma=0.5, p=0.0, d=4)
@example(gamma=0.3, p=1.0, d=4)
@example(gamma=1.0, p=0.31, d=4)
@example(gamma=0.4, p=0.6, d=4)  # p + gamma = 1: the bulk touches the atom
@example(gamma=2.0 / 3.0, p=0.5, d=4)
def test_property_series_is_the_paper_polynomials_correctly_rounded(gamma, p, d):
    params = ManovaParams(gamma=gamma, p=p)
    assert moment_closed(params, d) == paper_moment(params, d)


def test_series_matches_quadrature_past_order_four():
    for gamma in (0.1, 0.25, 0.5, 2.0 / 3.0, 0.9, 1.0):
        for p in (0.0, 0.05, 0.5, 0.6, 0.95, 1.0):
            params = ManovaParams(gamma=gamma, p=p)
            for d in range(5, 9):
                assert_allclose(moment_closed(params, d), moment_numeric(params, d, tol=1e-12),
                                rtol=1e-13, atol=0, err_msg=f"{gamma} {p} {d}")


@pytest.mark.parametrize("gamma, d", [(1e-300, 4), (1e-200, 3)])
def test_moment_closed_overflow_raises(gamma, d):
    with pytest.raises(ValueError, match="overflows a float"):
        moment_closed(ManovaParams(gamma=gamma, p=0.5), d)


def test_moment_numeric_overflow_raises_where_closed_does_not():
    # the atom term's (1/gamma)^4 = 1e312 overflows; the moment is about 6e232
    params = ManovaParams(gamma=1e-78, p=0.5)
    assert math.isfinite(moment_closed(params, 4))
    with pytest.raises(ValueError, match="overflows a float"):
        moment_numeric(params, 4)
    assert math.isfinite(moment_numeric(ManovaParams(gamma=1e-77, p=0.5), 4))


def test_moment_closed_monotone_in_p():
    ps = np.linspace(0.0, 1.0, 21)
    for gamma in (0.3, 0.7, 1.0):
        for d in (1, 2, 3, 4):
            vals = [moment_closed(ManovaParams(gamma=gamma, p=p), d) for p in ps]
            assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))


def test_moment_second_order_marchenko_pastur_limit():
    # at fixed beta = p/gamma, m_2 / p = 1 + beta - p -> 1 + beta as p -> 0
    beta = 0.5
    for p in (0.4, 0.2, 0.1, 0.05):
        params = ManovaParams(gamma=p / beta, p=p)
        assert_allclose(moment_closed(params, 2) / p, 1.0 + beta - p, rtol=1e-13)


def test_moment_numeric_matches_closed():
    for gamma in (0.25, 0.5, 2.0 / 3.0, 0.9, 1.0):
        for p in (0.1, 0.5, 0.75, 1.0):
            params = ManovaParams(gamma=gamma, p=p)
            for d in (1, 2, 3, 4):
                err = abs(moment_numeric(params, d) - moment_closed(params, d))
                assert err <= 1e-7, (gamma, p, d, err)


def test_moment_numeric_p0_is_zero():
    assert moment_numeric(ManovaParams(gamma=0.5, p=0.0), 3) == 0.0


def test_moment_numeric_is_a_python_float():
    for gamma, p in ((0.5, 0.5), (0.5, 0.0), (0.5, 1.0), (1.0, 0.3), (1e-40, 0.5)):
        assert type(moment_numeric(ManovaParams(gamma=gamma, p=p), 2)) is float


def test_moment_numeric_bulk_touches_atom():
    # p + gamma = 1 puts r+ exactly at 1/gamma; quadrature must stay stable
    params = ManovaParams(gamma=0.4, p=0.6)
    for d in (1, 2, 3, 4):
        assert abs(moment_numeric(params, d) - moment_closed(params, d)) <= 1e-7


def test_delta_correction_example():
    assert_allclose(delta_correction(ManovaParams(gamma=2.0 / 3.0, p=0.5), 4, 3), 0.0078125, atol=0)


def test_delta_correction_vanishing_cases():
    assert delta_correction(ManovaParams(gamma=0.5, p=0.5), 2, 6) == 0.0
    assert delta_correction(ManovaParams(gamma=0.5, p=0.5), 3, 6) == 0.0
    assert delta_correction(ManovaParams(gamma=0.5, p=1.0), 4, 6) == 0.0
    assert delta_correction(ManovaParams(gamma=0.5, p=0.0), 4, 6) == 0.0
    assert delta_correction(ManovaParams(gamma=1.0, p=0.5), 4, 6) == 0.0


def test_delta_correction_decays_like_inverse_n():
    params = ManovaParams(gamma=0.5, p=0.5)
    d4 = delta_correction(params, 4, 4)
    d7 = delta_correction(params, 4, 7)
    assert_allclose(d4 / d7, 6.0 / 3.0, rtol=1e-13)


def test_delta_correction_validation():
    params = ManovaParams(gamma=0.5, p=0.5)
    with pytest.raises(ValueError):
        delta_correction(params, 4, 1)
    for d in (1, 5):
        with pytest.raises(ValueError):
            delta_correction(params, d, 5)


def test_cdf_basic_shape():
    params = ManovaParams(gamma=0.6, p=0.7)
    sup = support(params)
    assert cdf(sup.r_minus - 1e-6, params) == 0.0
    assert cdf(sup.atom_location + 1e-9, params) >= 1.0 - 1e-9
    assert abs(cdf(sup.r_plus, params) - (1.0 - sup.atom_weight)) <= 1e-7
    ts = np.linspace(-0.5, sup.atom_location + 0.5, 301)
    vals = cdf_many(ts, params)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_cdf_left_limit_drops_atom_weight():
    params = ManovaParams(gamma=0.6, p=0.7)
    sup = support(params)
    right = cdf_many(np.array([sup.atom_location]), params)[0]
    left = cdf_many(np.array([sup.atom_location]), params, left=True)[0]
    assert_allclose(right - left, sup.atom_weight, atol=1e-9)


def test_cdf_degenerate_laws():
    # p = 0: unit mass at zero
    vals = cdf_many(np.array([-1.0, 0.0, 0.5]), ManovaParams(gamma=0.5, p=0.0))
    assert_allclose(vals, [0.0, 1.0, 1.0], atol=0)
    # p = 1: unit mass at 1/gamma
    params = ManovaParams(gamma=0.4, p=1.0)
    vals = cdf_many(np.array([2.0, 2.5, 3.0]), params)
    assert_allclose(vals, [0.0, 1.0, 1.0], atol=0)
    # gamma = 1: unit mass at 1
    vals = cdf_many(np.array([0.5, 1.0]), ManovaParams(gamma=1.0, p=0.4))
    assert_allclose(vals, [0.0, 1.0], atol=0)


def test_cdf_matches_density_derivative():
    params = ManovaParams(gamma=0.5, p=0.5)
    sup = support(params)
    for t in np.linspace(sup.r_minus, sup.r_plus, 9)[2:-2]:
        h = 1e-5
        deriv = (cdf(t + h, params) - cdf(t - h, params)) / (2.0 * h)
        assert_allclose(deriv, density(t, params), rtol=1e-4, atol=1e-8)


def test_quantile_roundtrip():
    params = ManovaParams(gamma=0.6, p=0.7)
    sup = support(params)
    qs = np.linspace(0.01, 1.0 - sup.atom_weight - 0.01, 25)
    ts = quantile_many(qs, params)
    assert np.all((ts > sup.r_minus) & (ts < sup.r_plus))
    # bisection runs until the bracket stops shrinking
    assert_allclose(cdf_many(ts, params), qs, atol=1e-12)
    # above the bulk mass the quantile jumps to the atom
    high = quantile_many(np.array([1.0 - sup.atom_weight + 0.01, 1.0]), params)
    assert_allclose(high, sup.atom_location, atol=0)


def test_quantile_validation():
    params = ManovaParams(gamma=0.5, p=0.5)
    with pytest.raises(ValueError):
        quantile_many(np.array([-0.1]), params)
    with pytest.raises(ValueError):
        quantile_many(np.array([1.1]), params)


def test_cdf_gamma_one_left_limits():
    # atom at 1 carries all mass; left limit just below must be 0
    params = ManovaParams(gamma=1.0, p=0.8)
    left = cdf_many(np.array([1.0]), params, left=True)[0]
    assert left == 0.0


def test_density_symmetric_case_peak_location():
    # gamma = p = 1/2 bulk is [0, 2]; mass below 1 equals mass above by symmetry
    # of the arcsine-type factor under t -> 2 - t combined with the 1/(t(1-t/2))
    # weight being symmetric about t = 1
    params = ManovaParams(gamma=0.5, p=0.5)
    assert_allclose(cdf(1.0, params), 0.5, atol=1e-8)
    t = 0.3
    w = t * (1.0 - 0.5 * t)
    w2 = (2.0 - t) * (1.0 - 0.5 * (2.0 - t))
    assert_allclose(density(t, params) * w, density(2.0 - t, params) * w2, rtol=1e-10)


def test_moment_numeric_agrees_with_quantile_average():
    # independent consistency: average of d-th power under inverse transform
    params = ManovaParams(gamma=2.0 / 3.0, p=0.5)
    qs = (np.arange(200_000) + 0.5) / 200_000
    ts = quantile_many(qs, params)
    mc = float(np.mean(ts**2)) * min(params.p, params.gamma)
    assert abs(mc - moment_closed(params, 2)) < 5e-4


def test_support_decides_the_bulk_and_the_jumps():
    sup = support(ManovaParams(gamma=0.5, p=0.0))
    assert not sup.has_bulk and sup.jumps == ((0.0, 1.0),)
    sup = support(ManovaParams(gamma=0.6, p=0.7))
    assert sup.has_bulk and sup.jumps == ((sup.atom_location, sup.atom_weight),)
    for gamma, p in [(0.4, 1.0), (1.0, 0.8)]:
        sup = support(ManovaParams(gamma=gamma, p=p))
        assert not sup.has_bulk
        assert sup.jumps == ((sup.r_minus, 0.0), (sup.atom_location, 1.0))


@pytest.mark.parametrize("gamma, p, above_zero", [
    (0.5, 0.0, 0.0),  # everything erased: unit mass at 0
    (0.4, 1.0, 2.5),  # nothing erased: unit mass at 1/gamma
    (1.0, 0.8, 1.0),  # square frame: unit mass at 1
])
def test_quantile_atomic_only_laws(gamma, p, above_zero):
    params = ManovaParams(gamma=gamma, p=p)
    qs = np.array([0.0, 1e-12, 0.3, 0.9, 1.0])
    ts = quantile_many(qs, params)
    # level 0 maps to the first jump, which carries no mass unless p = 0
    first = 0.0 if p == 0.0 else support(params).r_minus
    assert ts.tolist() == [first] + [above_zero] * 4
    # generalized inverse: P(X < t) <= q <= P(X <= t)
    assert np.all(cdf_many(ts, params, left=True) <= qs)
    assert np.all(cdf_many(ts, params) >= qs)


@pytest.fixture
def midpoint_rule(monkeypatch):
    """A one-point rule, far too coarse for the doubling to converge within
    8 -> 16 panels, with the doubling capped there."""
    monkeypatch.setattr(manova, "_NODES", np.array([0.0]))
    monkeypatch.setattr(manova, "_WEIGHTS", np.array([2.0]))
    monkeypatch.setattr(manova, "_MAX_PANELS", 16)


def test_importing_the_cli_leaves_the_quadrature_rule_unbuilt():
    code = "import sys, ewb.cli; print('numpy.polynomial' in sys.modules)"
    src = str(Path(manova.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "random", "--m", "2", "--n", "4", "--p", "0.5", "--d", "2",
     "--trials", "50", "--out", "sweep.csv"],
    ["moments", "--frame", "frame.json", "--p", "0.5", "--d", "2", "--method", "brute",
     "--out", "moments.csv"],
], ids=["sweep-trials", "moments-brute"])
def test_cli_jobs_leave_numpy_ma_unimported(tmp_path, argv):
    save_frame(simplex_etf(3), tmp_path / "frame.json")
    code = (f"import sys, ewb.cli; assert ewb.cli.main({argv!r}) == 0; "
            "print('numpy.ma' in sys.modules)")
    src = str(Path(manova.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_moment_numeric_raises_when_doubling_runs_out(midpoint_rule):
    with pytest.raises(QuadratureError) as exc:
        moment_numeric(ManovaParams(gamma=0.6, p=0.7), 2)
    assert math.isfinite(exc.value.estimate) and exc.value.estimate > 1e-8


def test_cdf_bulk_mass_and_quantile_use_no_quadrature(monkeypatch):
    def refine(*args):
        raise AssertionError("_refine called")

    monkeypatch.setattr(manova, "_refine", refine)
    monkeypatch.setattr(manova, "_TABLE_CACHE", {})
    for gamma, p in [(0.6, 0.7), (0.5, 0.5), (0.4, 0.6), (1.0, 0.5), (0.5, 0.0)]:
        params = ManovaParams(gamma=gamma, p=p)
        cdf_many(np.linspace(-0.5, 3.0, 50), params)
        cdf_many([1.0], params, left=True)
        bulk_mass(params)
        quantile_many([0.0, 0.3, 0.9, 1.0], params)


def test_law_with_a_bulk_caches_one_entry(monkeypatch):
    monkeypatch.setattr(manova, "_TABLE_CACHE", {})
    params = ManovaParams(gamma=0.6, p=0.7)
    first = cdf_many([0.5, 1.0], params)
    assert list(manova._TABLE_CACHE) == [(0.6, 0.7)]
    assert cdf_many([0.5, 1.0], params).tobytes() == first.tobytes()
    assert list(manova._TABLE_CACHE) == [(0.6, 0.7)]
    # laws without a bulk have nothing to cache
    cdf_many([1.0], ManovaParams(gamma=1.0, p=0.5))
    cdf_many([1.0], ManovaParams(gamma=0.5, p=0.0))
    assert list(manova._TABLE_CACHE) == [(0.6, 0.7)]


ACCURACY_GRID = [1e-3] + [round(0.05 * i, 2) for i in range(1, 20)] + [0.999]


def bulk_cdf_by_quadrature(params, ts):
    """The bulk CDF as 8 panels of 30-node Gauss-Legendre of the theta-
    integrand over [0, theta(t)]: an oracle independent of the closed form."""
    sup = support(params)
    theta = np.arcsin(np.sqrt((ts - sup.r_minus) / (sup.r_plus - sup.r_minus)))
    nodes, weights = np.polynomial.legendre.leggauss(30)
    edges = theta[:, None] * np.linspace(0.0, 1.0, 9)
    half = 0.5 * np.diff(edges, axis=1)
    pts = (edges[:, :-1] + half)[..., None] + half[..., None] * nodes
    vals = manova._bulk_integrand(params, sup)(pts.reshape(-1)).reshape(pts.shape)
    return ((vals @ weights) * half).sum(axis=1)


def test_cdf_matches_quadrature_across_the_bulk():
    fractions = np.linspace(0.01, 0.99, 99)
    pairs = [(g, p) for g in ACCURACY_GRID for p in ACCURACY_GRID]
    pairs += [(g, 1.0 - g) for g in ACCURACY_GRID]
    # p + gamma just off 1: a panel-doubling CDF table failed to converge here
    pairs += [(0.75, 0.25001), (0.75, 0.24999)]
    for gamma, p in pairs:
        params = ManovaParams(gamma=gamma, p=p)
        sup = support(params)
        ts = sup.r_minus + fractions * (sup.r_plus - sup.r_minus)
        assert_allclose(cdf_many(ts, params), bulk_cdf_by_quadrature(params, ts),
                        rtol=0, atol=1e-12, err_msg=f"gamma={gamma} p={p}")


@settings(max_examples=200, deadline=None)
@given(
    gamma=st.floats(min_value=1e-3, max_value=1.0),
    p=st.floats(min_value=0.0, max_value=1.0),
    fractions=st.lists(st.floats(min_value=-0.5, max_value=1.5), min_size=1, max_size=40),
)
@example(gamma=0.4, p=0.6, fractions=[0.0, 0.5, 1.0])  # p + gamma = 1
@example(gamma=0.5, p=0.5, fractions=[0.0, 1e-300, 1.0])  # r- = 0
def test_property_cdf_is_a_distribution_function(gamma, p, fractions):
    params = ManovaParams(gamma=gamma, p=p)
    sup = support(params)
    ts = np.sort(np.concatenate([
        sup.r_minus + np.array(fractions) * (sup.r_plus - sup.r_minus),
        [-np.inf, sup.r_minus, sup.r_plus, sup.atom_location, np.inf],
    ]))
    vals = cdf_many(ts, params)
    # nondecreasing up to the closed form's round-off (module docstring)
    tol = 1e-15 / math.sqrt(min(gamma, p)) if sup.has_bulk else 0.0
    assert np.all(np.diff(vals) >= -tol)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    first_jump = sup.jumps[0][0]
    assert np.all(vals[ts < min(sup.r_minus, first_jump)] == 0.0)
    assert np.all(vals[ts >= sup.atom_location] == 1.0)


def test_cdf_at_the_atom_holds_the_whole_bulk_when_r_plus_rounds_above_it():
    # p + gamma = 1 puts r+ on 1/gamma; here round-off puts it just above,
    # but the bulk still lies wholly below the atom location
    params = ManovaParams(gamma=0.1, p=0.9)
    sup = support(params)
    assert sup.r_plus > sup.atom_location
    left = cdf_many([sup.atom_location], params, left=True)[0]
    assert abs(left - bulk_mass(params)) <= 1e-12


def one_shot_integrand(params, sup):
    """The bulk theta-integrand as one whole-array expression, times f(t):
    the reference that manova's integrand at a power d must match bit for
    bit, with f = t -> t^d and f = None at d = 0."""
    g, p = params.gamma, params.p
    w = sup.r_plus - sup.r_minus
    edge_plus = (math.sqrt((1.0 - p) * (1.0 - g)) - math.sqrt(p * g)) ** 2
    scale = g * w * w / (math.pi * min(p, g))

    def fn(theta, f=None):
        s2 = np.sin(theta) ** 2
        c2 = np.cos(theta) ** 2
        t = sup.r_minus + w * s2
        val = scale * s2 * c2 / (np.maximum(t, 1e-300) * (edge_plus + g * w * c2))
        return val if f is None else val * f(t)

    return fn


@pytest.mark.parametrize("blocks, offset", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)])
@pytest.mark.parametrize("gamma, p", [(0.5, 0.5), (0.25, 0.75), (0.1, 0.9), (0.9, 0.3)])
def test_blocked_integrand_is_bit_identical_to_one_shot(blocks, offset, gamma, p):
    # sizes 1, 2047, 2048, 2049 and 6149 straddle the 2048-point blocks an
    # earlier integrand evaluated in
    size = 2048 * blocks + offset
    params = ManovaParams(gamma=gamma, p=p)
    sup = support(params)
    theta = np.random.default_rng(size).uniform(0.0, math.pi / 2, size)
    theta[0] = 0.0  # t = r-, which is 0 at gamma = p: the clamped denominator
    integrand = manova._bulk_integrand(params, sup)
    reference = one_shot_integrand(params, sup)
    for d, f in ((0, None), (3, lambda t: t**3)):
        got, want = integrand(theta, d), reference(theta, f)
        assert got.shape == want.shape == (size,)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("qs", [[np.nan], [0.5, np.nan], [np.inf]])
@pytest.mark.parametrize("gamma, p", [(0.5, 0.5), (1.0, 0.5)])
def test_quantile_rejects_non_finite_levels(qs, gamma, p):
    with pytest.raises(ValueError):
        quantile_many(np.array(qs), ManovaParams(gamma=gamma, p=p))

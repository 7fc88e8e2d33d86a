import math

import numpy as np
import pytest
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
    support,
)

trapz = getattr(np, "trapezoid", None) or np.trapz

GAMMA_GRID = [0.1, 0.25, 0.4, 0.5, 2.0 / 3.0, 0.75, 0.9, 1.0]
P_GRID = [0.05, 0.2, 0.4, 0.5, 0.6, 0.8, 0.95]


def test_params_validation():
    for gamma, p in [(0.0, 0.5), (1.1, 0.5), (-0.2, 0.5), (0.5, -0.1), (0.5, 1.5)]:
        with pytest.raises(ValueError):
            ManovaParams(gamma=gamma, p=p)
    assert_allclose(ManovaParams(gamma=0.25, p=0.5).x, 3.0, atol=0)


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


def test_density_atomic_only_cases():
    for gamma, p in [(0.5, 0.0), (0.5, 1.0), (1.0, 0.5)]:
        with pytest.raises(AtomicOnlyError):
            density(1.0, ManovaParams(gamma=gamma, p=p))


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
            assert abs(total - 1.0) <= 1e-8, (gamma, p, total)


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
        for d in (1, 2, 3, 4):
            assert_allclose(
                moment_closed(ManovaParams(gamma=gamma, p=1.0), d),
                (1.0 / gamma) ** (d - 1),
                rtol=1e-14,
            )
    # gamma = 1: orthonormal basis, m_d = p for every order
    for d in (1, 2, 3, 4):
        assert_allclose(moment_closed(ManovaParams(gamma=1.0, p=0.31), d), 0.31, atol=1e-15)


def test_moment_closed_rejects_high_order():
    params = ManovaParams(gamma=0.5, p=0.5)
    for d in (0, 5, -1):
        with pytest.raises(ValueError):
            moment_closed(params, d)


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
    # roundtrip error is set by the table's piecewise-linear inversion
    assert_allclose(cdf_many(ts, params), qs, atol=2e-4)
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
    monkeypatch.setattr(manova, "_TABLE_MIN_PANELS", 8)
    monkeypatch.setattr(manova, "_TABLE_CACHE", {})


def test_moment_numeric_raises_when_doubling_runs_out(midpoint_rule):
    with pytest.raises(QuadratureError) as exc:
        moment_numeric(ManovaParams(gamma=0.6, p=0.7), 2)
    assert math.isfinite(exc.value.estimate) and exc.value.estimate > 1e-8


def test_cold_cdf_raises_when_doubling_runs_out(midpoint_rule):
    with pytest.raises(QuadratureError) as exc:
        cdf_many([1.0], ManovaParams(gamma=0.6, p=0.7))
    assert math.isfinite(exc.value.estimate) and exc.value.estimate > 1e-9
    assert manova._TABLE_CACHE == {}  # no half-built table is kept


def test_cdf_at_the_atom_holds_the_whole_bulk_when_r_plus_rounds_above_it():
    # p + gamma = 1 puts r+ on 1/gamma; here round-off puts it just above,
    # but the bulk still lies wholly below the atom location
    params = ManovaParams(gamma=0.1, p=0.9)
    sup = support(params)
    assert sup.r_plus > sup.atom_location
    left = cdf_many([sup.atom_location], params, left=True)[0]
    assert abs(left - bulk_mass(params)) <= 1e-12


def one_shot_integrand(params, sup):
    """The bulk theta-integrand as one whole-array expression: the reference
    that manova's blocked, in-place evaluation must match bit for bit."""
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
    size = blocks * manova._INTEGRAND_BLOCK + offset
    params = ManovaParams(gamma=gamma, p=p)
    sup = support(params)
    theta = np.random.default_rng(size).uniform(0.0, math.pi / 2, size)
    theta[0] = 0.0  # t = r-, which is 0 at gamma = p: the clamped denominator
    blocked = manova._bulk_integrand(params, sup)
    reference = one_shot_integrand(params, sup)
    for f in (None, lambda t: t**3):
        got, want = blocked(theta, f), reference(theta, f)
        assert got.shape == want.shape == (size,)
        assert got.tobytes() == want.tobytes()

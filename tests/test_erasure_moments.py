import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import ewb
from ewb import erasure_moments
from ewb import (
    ErasureModel,
    Frame,
    bruteforce_moment,
    bruteforce_table,
    expected_moment,
    gram,
    harmonic_etf,
    keep_masks,
    moment_polynomial,
    montecarlo_moment,
    random_frame,
    repeated_onb,
    simplex_etf,
    subset_rms,
    trace_moment,
)


def identity_frame(n):
    return Frame(field="real", entries=np.eye(n))


def test_erasure_model_validates_p():
    with pytest.raises(ValueError):
        ErasureModel(p=1.5)
    with pytest.raises(ValueError):
        ErasureModel(p=-0.1)


def test_trace_moment_identity_frame():
    f = identity_frame(4)
    for d in (1, 2, 3, 5):
        assert_allclose(trace_moment(f, d), 1.0, atol=1e-14)
    with pytest.raises(ValueError):
        trace_moment(f, 0)


def test_trace_moment_repeated_onb():
    # FF' = 2I at m=2, n=4: (1/n) tr((FF')^d) = (2^d * 2)/4
    f = repeated_onb(2, 2)
    for d in (1, 2, 3, 4):
        assert_allclose(trace_moment(f, d), 2.0**d / 2.0, atol=1e-12)


def test_polynomial_mercedes_benz_d2(mercedes_benz):
    poly = moment_polynomial(mercedes_benz, 2)
    assert_allclose(poly.coeffs, [1.0, 0.5], atol=1e-12)


def test_polynomial_identity_frame_all_orders():
    f = identity_frame(5)
    for d in (1, 2, 3, 4):
        poly = moment_polynomial(f, d)
        assert poly.coeffs[0] == 1.0
        assert_allclose(poly.coeffs[1:], 0.0, atol=1e-13)
        # m_d = p for an orthonormal basis
        assert_allclose(poly.evaluate(0.37), 0.37, atol=1e-13)


def test_polynomial_leading_coefficient_is_one():
    for seed in range(5):
        f = random_frame(3, 7, "complex", seed=seed)
        for d in (1, 2, 3, 4):
            assert moment_polynomial(f, d).coeffs[0] == 1.0


def test_polynomial_repeated_onb_d4_quartic_pair_sum():
    # four ordered duplicate pairs with |c|^4 = 1 give S4 = 1, so
    # a_{4,2} = 6 a_{2,2} + S4 = 7
    poly = moment_polynomial(repeated_onb(2, 2), 4)
    assert_allclose(poly.coeffs[1], 7.0, atol=1e-12)
    table = bruteforce_table(repeated_onb(2, 2), d_max=4)
    for p in (0.2, 0.5, 0.9):
        assert_allclose(poly.evaluate(p), table.moment(p, 4), atol=1e-12)


def test_polynomial_rejects_high_order():
    with pytest.raises(ValueError):
        moment_polynomial(identity_frame(3), 5)
    with pytest.raises(ValueError):
        moment_polynomial(identity_frame(3), 0)


def test_polynomial_at_one_matches_trace_moment():
    for seed in range(4):
        f = random_frame(4, 9, "real", seed=seed)
        for d in (1, 2, 3, 4):
            assert abs(moment_polynomial(f, d).evaluate(1.0) - trace_moment(f, d)) <= 1e-9


def test_expected_moment_first_order_is_p():
    for f in (identity_frame(3), simplex_etf(4), random_frame(2, 6, "real", seed=8)):
        for p in (0.0, 0.25, 0.8, 1.0):
            assert_allclose(expected_moment(f, p, 1), p, atol=1e-15)


def test_expected_moment_examples(mercedes_benz):
    assert expected_moment(mercedes_benz, 0.0, 3) == 0.0
    assert_allclose(expected_moment(mercedes_benz, 0.5, 2), 0.625, atol=1e-12)
    with pytest.raises(ValueError):
        expected_moment(mercedes_benz, 1.2, 2)


def test_bruteforce_identity_frame_is_p():
    f = identity_frame(3)
    for p in (0.0, 0.3, 1.0):
        assert_allclose(bruteforce_moment(f, p, 2), p, atol=1e-14)


def test_bruteforce_mercedes_benz_values(mercedes_benz):
    assert_allclose(bruteforce_moment(mercedes_benz, 0.5, 2), 0.625, atol=1e-14)
    assert_allclose(bruteforce_moment(mercedes_benz, 0.5, 3), 0.84375, atol=1e-14)


def test_bruteforce_rejects_large_n():
    with pytest.raises(ValueError, match="n <= 24"):
        bruteforce_table(random_frame(2, 25, "real", seed=0))


def test_bruteforce_table_matches_single_calls(mercedes_benz):
    table = bruteforce_table(mercedes_benz, d_max=4)
    for p in (0.1, 0.6):
        for d in (1, 2, 3, 4):
            assert bruteforce_moment(mercedes_benz, p, d) == table.moment(p, d)


def test_bruteforce_chunking_invariance(mercedes_benz, monkeypatch):
    f = random_frame(3, 8, "complex", seed=21)
    a = bruteforce_table(f, d_max=4).subset_sums
    monkeypatch.setattr(erasure_moments, "BRUTEFORCE_CHUNK", 7)
    b = bruteforce_table(f, d_max=4).subset_sums
    assert_allclose(a, b, rtol=0, atol=1e-12)


def test_oracle_equivalence_small_grid(mercedes_benz):
    frames = [
        mercedes_benz,
        identity_frame(4),
        simplex_etf(3),
        harmonic_etf(7),
        repeated_onb(2, 2),
        random_frame(3, 6, "real", seed=5),
        random_frame(2, 5, "complex", seed=6),
    ]
    for f in frames:
        table = bruteforce_table(f, d_max=4)
        for d in (1, 2, 3, 4):
            poly = moment_polynomial(f, d)
            for p in (0.0, 0.3, 0.7, 1.0):
                assert abs(poly.evaluate(p) - table.moment(p, d)) <= 1e-10


def test_montecarlo_p1_degenerate():
    # every trial keeps everything: value pins to the full-trace moment and
    # the spread is pure round-off
    f = simplex_etf(3)
    est = montecarlo_moment(f, ErasureModel(p=1.0, seed=0), 3, trials=64)
    assert est.stderr <= 1e-15
    assert_allclose(est.value, trace_moment(f, 3), atol=1e-12)


def test_montecarlo_p0_exactly_zero():
    est = montecarlo_moment(simplex_etf(3), ErasureModel(p=0.0, seed=0), 2, trials=32)
    assert est.value == 0.0 and est.stderr == 0.0


def test_montecarlo_matches_oracle(mercedes_benz):
    est = montecarlo_moment(mercedes_benz, ErasureModel(p=0.5, seed=123), 2, trials=100_000)
    assert est.trials == 100_000 and est.stderr > 0.0
    assert abs(est.value - 0.625) <= 3.0 * est.stderr


def test_montecarlo_deterministic_and_chunk_invariant(mercedes_benz, monkeypatch):
    a = montecarlo_moment(mercedes_benz, ErasureModel(p=0.4, seed=9), 4, trials=500)
    b = montecarlo_moment(mercedes_benz, ErasureModel(p=0.4, seed=9), 4, trials=500)
    assert (a.value, a.stderr) == (b.value, b.stderr)
    # a budget of 17 rows per operator block: 8n mask bytes plus m^2 float64 per row
    monkeypatch.setattr(erasure_moments, "OPERATOR_BLOCK_BYTES", 17 * (8 * 3 + 8 * 4))
    assert sum(1 for _ in erasure_moments.erased_operators(mercedes_benz, np.ones((500, 3)))) == 30
    c = montecarlo_moment(mercedes_benz, ErasureModel(p=0.4, seed=9), 4, trials=500)
    assert_allclose([a.value, a.stderr], [c.value, c.stderr], rtol=1e-12, atol=0)


def test_montecarlo_validation(mercedes_benz):
    with pytest.raises(ValueError):
        montecarlo_moment(mercedes_benz, ErasureModel(p=0.4), 2, trials=0)
    with pytest.raises(ValueError):
        montecarlo_moment(mercedes_benz, ErasureModel(p=0.4), 0, trials=10)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("p", [0.0, 0.45, 1.0])
@pytest.mark.parametrize("trials", [1, 257])
def test_montecarlo_orders_match_single_order_calls_bit_for_bit(field, p, trials):
    f = random_frame(3, 7, field, seed=2)
    model = ErasureModel(p=p, seed=6)
    top = montecarlo_moment(f, model, 5, trials)
    assert len(top.values) == len(top.stderrs) == 5 and top.trials == trials
    assert (top.value, top.stderr) == (top.values[-1], top.stderrs[-1])
    for d in range(1, 6):
        one = montecarlo_moment(f, model, d, trials)
        assert (top.values[d - 1], top.stderrs[d - 1]) == (one.value, one.stderr)
        assert one.values == top.values[:d] and one.stderrs == top.stderrs[:d]
    if trials == 1:
        assert top.stderrs == (0.0,) * 5
    assert all(type(v) is float for v in top.values + top.stderrs)


def test_subset_rms_reduces_to_coherence_at_p1(mercedes_benz):
    for f in (mercedes_benz, random_frame(3, 8, "real", seed=2)):
        assert abs(subset_rms(f, 1.0) - ewb.coherence(f).rms_sq) <= 1e-12


def test_subset_rms_mercedes_benz(mercedes_benz):
    assert_allclose(subset_rms(mercedes_benz, 2.0 / 3.0), 1.0 / 3.0, atol=1e-12)


def test_subset_rms_identity_is_zero():
    assert_allclose(subset_rms(identity_frame(5), 0.6), 0.0, atol=1e-13)


def test_subset_rms_rejects_small_subsets(mercedes_benz):
    with pytest.raises(ValueError):
        subset_rms(mercedes_benz, 1.0 / 3.0)  # k = 1


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=4),
    extra=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_jensen_pair_inequalities(m, extra, seed):
    # the two averaging inequalities behind the order-4 coefficient bound
    f = random_frame(m, m + extra, "real", seed=seed)
    n = f.n
    sq = np.abs(gram(f)) ** 2
    np.fill_diagonal(sq, 0.0)
    a22 = sq.sum() / n
    s4 = (sq**2).sum() / n
    q = (sq.sum(axis=1) ** 2).sum() / n
    assert s4 >= a22**2 / (n - 1) - 1e-12
    assert q >= a22**2 - 1e-12


def literal_trace_powers(frame, masks, d_max):
    """(1/n) tr(G_S^d) per mask row from the kept-column Gram submatrix itself."""
    g = gram(frame)
    out = np.zeros((d_max, len(masks)))
    for t, row in enumerate(masks):
        idx = np.flatnonzero(row)
        sub = g[np.ix_(idx, idx)]
        cur = np.eye(idx.size)
        for d in range(d_max):
            cur = cur @ sub
            out[d, t] = np.trace(cur).real / frame.n
    return out


# real and complex, m < n and m = n; keep probabilities 0 and 1 included
EQUIVALENCE_FRAMES = [
    random_frame(3, 7, "real", seed=1),
    random_frame(4, 9, "complex", seed=2),
    random_frame(5, 5, "real", seed=3),
    random_frame(4, 4, "complex", seed=4),
]


def fixed_masks(frame):
    """Keep nothing, one vector, m - 1 vectors (|S| < m) and everything."""
    rows = np.zeros((4, frame.n), dtype=bool)
    rows[1, 0] = True
    rows[2, : frame.m - 1] = True
    rows[3] = True
    return rows


@pytest.mark.parametrize("frame", EQUIVALENCE_FRAMES, ids=lambda f: f"{f.field}{f.m}x{f.n}")
@pytest.mark.parametrize("p", [0.0, 0.2, 0.6, 1.0])
def test_erased_trace_powers_match_gram_submatrices(frame, p):
    masks = np.vstack([keep_masks(5, 200, frame.n, p), fixed_masks(frame)])
    got = erasure_moments._erased_trace_powers(frame, masks, 6)
    want = literal_trace_powers(frame, masks, 6)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_operator_blocks_fit_the_byte_budget(monkeypatch):
    # n = 256, complex, 4096 trials: every block the Monte Carlo route asks
    # for fits the budget, whatever n and the trial count
    f = random_frame(8, 256, "complex", seed=7)
    masks = keep_masks(3, 4096, f.n, 0.5)
    budget = erasure_moments.OPERATOR_BLOCK_BYTES
    blocks = []
    kernel = erasure_moments.erased_operators

    def recording(frame, rows):
        for ops in kernel(frame, rows):
            blocks.append(ops.shape)
            yield ops

    monkeypatch.setattr(erasure_moments, "erased_operators", recording)
    montecarlo_moment(f, ErasureModel(p=0.5, seed=3), 2, trials=4096)
    assert sum(b for b, _, _ in blocks) == 4096 and len(blocks) > 1
    for b, m1, m2 in blocks:
        assert (m1, m2) == (8, 8)
        assert b * (8 * f.n + 16 * 8 * 8) <= budget
    # rows come back in order: spot-check the last operator of the last block
    last = list(kernel(f, masks))[-1][-1]
    kept = f.entries[:, masks[-1]]
    assert_allclose(last, kept @ kept.conj().T, rtol=0, atol=1e-12)


_F = harmonic_etf(7)
_LAW = ewb.ManovaParams(gamma=0.5, p=0.5)
_ORDER_ROUTES = {
    "trace_moment": lambda d: trace_moment(_F, d),
    "moment_polynomial": lambda d: moment_polynomial(_F, d),
    "expected_moment": lambda d: expected_moment(_F, 0.5, d),
    "montecarlo_moment": lambda d: montecarlo_moment(_F, ErasureModel(p=0.5, seed=3), d, 40),
    "bruteforce_table": lambda d: bruteforce_table(_F, d_max=d),
    "BruteforceTable.moment": lambda d: bruteforce_table(_F, d_max=4).moment(0.5, d),
    "bruteforce_moment": lambda d: bruteforce_moment(_F, 0.5, d),
    "lemma1_check": lambda d: ewb.lemma1_check(_F, d),
    "moment_closed": lambda d: ewb.moment_closed(_LAW, d),
    "moment_numeric": lambda d: ewb.moment_numeric(_LAW, d),
    "check_theorem": lambda d: ewb.check_theorem(_F, 0.5, d),
    "erasure_welch_bound": lambda d: ewb.erasure_welch_bound(_F.m, _F.n, 0.5, d),
    "delta_correction": lambda d: ewb.delta_correction(_LAW, d, _F.n),
}


@pytest.mark.parametrize("route", sorted(_ORDER_ROUTES))
def test_every_moment_route_takes_only_integral_orders(route):
    fn = _ORDER_ROUTES[route]
    for bad in (2.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            fn(bad)
    # an integral float is the integer order, down to the repr of the result
    assert repr(fn(2.0)) == repr(fn(2))

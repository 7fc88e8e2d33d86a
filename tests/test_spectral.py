import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ewb import (
    ErasureModel,
    Frame,
    ManovaParams,
    Spectrum,
    cdf_many,
    expected_moment,
    gram,
    harmonic_etf,
    hermitian_eigenvalues,
    keep_masks,
    ks_distance,
    montecarlo_moment,
    erasure_moments,
    pool_eigenvalues,
    pooled_subset_eigenvalues,
    quantile_many,
    random_frame,
    simplex_etf,
    subset_spectrum_samples,
    support,
)


def test_eigenvalues_identity():
    spec = hermitian_eigenvalues(np.eye(3))
    assert_allclose(spec.values, [1.0, 1.0, 1.0], atol=1e-14)
    assert spec.source_dims == (3, 3)


def test_eigenvalues_two_by_two():
    spec = hermitian_eigenvalues(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert_allclose(spec.values, [1.5, 0.5], atol=1e-13)


def test_eigenvalues_frame_operator(mercedes_benz):
    a = mercedes_benz.entries @ mercedes_benz.entries.T
    assert_allclose(hermitian_eigenvalues(a).values, [1.5, 1.5], atol=1e-12)


def test_eigenvalues_complex_hermitian():
    a = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
    assert_allclose(hermitian_eigenvalues(a).values, [3.0, 1.0], atol=1e-13)


def test_eigenvalues_sorted_nonincreasing():
    rng = np.random.default_rng(5)
    b = rng.normal(size=(6, 6))
    spec = hermitian_eigenvalues(b + b.T)
    assert np.all(np.diff(spec.values) <= 0.0)
    with pytest.raises(ValueError):
        spec.values[0] = 0.0  # read-only


def test_eigenvalues_rejects_bad_inputs():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.zeros((2, 3)))  # not square
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.zeros(4))  # not a matrix


def test_eigenvalues_psd_clamp():
    g = gram(simplex_etf(4)).entries  # rank 4, smallest eigenvalue 0 up to round-off
    vals = hermitian_eigenvalues(g, psd=True).values
    assert vals[-1] >= 0.0
    assert_allclose(vals[:4], 1.25, atol=1e-12)
    indefinite = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(hermitian_eigenvalues(indefinite).values, [1.0, -1.0], atol=1e-14)
    with pytest.raises(ValueError):
        hermitian_eigenvalues(indefinite, psd=True)


def test_eigenvalues_empty_matrix():
    spec = hermitian_eigenvalues(np.zeros((0, 0)))
    assert spec.values.size == 0
    assert spec.source_dims == (0, 0)


def test_subset_samples_keep_all(mercedes_benz):
    specs = subset_spectrum_samples(mercedes_benz, ErasureModel(p=1.0, seed=0), trials=5)
    assert len(specs) == 5
    for s in specs:
        # full Gram of a tight frame: top-m eigenvalues all n/m, rest 0
        assert_allclose(s.values, [1.5, 1.5, 0.0], atol=1e-12)


def test_subset_samples_orthonormal_columns():
    f = Frame(field="real", entries=np.eye(4))
    specs = subset_spectrum_samples(f, ErasureModel(p=0.6, seed=3), trials=20)
    for s in specs:
        assert_allclose(s.values, 1.0, atol=1e-14)
        assert s.source_dims[0] == s.values.size


def test_subset_samples_records_empty_subsets(mercedes_benz):
    specs = subset_spectrum_samples(mercedes_benz, ErasureModel(p=0.01, seed=1), trials=300)
    assert len(specs) == 300
    sizes = {s.values.size for s in specs}
    assert 0 in sizes  # at p = 0.01 some trials erase everything


def test_subset_samples_deterministic(mercedes_benz):
    a = subset_spectrum_samples(mercedes_benz, ErasureModel(p=0.5, seed=9), trials=16)
    b = subset_spectrum_samples(mercedes_benz, ErasureModel(p=0.5, seed=9), trials=16)
    assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))


def test_subset_samples_validation(mercedes_benz):
    with pytest.raises(ValueError):
        subset_spectrum_samples(mercedes_benz, ErasureModel(p=0.5), trials=0)


def test_pool_takes_top_m():
    specs = [
        Spectrum(values=np.array([3.0, 1.0, 0.0]), source_dims=(3, 3)),
        Spectrum(values=np.array([2.0]), source_dims=(1, 1)),
        Spectrum(values=np.zeros(0), source_dims=(0, 0)),
    ]
    pooled = pool_eigenvalues(specs, 2)
    assert_allclose(np.sort(pooled), [1.0, 2.0, 3.0], atol=0)
    assert pool_eigenvalues([], 2).size == 0
    with pytest.raises(ValueError):
        pool_eigenvalues(specs, 0)


def test_pool_preserves_power_sums(mercedes_benz):
    # sum of d-th powers of pooled eigenvalues == sum over trials of
    # trace((G_S)^d): the discarded eigenvalues are structural zeros
    model = ErasureModel(p=0.7, seed=4)
    specs = subset_spectrum_samples(mercedes_benz, model, trials=200)
    pooled = pool_eigenvalues(specs, mercedes_benz.m)
    for d in (1, 2, 3):
        full = sum(float((s.values**d).sum()) for s in specs)
        assert_allclose(float((pooled**d).sum()), full, rtol=1e-12)


def test_pool_moment_consistency(mercedes_benz):
    # (1/(n * trials)) sum over pool of lambda^d estimates m_d, and equals
    # the masked-trace Monte Carlo route on the same seed exactly
    model = ErasureModel(p=0.6, seed=12)
    trials = 4000
    pooled = pool_eigenvalues(subset_spectrum_samples(mercedes_benz, model, trials), 2)
    est = float((pooled**2).sum()) / (mercedes_benz.n * trials)
    mc = montecarlo_moment(mercedes_benz, model, 2, trials=trials)
    assert_allclose(est, mc.value, atol=1e-10)
    assert abs(est - expected_moment(mercedes_benz, 0.6, 2)) <= 4.0 * mc.stderr


def test_ks_distance_self_consistency_bulk_only():
    # inverse-transform sample from the law itself: KS must be ~ 1/sqrt(N)
    params = ManovaParams(gamma=0.5, p=0.5)
    n = 100_000
    qs = (np.arange(n) + 0.5) / n
    sample = quantile_many(qs, params)
    assert ks_distance(sample, params) <= 1.63 / np.sqrt(n) + 0.005


def test_ks_distance_self_consistency_with_atom():
    params = ManovaParams(gamma=0.6, p=0.7)  # atom weight 0.5
    n = 100_000
    qs = (np.arange(n) + 0.5) / n
    sample = quantile_many(qs, params)
    assert ks_distance(sample, params) <= 1.63 / np.sqrt(n) + 0.005


def test_ks_distance_degenerate_identity_pool():
    # orthonormal basis at gamma = 1: all pooled eigenvalues are exactly 1
    params = ManovaParams(gamma=1.0, p=0.4)
    pooled = np.ones(500)
    assert ks_distance(pooled, params) <= 1e-12


def test_ks_distance_pool_at_atom_location():
    # p = 1 reference is a unit mass at 1/gamma; a pool sitting exactly
    # there must score zero
    params = ManovaParams(gamma=3.0 / 7.0, p=1.0)
    pooled = np.full(9, support(params).atom_location)
    assert ks_distance(pooled, params) == 0.0


def test_ks_distance_full_pipeline():
    # erased harmonic frame vs its limiting law: q = 23 at 400 trials sits
    # around 0.07; anything near the predicted law passes a loose gate
    f = harmonic_etf(23)
    specs = subset_spectrum_samples(f, ErasureModel(p=0.5, seed=0), trials=400)
    pooled = pool_eigenvalues(specs, f.m)
    params = ManovaParams(gamma=f.m / f.n, p=0.5)
    assert ks_distance(pooled, params) <= 0.25


def test_ks_distance_detects_mismatch():
    params = ManovaParams(gamma=0.5, p=0.5)
    sup = support(params)
    shifted = np.full(1000, 0.5 * (sup.r_minus + sup.r_plus))  # point mass mid-bulk
    assert ks_distance(shifted, params) > 0.2


def test_ks_distance_empty_pool_raises():
    with pytest.raises(ValueError):
        ks_distance(np.zeros(0), ManovaParams(gamma=0.5, p=0.5))


def test_ks_distance_capped_at_one():
    params = ManovaParams(gamma=0.5, p=0.5)
    assert ks_distance(np.full(100, 1e6), params) == 1.0


@pytest.mark.parametrize(
    "frame",
    [
        random_frame(3, 7, "real", seed=1),
        random_frame(4, 9, "complex", seed=2),
        random_frame(5, 5, "real", seed=3),
        random_frame(4, 4, "complex", seed=4),
    ],
    ids=lambda f: f"{f.field}{f.m}x{f.n}",
)
@pytest.mark.parametrize("p", [0.0, 0.3, 0.8, 1.0])
def test_subset_spectra_match_gram_submatrices(frame, p):
    # literal route: eigenvalues of G[ix_(S, S)] for the same masks
    model = ErasureModel(p=p, seed=6)
    masks = keep_masks(model.seed, 150, frame.n, p)
    g = gram(frame).entries
    specs = subset_spectrum_samples(frame, model, 150)
    for row, spec in zip(masks, specs):
        idx = np.flatnonzero(row)
        want = hermitian_eigenvalues(g[np.ix_(idx, idx)], psd=True)
        assert spec.source_dims == want.source_dims == (idx.size, idx.size)
        assert_allclose(spec.values, want.values, rtol=0, atol=1e-12)
        assert not spec.values.flags.writeable
        assert np.all(spec.values[frame.m :] == 0.0)  # structural zeros are exact


@pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
def test_ks_distance_orthonormal_basis_round_off_at_atom(p):
    # a rotated orthonormal basis at gamma = 1: every pooled eigenvalue is 1
    # up to round-off, and the law is a unit mass at 1
    q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((8, 8)))
    f = Frame(field="real", entries=q)
    pooled = pool_eigenvalues(subset_spectrum_samples(f, ErasureModel(p=p, seed=2), 300), 8)
    assert np.max(np.abs(pooled - 1.0)) <= 1e-14
    assert ks_distance(pooled, ManovaParams(gamma=1.0, p=p)) <= 1e-12


def test_ks_distance_values_within_round_off_of_the_atom():
    # half bulk, half atom: moving the atom samples by one ulp either way
    # must not move the distance
    params = ManovaParams(gamma=0.6, p=0.7)
    atom = support(params).atom_location
    pooled = quantile_many((np.arange(400) + 0.5) / 400, params)
    exact = ks_distance(pooled, params)
    for direction in (0.0, np.inf):
        nudged = np.where(pooled == atom, np.nextafter(atom, direction), pooled)
        assert (nudged != pooled).sum() > 100
        assert ks_distance(nudged, params) == exact


def ks_from_two_full_cdf_calls(pooled, params):
    """Reference KS: both one-sided law CDFs evaluated at every candidate."""
    sup = support(params)
    xs = np.array(pooled, dtype=float)
    for jump, _ in sup.jumps:
        xs[np.abs(xs - jump) <= 1e-12 * np.maximum(1.0, np.abs(xs))] = jump
    xs.sort()
    cand = np.unique(np.concatenate([xs, [0.0, sup.r_minus, sup.atom_location]]))
    emp_le = np.searchsorted(xs, cand, side="right") / xs.size
    emp_lt = np.searchsorted(xs, cand, side="left") / xs.size
    ref_le = cdf_many(cand, params)
    ref_lt = cdf_many(cand, params, left=True)
    return min(1.0, max(float(np.max(np.abs(emp_le - ref_le))),
                        float(np.max(np.abs(emp_lt - ref_lt)))))


@pytest.mark.parametrize("gamma", [0.1, 0.25, 0.5, 0.6, 0.9, 1.0])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.75, 1.0, "1-gamma"])
def test_ks_distance_left_limits_only_at_the_jumps(gamma, p):
    # every jump of the law, with pools on it, one ulp off it, and in the bulk
    params = ManovaParams(gamma=gamma, p=1.0 - gamma if p == "1-gamma" else p)
    jumps = np.array([loc for loc, _ in support(params).jumps])
    rng = np.random.default_rng(5)
    for size in (1, 7, 200):
        near = np.concatenate([jumps, np.nextafter(jumps, 0.0), np.nextafter(jumps, np.inf)])
        pooled = np.concatenate([quantile_many(rng.uniform(size=size), params),
                                 np.repeat(near, rng.integers(1, 20, near.size))])
        assert ks_distance(pooled, params) == ks_from_two_full_cdf_calls(pooled, params)


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(["real", "complex"]),
    m=st.integers(min_value=1, max_value=5),
    extra=st.integers(min_value=0, max_value=6),
    p=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    trials=st.integers(min_value=1, max_value=40),
    rows=st.sampled_from([None, 1, 3, 7]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_pooled_route_is_the_pool_of_the_spectra(field, m, extra, p, trials, rows, seed):
    # extra = 0 gives m = n; p = 0 and small p * n give trials with |S| = 0
    frame = random_frame(m, m + extra, field, seed=seed)
    model = ErasureModel(p=p, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            # `rows` operators per block: 8n mask bytes plus the m x m operator per row
            per_row = 8 * frame.n + frame.entries.itemsize * m * m
            mp.setattr(erasure_moments, "OPERATOR_BLOCK_BYTES", rows * per_row)
        got = pooled_subset_eigenvalues(frame, model, trials)
        want = pool_eigenvalues(subset_spectrum_samples(frame, model, trials), frame.m)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_pooled_route_validation(mercedes_benz):
    with pytest.raises(ValueError):
        pooled_subset_eigenvalues(mercedes_benz, ErasureModel(p=0.5), 0)
    assert pooled_subset_eigenvalues(mercedes_benz, ErasureModel(p=0.0), 5).size == 0

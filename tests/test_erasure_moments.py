import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import ewb
from ewb import erasure_moments, spectral
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
    pooled_subset_eigenvalues,
    random_frame,
    repeated_onb,
    simplex_etf,
    subset_rms,
    trace_moment,
)

from conftest import peak_bytes


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


def falling(x: int, j: int) -> int:
    """The falling factorial (x)_j = x (x - 1) ... (x - j + 1)."""
    return math.prod(range(x - j + 1, x + 1))


@pytest.mark.parametrize("frame", [random_frame(4, 12, "complex", seed=3), harmonic_etf(11),
                                   random_frame(3, 9, "real", seed=5), simplex_etf(5)],
                         ids=["complex-4x12", "h11", "real-3x9", "simplex-5"])
def test_every_coefficient_matches_the_per_size_sums(frame):
    # a uniform k-subset keeps j given vectors with probability (k)_j / (n)_j, so
    # subset_sums[k, d-1] / C(n, k) = sum_j a_{d,j} (k)_j / (n)_j for every k
    n, table = frame.n, bruteforce_table(frame, d_max=4)
    for d in range(1, 5):
        coeffs = moment_polynomial(frame, d).coeffs
        for k in range(n + 1):
            want = math.fsum(a * falling(k, j) / falling(n, j) for j, a in enumerate(coeffs, 1))
            assert_allclose(table.subset_sums[k, d - 1] / math.comb(n, k), want, rtol=1e-13,
                            atol=0, err_msg=f"d={d} k={k}")


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
    # orders must be integers in 1..d, and at least one
    for orders in ([0], [5], [2, 2.5], [float("nan")], [True], [4, -1], []):
        with pytest.raises(ValueError, match="moment order"):
            montecarlo_moment(mercedes_benz, ErasureModel(p=0.4), 4, 10, orders=orders)


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


@pytest.mark.parametrize("field", ["real", "complex"])
def test_montecarlo_orders_asked_for_keep_their_bits_and_alone_are_traced(field, monkeypatch):
    f = random_frame(3, 7, field, seed=2)
    model = ErasureModel(p=0.45, seed=6)
    full = montecarlo_moment(f, model, 6, 257)
    asked, kernel = [], erasure_moments.trace_powers
    monkeypatch.setattr(erasure_moments, "trace_powers",
                        lambda a, n, orders, *rest: asked.append(list(orders))
                        or kernel(a, n, orders, *rest))
    for orders in ([6], [4], [2], [2, 5], [5, 2], [3, 3], [1, 6], [2.0, 6]):
        asked.clear()
        est = montecarlo_moment(f, model, 6, 257, orders=orders)
        assert est.values == tuple(full.values[int(k) - 1] for k in orders)
        assert est.stderrs == tuple(full.stderrs[int(k) - 1] for k in orders)
        assert (est.value, est.stderr) == (est.values[-1], est.stderrs[-1])
        assert est.trials == 257 and asked and all(a == orders for a in asked)
    assert all(type(v) is float for v in est.values + est.stderrs)


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
    got = erasure_moments._erased_trace_powers(frame, masks, range(1, 7))
    want = literal_trace_powers(frame, masks, 6)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_operator_blocks_fit_the_byte_budget(monkeypatch):
    # n = 256, complex, 4096 trials: every block the Monte Carlo and KS routes
    # ask for fits the budget with every array it holds per row (float masks,
    # operators and the caller's scratch stacks: at d = 6 two half powers, on
    # the KS route the eigen checks' real and complex stacks), whatever n and
    # the trial count, and a full block leaves no room for one row more
    f = random_frame(8, 256, "complex", seed=7)
    model = ErasureModel(p=0.5, seed=3)
    masks = keep_masks(3, 4096, f.n, 0.5)
    budget = erasure_moments.OPERATOR_BLOCK_BYTES
    kernel = erasure_moments.erased_operators

    def recording(frame, rows, scratch=()):
        for stacks in kernel(frame, rows, scratch):
            blocks.append([(s.shape, s.dtype) for s in stacks])
            yield stacks

    monkeypatch.setattr(erasure_moments, "erased_operators", recording)
    monkeypatch.setattr(spectral, "erased_operators", recording)
    routes = [
        (lambda: montecarlo_moment(f, model, 2, 4096), [np.complex128]),
        (lambda: montecarlo_moment(f, model, 6, 4096), [np.complex128] * 3),
        (lambda: pooled_subset_eigenvalues(f, model, 4096),
         [np.complex128, np.float64, np.complex128]),
    ]
    for run, dtypes in routes:
        blocks = []
        run()
        assert sum(block[0][0][0] for block in blocks) == 4096 and len(blocks) > 1
        per_row = 8 * f.n + sum(np.dtype(t).itemsize for t in dtypes) * 8 * 8
        for block in blocks:
            b = block[0][0][0]
            assert block == [((b, 8, 8), np.dtype(t)) for t in dtypes]
            assert b * per_row <= budget
        assert (blocks[0][0][0][0] + 1) * per_row > budget
    # rows come back in order: spot-check the last operator of the last block
    last = list(kernel(f, masks))[-1][0][-1]
    kept = f.entries[:, masks[-1]]
    assert_allclose(last, kept @ kept.conj().T, rtol=0, atol=1e-12)


def test_yielded_operator_stacks_share_one_workspace():
    f = random_frame(4, 16, "complex", seed=2)
    masks = keep_masks(8, 1000, f.n, 0.5)
    first, dtypes = None, [np.complex128, np.float64, np.complex128]
    with pytest.MonkeyPatch.context() as mp:
        # 64 rows of masks, operators and one real and one complex scratch stack
        mp.setattr(erasure_moments, "OPERATOR_BLOCK_BYTES", 64 * (8 * 16 + (16 + 8 + 16) * 16))
        blocks = erasure_moments.erased_operators(f, masks, dtypes[1:])
        for start, stacks in itertools.zip_longest(range(0, 1000, 64), blocks):
            first = stacks if first is None else first
            b = min(64, 1000 - start)
            assert [(s.shape, s.dtype) for s in stacks] == [((b, 4, 4), t) for t in dtypes]
            assert all(np.shares_memory(s, t) for s, t in zip(stacks, first))
            assert not any(np.shares_memory(s, t) for s, t in itertools.combinations(stacks, 2))
            kept = f.entries[:, masks[start + b - 1]]
            assert_allclose(stacks[0][-1], kept @ kept.conj().T, rtol=0, atol=1e-12)


def test_monte_carlo_pass_runs_in_18_blocks_and_allocates_nothing_per_block(monkeypatch):
    # complex 16 x 64 at d = 4: 120 operators a block.  tracemalloc's peak
    # between two yields, less the memory held at the later one, is what a
    # block allocated and freed; after the first block (which allocates the
    # workspace) it stays under 4 KiB, the size of numpy's call overhead,
    # while one row of masks and operators alone is 4.5 KiB
    f = random_frame(16, 64, "complex", seed=4)
    kernel = erasure_moments.erased_operators
    held, spikes = [], []

    def recording(*args):
        for ops in kernel(*args):
            cur, peak = tracemalloc.get_traced_memory()
            held.append(cur)
            spikes.append(peak - cur)
            tracemalloc.reset_peak()
            yield ops

    monkeypatch.setattr(erasure_moments, "erased_operators", recording)
    peak_bytes(montecarlo_moment, f, ErasureModel(p=0.5, seed=1), 4, 2048)
    assert len(held) == 18
    assert max(spikes[2:]) < 4096
    # what a block keeps: the list entries above, nothing of its own
    assert max(np.diff(held[2:])) < 1024


def _mc_peak(frame, d, trials):
    montecarlo_moment(frame, ErasureModel(p=0.5, seed=5), d, trials)  # warm numpy's caches
    return peak_bytes(montecarlo_moment, frame, ErasureModel(p=0.5, seed=5), d, trials)


def test_montecarlo_peak_grows_only_with_the_masks_and_the_output():
    f = random_frame(16, 64, "complex", seed=6)
    growth = _mc_peak(f, 4, 8192) - _mc_peak(f, 4, 2048)
    # bool masks (n bytes per trial) and the (d, trials) float64 output, plus
    # 4 KiB for Python's own objects
    assert growth <= 6144 * (f.n + 4 * 8) + 4096


def test_montecarlo_holds_the_rank_one_table_to_the_budget():
    # the n x m^2 complex table alone is 32 MiB here; it is built in slabs
    f = random_frame(128, 128, "complex", seed=1)
    assert _mc_peak(f, 2, 16) < 4 * erasure_moments.OPERATOR_BLOCK_BYTES


def test_rank_one_table_slabs_give_the_whole_table_result(monkeypatch):
    f = random_frame(6, 20, "complex", seed=3)
    masks = keep_masks(2, 300, f.n, 0.4)
    whole = erasure_moments._erased_trace_powers(f, masks, (1, 2, 3, 4))
    # a budget of one operator row per slab: six slabs per block
    monkeypatch.setattr(erasure_moments, "OPERATOR_BLOCK_BYTES", 16 * 6 * 20)
    slabbed = erasure_moments._erased_trace_powers(f, masks, (1, 2, 3, 4))
    assert_allclose(slabbed, whole, rtol=1e-13, atol=0)
    assert_allclose(whole, literal_trace_powers(f, masks, 4), rtol=1e-12, atol=1e-14)


def test_threads_sharing_a_frame_get_the_serial_bits():
    # four threads on two cores, two per route with different draws: a
    # workspace shared between calls of one route would mix their blocks
    f = random_frame(8, 32, "complex", seed=9)
    runs = {}
    for p, seed in ((0.6, 2), (0.3, 5)):
        model = ErasureModel(p=p, seed=seed)
        runs["mc", p] = lambda model=model: montecarlo_moment(f, model, 4, 3000).values
        runs["ks", p] = lambda model=model: pooled_subset_eigenvalues(f, model, 700).tobytes()
    serial = {k: run() for k, run in runs.items()}
    got = {}
    barrier = threading.Barrier(len(runs))

    def worker(k):
        barrier.wait()
        got[k] = [runs[k]() for _ in range(4)]

    threads = [threading.Thread(target=worker, args=(k,)) for k in runs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(v == serial[k] for k in runs for v in got[k])


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

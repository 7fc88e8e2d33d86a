"""Expected spectral moments of Bernoulli-erased frames.

Erasure model: each of the n frame vectors is kept independently with
probability p and zeroed otherwise, X = FP.  The d-th moment is

    m_d = (1/n) E[trace((X'X)^d)],

normalized by the full frame size n, so m_1 = p for every unit-norm frame.
m_d is a polynomial in p of degree d; the p^k coefficient a_{d,k} is the
normalized count of length-d correlation cycles visiting exactly k distinct
vectors, with a_{d,1} = 1.  For d <= 4 the coefficients are recovered from
trace identities and O(n^2) pair sums instead of tuple enumeration.

Three routes to m_d are provided: the exact polynomial, an exhaustive
2^n-pattern oracle (n <= 24) and a seeded Monte Carlo estimator; the last two
give several orders from one pass (the oracle every order up to d, the
estimator the orders asked for).  Oracle weights p^|S| stay above
double-precision underflow for p >= 1e-9 at n <= 24 (no log-space arithmetic).

The oracle, the Monte Carlo route and spectral.subset_spectrum_samples never
form a kept-column Gram submatrix G_S: its nonzero spectrum is that of the
m-by-m erased frame operator F D_S F'.  erased_operators alone sizes blocks of
them and of its caller's scratch stacks to OPERATOR_BLOCK_BYTES, one workspace per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import integer, probability
from .frames import Frame, gram, trace_powers  # noqa: F401 (bench/tracing.py wraps gram)
from .rng import keep_masks

BRUTEFORCE_MAX_N = 24
# keep patterns per bruteforce_table enumeration block
BRUTEFORCE_CHUNK = 8192

# Bytes of one erased_operators block: B x n float masks, B x m x m operators and
# the B x m x m scratch stacks its caller asks for, allocated once per call and
# refilled per block; also the size of a rank-one table slab.  1 MiB fits a 2 MiB L2.
OPERATOR_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class ErasureModel:
    """Keep-probability and seed for one erasure experiment."""

    p: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "p", probability(self.p))


@dataclass(frozen=True)
class MomentPolynomial:
    """m_d(p) = sum_k coeffs[k-1] * p^k with coeffs[0] = 1."""

    d: int
    coeffs: tuple

    def evaluate(self, p: float) -> float:
        acc = 0.0
        for a in reversed(self.coeffs):
            acc = a + p * acc
        return p * acc


@dataclass(frozen=True)
class MomentEstimate:
    """values[r], stderrs[r]: Monte Carlo mean and std / sqrt(trials) of the r-th
    order asked for (orders 1..d unless a caller named others); value and
    stderr are those of the last."""

    values: tuple
    stderrs: tuple
    trials: int

    @property
    def value(self) -> float:
        return self.values[-1]

    @property
    def stderr(self) -> float:
        return self.stderrs[-1]


def trace_moment(frame: Frame, d: int) -> float:
    """(1/n) trace((F F')^d) from the half powers of FF' (frames.trace_powers of
    order d alone: ceil(d/2) - 1 dense products).

    Works on the m-by-m factor FF' (m <= n); equals the moment of the
    unerased frame, i.e. m_d at p = 1.  Orders <= 4 are cached per frame.
    """
    d = integer(d, "moment order")
    inv = frame.invariants
    if d <= len(inv.traces):
        return inv.traces[d - 1]
    return float(trace_powers(inv.ffh, frame.n, (d,))[0])


def moment_polynomial(frame: Frame, d: int) -> MomentPolynomial:
    """Exact coefficients of m_d(p) for d <= 4.

    With T_d = (1/n) trace((FF')^d) and off-diagonal Gram magnitudes |c|:
    a_{2,2} = (1/n) sum |c|^2 = T_2 - 1; a_{3,2} = 3 a_{2,2} and
    a_{3,3} = T_3 - 1 - a_{3,2}; for d = 4, with S4 = (1/n) sum |c|^4,
    C_i = sum_{j != i} |c_ij|^2 and Q = (1/n) sum C_i^2:
    a_{4,2} = 6 a_{2,2} + S4, a_{4,3} = 4 a_{3,3} + 2 Q - 2 S4, and
    a_{4,4} closes against T_4; T_d, S4 and Q are cached per frame.
    """
    d = integer(d, "moment order with closed coefficients", 1, 4)
    if d == 1:
        return MomentPolynomial(d=1, coeffs=(1.0,))
    inv = frame.invariants
    if d == 2:
        return MomentPolynomial(d=2, coeffs=(1.0, inv.a22))
    a32 = 3.0 * inv.a22
    a33 = inv.traces[2] - 1.0 - a32
    if d == 3:
        return MomentPolynomial(d=3, coeffs=(1.0, a32, a33))
    a42 = 6.0 * inv.a22 + inv.s4
    a43 = 4.0 * a33 + 2.0 * inv.q - 2.0 * inv.s4
    a44 = inv.traces[3] - 1.0 - a42 - a43
    return MomentPolynomial(d=4, coeffs=(1.0, a42, a43, a44))


def expected_moment(frame: Frame, p: float, d: int) -> float:
    """m_d at keep probability p, via the exact coefficient polynomial."""
    p = probability(p)
    return moment_polynomial(frame, d).evaluate(p)


def erased_operators(frame: Frame, masks: np.ndarray, scratch=()):
    """Yield (S, *stacks) for consecutive blocks of the (trials, n) 0/1 mask rows:
    S[b] = F diag(mask_b) F' from one GEMM of the masks onto the n rank-one
    products f_k f_k', and a B x m x m stack for each dtype in scratch, B as
    large as OPERATOR_BLOCK_BYTES allows (at least 1) for all of them.

    tr(S[b]^d) = tr(G_S^d); the top min(|S|, m) eigenvalues of S[b] are those
    of G_S.  Masks and stacks are allocated once per call: each stack yielded
    is a view that the next block overwrites.  The rank-one table is built once
    if it fits the budget, else per block in slabs of operator rows that fit.
    The table is Hermitian only up to round-off (its lower triangle is not the
    conjugate of its upper one, its diagonal has imaginary round-off), so a
    GEMM onto half of it would change the Monte Carlo and KS bytes.
    """
    f = frame.entries
    m, n = f.shape
    dtypes = [f.dtype, *map(np.dtype, scratch)]
    row_bytes = 8 * n + sum(t.itemsize for t in dtypes) * m * m
    rows = max(1, min(len(masks), OPERATOR_BLOCK_BYTES // row_bytes))
    step = max(1, OPERATOR_BLOCK_BYTES // (f.itemsize * n * m))  # operator rows per slab
    fmask, stacks = np.empty((rows, n)), [np.empty((rows, m, m), t) for t in dtypes]
    ops, slab = stacks[0].reshape(rows, m * m), np.empty(n * min(step, m) * m, f.dtype)
    for start in range(0, len(masks), rows):
        b = min(rows, len(masks) - start)
        np.copyto(fmask[:b], masks[start : start + b])
        for i in range(0, m, step):
            table = slab[: n * min(step, m - i) * m].reshape(n, -1, m)
            if start == 0 or step < m:
                np.multiply(f.T[:, i : i + step, None], f.T.conj()[:, None, :], out=table)
            # complex entries are read as (re, im) float pairs, so the masks stay
            # real and the product is one real GEMM of twice the width
            cols = ops[:b, i * m : (i + step) * m].view(np.float64)
            np.matmul(fmask[:b], table.view(np.float64).reshape(n, -1), out=cols)
        yield tuple(s[:b] for s in stacks)


def _erased_trace_powers(frame: Frame, masks: np.ndarray, orders) -> np.ndarray:
    """(1/n) tr(G_S^d) per mask row for each d in orders, as a (len(orders),
    trials) array; the ceil(max(orders)/2) - 1 half powers are erased_operators
    scratch stacks."""
    halves = (max(orders) + 1) // 2 - 1
    out, start = np.empty((len(orders), len(masks))), 0
    for ops, *powers in erased_operators(frame, masks, [frame.entries.dtype] * halves):
        trace_powers(ops, frame.n, orders, powers, out[:, start : start + len(ops)])
        start += len(ops)
    return out


@dataclass(frozen=True)
class BruteforceTable:
    """Per-subset-size trace sums; entry [k, d-1] = sum over |S| = k of (1/n) tr((G_S)^d).

    One enumeration of the 2^n keep patterns serves every (p, d <= d_max)
    afterwards, since only the binomial weights depend on p.
    """

    n: int
    d_max: int
    subset_sums: np.ndarray

    def moment(self, p: float, d: int) -> float:
        d = integer(d, "tabulated moment order", 1, self.d_max)
        p, n = probability(p), self.n
        terms = [
            p**k * (1.0 - p) ** (n - k) * self.subset_sums[k, d - 1]
            for k in range(n + 1)
        ]
        return math.fsum(terms)


def bruteforce_table(frame: Frame, d_max: int = 4) -> BruteforceTable:
    """Enumerate all 2^n keep patterns once, in blocks of BRUTEFORCE_CHUNK,
    and group trace sums by subset size.

    Compensated (fsum) accumulation keeps the result independent of the
    block size to well below 1e-10.
    """
    n = frame.n
    if n > BRUTEFORCE_MAX_N:
        raise ValueError(f"brute force needs n <= {BRUTEFORCE_MAX_N}, got n={n}")
    d_max = integer(d_max, "moment order")
    partial = [[[] for _ in range(d_max)] for _ in range(n + 1)]
    bits = np.arange(n, dtype=np.int64)
    total = 1 << n
    for start in range(0, total, BRUTEFORCE_CHUNK):
        idx = np.arange(start, min(start + BRUTEFORCE_CHUNK, total), dtype=np.int64)
        masks = ((idx[:, None] >> bits[None, :]) & 1).astype(bool)
        vals = _erased_trace_powers(frame, masks, range(1, d_max + 1))
        ks = masks.sum(axis=1)
        for k in np.unique(ks):
            sel = ks == k
            for j in range(d_max):
                partial[int(k)][j].append(math.fsum(vals[j][sel].tolist()))
    sums = np.array(
        [[math.fsum(partial[k][j]) for j in range(d_max)] for k in range(n + 1)]
    )
    return BruteforceTable(n=n, d_max=d_max, subset_sums=sums)


def bruteforce_moment(frame: Frame, p: float, d: int) -> float:
    """Exact m_d as the weighted sum over all 2^n keep patterns (n <= 24).

    Unlike the polynomial route this places no upper limit on d, so it also
    serves exploratory checks beyond order 4.
    """
    return bruteforce_table(frame, d_max=d).moment(p, d)


def montecarlo_moment(frame: Frame, model: ErasureModel, d: int, trials: int, *,
                      orders=None) -> MomentEstimate:
    """Average (1/n) tr((G_S)^k) over i.i.d. Bernoulli(p) keep patterns for each
    k in orders, integers in 1..d (default: every k = 1..d), in the order given.

    One mask draw and one erased-trace pass serve every order, each with the
    bits of a d = k call, whatever the other orders; only the orders asked for
    are traced.  Trial t's pattern depends only on model.seed and t
    (counter-derived).
    """
    d = integer(d, "moment order")
    if orders is None:
        orders = range(1, d + 1)
    orders = [integer(k, "moment order", 1, d) for k in orders]
    if not orders:
        raise ValueError("montecarlo_moment needs at least one moment order")
    masks = keep_masks(model.seed, trials, frame.n, model.p)
    trials = len(masks)
    rows = _erased_trace_powers(frame, masks, orders)
    stderrs = [float(r.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0 for r in rows]
    return MomentEstimate(tuple(float(r.mean()) for r in rows), tuple(stderrs), trials)


def subset_rms(frame: Frame, p: float) -> float:
    """Squared rms correlation of the erased frame, normalized by the
    expected subset size k = p n:  (m_2 / p - 1) / (k - 1).

    At p = 1 this reduces to the full-frame rms_sq from coherence().
    """
    p = probability(p)
    k = p * frame.n
    if k <= 1.0:
        raise ValueError(f"expected subset size p*n must exceed 1, got {k}")
    m2 = expected_moment(frame, p, 2)
    return (m2 / p - 1.0) / (k - 1.0)

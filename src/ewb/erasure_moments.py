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
give every order up to d from one pass.  Oracle weights p^|S| stay above
double-precision underflow for p >= 1e-9 at n <= 24 (no log-space arithmetic).

The oracle, the Monte Carlo route and spectral.subset_spectrum_samples never
form a kept-column Gram submatrix G_S: its nonzero spectrum is that of the
m-by-m erased frame operator F D_S F', which erased_operators builds for
blocks of keep masks sized by the byte budget OPERATOR_BLOCK_BYTES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import integer, within
from .frames import Frame, gram, trace_powers  # noqa: F401 (bench/tracing.py wraps gram)
from .rng import keep_masks

BRUTEFORCE_MAX_N = 24
# keep patterns per bruteforce_table enumeration block
BRUTEFORCE_CHUNK = 8192

# Bytes of one erased_operators block: B x n float masks plus B x m x m operators.
# At 128 KiB every per-block temporary stays below glibc's default mmap
# threshold, so blocks reuse heap memory instead of mapping fresh pages
# that the kernel must fault in and zero for each block.
OPERATOR_BLOCK_BYTES = 1 << 17


@dataclass(frozen=True)
class ErasureModel:
    """Keep-probability and seed for one erasure experiment."""

    p: float
    seed: int = 0

    def __post_init__(self):
        within(self.p, "keep probability", 0.0, 1.0)


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
    """values[k-1], stderrs[k-1]: Monte Carlo mean, std / sqrt(trials) of order k = 1..d."""

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
    """(1/n) trace((F F')^d) from the half powers of FF' (frames.trace_powers:
    ceil(d/2) - 1 dense products).

    Works on the m-by-m factor FF' (m <= n); equals the moment of the
    unerased frame, i.e. m_d at p = 1.  Orders <= 4 are cached per frame.
    """
    d = integer(d, "moment order")
    inv = frame.invariants
    if d <= len(inv.traces):
        return inv.traces[d - 1]
    return float(trace_powers(inv.ffh, frame.n, d)[-1])


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
    within(p, "keep probability", 0.0, 1.0)
    return moment_polynomial(frame, d).evaluate(p)


def erased_operators(frame: Frame, masks: np.ndarray):
    """Yield B x m x m stacks S[b] = F diag(mask_b) F' for consecutive blocks of
    the (trials, n) 0/1 mask rows: one GEMM of the masks onto the n rank-one
    products f_k f_k', B as large as OPERATOR_BLOCK_BYTES allows (at least 1).

    tr(S[b]^d) = tr(G_S^d), and the top min(|S|, m) eigenvalues of S[b] are
    those of the kept-column Gram submatrix G_S.
    """
    f = frame.entries
    m, n = f.shape
    outer = (f.T[:, :, None] * f.T.conj()[:, None, :]).reshape(n, m * m)
    # complex entries are read as (re, im) float pairs, so the masks stay
    # real and the product is one real GEMM of twice the width
    outer = np.ascontiguousarray(outer).view(np.float64)
    rows = max(1, OPERATOR_BLOCK_BYTES // (8 * n + f.itemsize * m * m))
    for start in range(0, masks.shape[0], rows):
        block = masks[start : start + rows].astype(np.float64) @ outer
        yield block.view(f.dtype).reshape(-1, m, m)


def _erased_trace_powers(frame: Frame, masks: np.ndarray, d_max: int) -> np.ndarray:
    """(1/n) tr(G_S^d) per mask row, d = 1..d_max, as a (d_max, trials) array."""
    blocks = [trace_powers(ops, frame.n, d_max) for ops in erased_operators(frame, masks)]
    return np.concatenate(blocks, axis=1)


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
        within(p, "keep probability", 0.0, 1.0)
        n = self.n
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
        vals = _erased_trace_powers(frame, masks, d_max)
        ks = masks.sum(axis=1)
        for k in np.unique(ks):
            sel = ks == k
            for j in range(d_max):
                partial[int(k)][j].append(math.fsum(vals[j][sel]))
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


def montecarlo_moment(frame: Frame, model: ErasureModel, d: int, trials: int) -> MomentEstimate:
    """Average (1/n) tr((G_S)^k), k = 1..d, over i.i.d. Bernoulli(p) keep patterns.

    One mask draw and one erased-trace pass serve every order, each as a d = k
    call would; trial t's pattern depends only on model.seed and t (counter-derived).
    """
    d = integer(d, "moment order")
    masks = keep_masks(model.seed, trials, frame.n, model.p)
    trials = len(masks)
    rows = _erased_trace_powers(frame, masks, d)
    stderrs = [float(r.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0 for r in rows]
    return MomentEstimate(tuple(float(r.mean()) for r in rows), tuple(stderrs), trials)


def subset_rms(frame: Frame, p: float) -> float:
    """Squared rms correlation of the erased frame, normalized by the
    expected subset size k = p n:  (m_2 / p - 1) / (k - 1).

    At p = 1 this reduces to the full-frame rms_sq from coherence().
    """
    k = p * frame.n
    if k <= 1.0:
        raise ValueError(f"expected subset size p*n must exceed 1, got {k}")
    m2 = expected_moment(frame, p, 2)
    return (m2 / p - 1.0) / (k - 1.0)

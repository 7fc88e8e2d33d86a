"""Empirical spectra of erased subframes and comparison to the MANOVA law.

Each trial keeps a Bernoulli(p) subset S of columns and takes the
eigenvalues of the |S|-by-|S| Gram submatrix G_S, read off the m-by-m erased
frame operator F D_S F' with one batched eigen-solve per block of
erasure_moments.erased_operators, checked in two of the block's scratch
stacks.  Since rank(G_S) <= m, only the top min(|S|, m) eigenvalues carry
mass; pooling exactly those matches the min(p, gamma) normalization of the
MANOVA law while keeping sums of d-th powers equal to the full-trace moments
(structural zeros from erased columns never enter the pool).

pooled_subset_eigenvalues takes that pool straight from the batched solve,
in trial order, without building one Spectrum per trial; it is the array
pool_eigenvalues(subset_spectrum_samples(...), m) returns, and the route the
CLI's KS column takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import integer
from .erasure_moments import ErasureModel, erased_operators
from .frames import Frame, gram  # noqa: F401 (bench/tracing.py wraps gram)
from .manova import ManovaParams, cdf_many, support
from .rng import keep_masks

_HERMITIAN_TOL = 1e-10
_PSD_CLAMP = 1e-9
_CHECK_RTOL = 1e-8
_JUMP_RTOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues in nonincreasing order plus the source matrix shape."""

    values: np.ndarray
    source_dims: tuple


def _checked_eigvalsh(stack: np.ndarray, psd: bool, mag=None, diff=None) -> np.ndarray:
    """Eigenvalues of each matrix of a nonempty B x k x k stack, each row
    nonincreasing, after the checks that hermitian_eigenvalues documents; the
    checks write into mag (real) and diff (stack's dtype) if given."""
    mag = np.abs(stack, out=mag)
    scale = np.maximum(1.0, mag.max(axis=(1, 2)))
    if not np.isfinite(scale).all():
        raise ValueError("matrix entries must be finite")
    fro2 = np.einsum("bij,bij->b", mag, mag)
    diff = np.conjugate(stack.swapaxes(1, 2), out=diff)
    skew = np.abs(np.subtract(stack, diff, out=diff), out=mag).max(axis=(1, 2))
    if np.any(skew > _HERMITIAN_TOL * scale):
        raise ValueError("matrix is not Hermitian within tolerance")
    vals = np.linalg.eigvalsh(stack)[:, ::-1]
    tr = np.einsum("bii->b", stack).real
    if np.any(np.abs(vals.sum(axis=1) - tr) > _CHECK_RTOL * np.maximum(1.0, np.abs(tr))):
        raise ValueError("eigenvalue sum disagrees with trace")
    if np.any(np.abs((vals**2).sum(axis=1) - fro2) > _CHECK_RTOL * np.maximum(1.0, fro2)):
        raise ValueError("eigenvalue square sum disagrees with Frobenius norm")
    if psd:
        low = float(vals[:, -1].min())
        if low < -_PSD_CLAMP:
            raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {low:.3e})")
        np.clip(vals, 0.0, None, out=vals)
    return vals


def hermitian_eigenvalues(a, psd: bool = False) -> Spectrum:
    """Eigenvalues of a Hermitian matrix, sorted nonincreasing.

    Every call verifies the spectrum against the matrix as np.result_type(a,
    np.float64) (an integer, boolean or float32 one as float64, complex64 as
    complex128): sum of eigenvalues vs trace and sum of squares vs squared
    Frobenius norm, both to 1e-8 relative.  Non-finite entries are rejected.
    With psd=True round-off negatives in [-1e-9, 0) are clamped to 0 and
    anything more negative is rejected (Gram-type inputs are positive semidefinite).
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a, np.float64), copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    if a.shape[0] == 0:
        return Spectrum(values=np.zeros(0), source_dims=(0, 0))
    vals = _checked_eigvalsh(a[None], psd)[0]
    vals.setflags(write=False)
    return Spectrum(values=vals, source_dims=a.shape)


def _subset_tops(frame: Frame, model: ErasureModel, trials: int) -> tuple:
    """(tops, k): the trials x m checked eigenvalues of the erased frame
    operators, each row nonincreasing, and the kept-column count |S| per trial."""
    masks = keep_masks(model.seed, trials, frame.n, model.p)
    blocks = erased_operators(frame, masks, (np.float64, frame.entries.dtype))
    tops = np.concatenate([_checked_eigvalsh(ops, True, mag, diff) for ops, mag, diff in blocks])
    return tops, masks.sum(axis=1)


def subset_spectrum_samples(frame: Frame, model: ErasureModel, trials: int) -> list:
    """One Spectrum of the kept-column Gram submatrix per trial: the top
    min(|S|, m) eigenvalues, checked as by hermitian_eigenvalues(psd=True),
    then the structural zeros.

    Deterministic per (model.seed, trial index); empty subsets yield empty
    spectra, recorded rather than skipped.
    """
    tops, ks = _subset_tops(frame, model, trials)
    out = []
    for k, top in zip(ks.tolist(), tops):
        vals = np.zeros(k)
        vals[: min(k, frame.m)] = top[:k]
        vals.setflags(write=False)
        out.append(Spectrum(values=vals, source_dims=(k, k)))
    return out


def pooled_subset_eigenvalues(frame: Frame, model: ErasureModel, trials: int) -> np.ndarray:
    """The top min(|S|, m) eigenvalues of every trial's kept-column Gram
    submatrix, concatenated in trial order: the same array as
    pool_eigenvalues(subset_spectrum_samples(frame, model, trials), frame.m)."""
    tops, ks = _subset_tops(frame, model, trials)
    return tops[np.arange(frame.m) < ks[:, None]]


def pool_eigenvalues(spectra, m: int) -> np.ndarray:
    """Concatenate the top min(k, m) eigenvalues of each k-point spectrum."""
    m = integer(m, "m")
    parts = [s.values[:m] for s in spectra]
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts)


def ks_distance(pooled, params: ManovaParams) -> float:
    """Sup distance between the empirical CDF of pooled eigenvalues and the
    MANOVA(gamma, p) law.

    The reference law may carry point masses (support(params).jumps), so the
    supremum is also evaluated from the left at each of them.
    """
    xs = np.array(pooled, dtype=float).reshape(-1)
    nq = xs.size
    if nq == 0:
        raise ValueError("empty eigenvalue pool")
    if not np.isfinite(xs).all():
        raise ValueError("eigenvalue pool must be finite")
    sup = support(params)
    jumps = [loc for loc, _ in sup.jumps]
    # a value within round-off of a jump of the law sits on it
    for jump in jumps:
        xs[np.abs(xs - jump) <= _JUMP_RTOL * np.maximum(1.0, np.abs(xs))] = jump
    xs.sort()
    # Both CDFs are monotone step/continuous mixtures, so the supremum is
    # attained at (a one-sided limit of) a jump point of either: the sample
    # values, the law's atom, and its degenerate-bulk step locations.
    cand = np.unique(np.concatenate([xs, [0.0, sup.r_minus, sup.atom_location]]))
    emp_le = np.searchsorted(xs, cand, side="right") / nq
    emp_lt = np.searchsorted(xs, cand, side="left") / nq
    # the law's left limit differs from its CDF only at its jumps
    ref_le = cdf_many(cand, params)
    ref_lt = ref_le.copy()
    at = np.isin(cand, jumps)
    ref_lt[at] = cdf_many(cand[at], params, left=True)
    return max(float(np.max(np.abs(emp_le - ref_le))), float(np.max(np.abs(emp_lt - ref_lt))))

"""Unit-norm frames, Gram matrices, coherence, and frame constructions.

A frame is an m-by-n matrix (n >= m) whose columns are unit-norm vectors in
R^m or C^m.  This module provides the Frame/GramMatrix containers, the
classical coherence measures with their Welch floor, tightness and
equiangularity predicates, two exact ETF families (simplex and a
difference-set harmonic family), random frames, an alternating-projection
map onto the uniform tight frames, and a JSON/CSV file format.

All functions are pure; Frame and GramMatrix are immutable after
construction and safe to share across threads (a Frame caches its
Gram-derived invariants on first use; a race only computes them twice).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .rng import make_rng

# Structural checks (unit norms, Gram diagonal) are held to NORM_TOL;
# classification checks (is_utf / is_etf) default to the looser CLASS_TOL so
# they tolerate rounding accumulated inside constructions.
NORM_TOL = 1e-10
CLASS_TOL = 1e-8

REAL = "real"
COMPLEX = "complex"


@dataclass(frozen=True)
class Frame:
    """Immutable m-by-n matrix with unit-norm columns.

    field is "real" or "complex"; entries is float64 or complex128
    accordingly, columns are the frame vectors.  Entries must be finite.
    """

    field: str
    entries: np.ndarray

    def __post_init__(self):
        if self.field not in (REAL, COMPLEX):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")
        ent = np.asarray(self.entries)
        if ent.ndim != 2:
            raise ValueError("entries must be a 2-D matrix")
        if self.field == REAL:
            if np.iscomplexobj(ent):
                raise ValueError("real frame with complex entries")
            ent = ent.astype(np.float64, copy=True)
        else:
            ent = ent.astype(np.complex128, copy=True)
        m, n = ent.shape
        if m < 1 or n < m:
            raise ValueError(f"need n >= m >= 1, got m={m}, n={n}")
        if not np.isfinite(ent).all():
            raise ValueError("entries must be finite")
        norms = np.linalg.norm(ent, axis=0)
        worst = float(np.max(np.abs(norms - 1.0)))
        if worst > NORM_TOL:
            raise ValueError(f"column norms deviate from 1 by {worst:.3e} (tol {NORM_TOL:.0e})")
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def invariants(self) -> FrameInvariants:
        """Gram-derived invariants, built on first use and kept: the frame is read-only."""
        return frame_invariants(self)


@dataclass(frozen=True)
class GramMatrix:
    """n-by-n cross-correlation matrix, exactly Hermitian with unit diagonal."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        ent = np.asarray(self.entries)
        if ent.shape != (self.n, self.n):
            raise ValueError("Gram entries must be n x n")
        ent = ent.copy()
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)


@dataclass(frozen=True)
class CoherenceReport:
    """Squared rms and max cross-correlation plus the Welch floor (n-m)/((n-1)m)."""

    rms_sq: float
    max_sq: float
    welch_floor: float


def welch_floor(m: int, n: int) -> float:
    """Classical lower bound on squared rms/max coherence; 0 when n <= 1."""
    if n <= 1:
        return 0.0
    return (n - m) / ((n - 1) * m)


def trace_powers(a: np.ndarray, n: int, d_max: int) -> np.ndarray:
    """(1/n) tr(a^d) for d = 1..d_max by the chain cur = cur @ a: shape
    (d_max,) for one square matrix, (d_max, B) for a B x m x m stack."""
    out, cur = [np.trace(a, axis1=-2, axis2=-1).real], a
    for _ in range(d_max - 1):
        cur = cur @ a
        out.append(np.trace(cur, axis1=-2, axis2=-1).real)
    return np.array(out) / n


@dataclass(frozen=True)
class FrameInvariants:
    """What moments, bounds and predicates read: traces[d-1] = (1/n) tr((FF')^d)
    for d <= 4; over off-diagonal Gram entries c, a22, s4 and q are (1/n) sum
    |c|^2, (1/n) sum |c|^4 and (1/n) sum_i (sum_j |c_ij|^2)^2, rms_sq/max_sq
    the mean/max |c|^2 and etf_gap max ||c|^2 - welch_floor| (0 at n = 1);
    utf_residual is the Frobenius norm of FF' - (n/m) I."""

    gram: GramMatrix
    ffh: np.ndarray
    traces: tuple
    a22: float
    s4: float
    q: float
    rms_sq: float
    max_sq: float
    etf_gap: float
    utf_residual: float


def frame_invariants(frame: Frame) -> FrameInvariants:
    """One Gram product and one FF' power chain; Frame.invariants caches the result."""
    ent, m, n = frame.entries, frame.m, frame.n
    g = ent.conj().T @ ent
    upper = np.triu(g, 1)
    g = upper + upper.conj().T + np.eye(n, dtype=g.dtype)
    ffh = ent @ ent.conj().T
    ffh.setflags(write=False)
    sq = np.abs(g) ** 2
    off = sq[~np.eye(n, dtype=bool)]  # empty when n = 1
    np.fill_diagonal(sq, 0.0)
    return FrameInvariants(
        gram=GramMatrix(n=n, entries=g),
        ffh=ffh,
        traces=tuple(trace_powers(ffh, n, 4).tolist()),
        a22=float(sq.sum()) / n,
        s4=float((sq**2).sum()) / n,
        q=float((sq.sum(axis=1) ** 2).sum()) / n,
        rms_sq=float(off.sum() / max(n * (n - 1), 1)),
        max_sq=float(off.max(initial=0.0)),
        etf_gap=float(np.max(np.abs(off - welch_floor(m, n)), initial=0.0)),
        utf_residual=float(np.linalg.norm(ffh - (n / m) * np.eye(m))),
    )


def gram(frame: Frame) -> GramMatrix:
    """Cross-correlation matrix G[i,j] = <f_i, f_j> (conjugated in the first slot).

    The diagonal is pinned to exactly 1 and conjugate symmetry is enforced
    structurally (the lower triangle is the conjugate of the upper), so the
    result is Hermitian as stored, not merely up to rounding.
    """
    return frame.invariants.gram


def coherence(frame: Frame) -> CoherenceReport:
    """Squared rms and max absolute cross-correlation over distinct pairs."""
    if frame.n < 2:
        raise ValueError("coherence needs n >= 2")
    inv = frame.invariants
    return CoherenceReport(inv.rms_sq, inv.max_sq, welch_floor(frame.m, frame.n))


def is_utf(frame: Frame, tol: float = CLASS_TOL) -> bool:
    """True when F F' = (n/m) I up to tol (Frobenius, scaled by (n/m) sqrt(m))."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    return frame.invariants.utf_residual <= tol * (frame.n / frame.m) * np.sqrt(frame.m)


def is_etf(frame: Frame, tol: float = CLASS_TOL) -> bool:
    """True when the frame is tight and all |<f_i,f_j>|^2 sit at the Welch floor.

    At n = m the floor is 0 and the condition degenerates to "orthonormal
    basis", which is what the uniform formula below checks.  is_utf checks tol.
    """
    return is_utf(frame, tol) and frame.invariants.etf_gap <= tol


def _normalize_columns(ent: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(ent, axis=0)
    if np.any(norms <= 1e-14):
        raise ValueError("cannot normalize a zero column")
    return ent / norms


def random_frame(m: int, n: int, field: str = REAL, seed: int = 0) -> Frame:
    """I.i.d. standard Gaussian entries with columns renormalized to unit norm.

    Deterministic given (m, n, field, seed); see rng.make_rng for the
    generator contract.
    """
    if m < 1 or n < m:
        raise ValueError(f"need n >= m >= 1, got m={m}, n={n}")
    rng = make_rng(seed)
    if field == REAL:
        ent = rng.standard_normal((m, n))
    elif field == COMPLEX:
        ent = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    else:
        raise ValueError(f"unknown field {field!r}")
    return Frame(field=field, entries=_normalize_columns(ent))


def _helmert_basis(n: int) -> np.ndarray:
    """(n-1) x n orthonormal basis of the orthogonal complement of the ones vector."""
    h = np.zeros((n - 1, n))
    for k in range(1, n):
        h[k - 1, :k] = 1.0
        h[k - 1, k] = -k
        h[k - 1] /= np.sqrt(k * (k + 1))
    return h


def simplex_etf(m: int) -> Frame:
    """Regular simplex ETF: n = m+1 real vectors with constant correlation -1/m.

    The n standard basis vectors are projected onto the complement of the
    all-ones direction, renormalized, and expressed in a fixed (Helmert)
    orthonormal basis of that complement.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = m + 1
    proj = np.eye(n) - np.full((n, n), 1.0 / n)
    cols = _normalize_columns(proj)
    ent = _helmert_basis(n) @ cols
    return Frame(field=REAL, entries=_normalize_columns(ent))


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def harmonic_etf(q: int) -> Frame:
    """Difference-set harmonic ETF with n = q, m = (q+1)/2 for prime q = 3 (mod 4).

    Rows of the q-point unitary DFT indexed by {0} together with the
    quadratic residues mod q; that index set is a difference set precisely
    for q = 3 (mod 4), which makes the column correlations equimodular.
    """
    if not _is_prime(q) or q % 4 != 3:
        raise ValueError(f"q must be prime with q = 3 (mod 4), got {q}")
    residues = sorted({(k * k) % q for k in range(1, q)})
    rows = np.array([0] + residues)
    cols = np.arange(q)
    ent = np.exp(-2j * np.pi * np.outer(rows, cols) / q) / np.sqrt(q)
    return Frame(field=COMPLEX, entries=_normalize_columns(ent))


def repeated_onb(m: int, copies: int = 2) -> Frame:
    """copies side-by-side copies of the standard basis of R^m (a UTF, not an ETF)."""
    if m < 1 or copies < 1:
        raise ValueError("need m >= 1 and copies >= 1")
    ent = np.hstack([np.eye(m)] * copies)
    return Frame(field=REAL, entries=ent)


@dataclass(frozen=True)
class NearestUtfResult:
    """Last iterate of the alternating projection plus its tightness residual."""

    frame: Frame
    residual: float
    iterations: int
    converged: bool


def nearest_utf(frame: Frame, max_iters: int = 500, tol: float = 1e-9) -> NearestUtfResult:
    """Alternate between the closest tight frame (polar factor scaled so
    F F' = (n/m) I) and column renormalization until the Frobenius residual
    of the tightness condition drops to tol.

    Non-convergence is reported through converged=False; the last iterate is
    returned either way.
    """
    if max_iters < 1 or tol <= 0:
        raise ValueError("need max_iters >= 1 and tol > 0")
    m, n = frame.m, frame.n
    ent = np.array(frame.entries)
    cov, residual = frame.invariants.ffh, frame.invariants.utf_residual
    iters = 0
    while residual > tol and iters < max_iters:
        w, u = np.linalg.eigh(cov)
        if w[0] <= 1e-12 * w[-1]:
            raise ValueError("frame does not span R^m / C^m; tight projection undefined")
        inv_sqrt = (u * (w ** -0.5)) @ u.conj().T
        ent = np.sqrt(n / m) * (inv_sqrt @ ent)
        ent = _normalize_columns(ent)
        iters += 1
        cov = ent @ ent.conj().T
        residual = float(np.linalg.norm(cov - (n / m) * np.eye(m)))
    out = Frame(field=frame.field, entries=ent)
    return NearestUtfResult(frame=out, residual=residual, iterations=iters, converged=residual <= tol)


# ---------------------------------------------------------------------------
# File format.  JSON: {"field": "real"|"complex", "m": .., "n": .., "data":
# row-major rows, complex entries as [re, im], then the extra keys}, laid out
# byte for byte as json.dumps(obj, indent=1) + "\n".  Floats are written with
# float.__repr__ (shortest round-trip), so saved frames reload bit-identically,
# signed zeros included.  CSV is accepted for real frames only (m rows by n
# columns).
# ---------------------------------------------------------------------------

_FRAME_KEYS = ("field", "m", "n", "data")


def frame_from_json_obj(obj) -> Frame:
    if not isinstance(obj, dict):
        raise ValueError("frame JSON must be an object")
    field, data = obj["field"], obj["data"]
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError("frame data must be a list of rows")
    try:
        m, n = int(obj["m"]), int(obj["n"])
        if len(data) != m or any(len(row) != n for row in data):
            raise ValueError("data shape does not match declared (m, n)")
        raw = np.array(data, dtype=np.float64)
    except TypeError as exc:
        raise ValueError(f"frame m, n and entries must be numbers ({exc})") from None
    if field == REAL:
        ent = raw
    elif field == COMPLEX:
        if raw.shape != (m, n, 2):
            raise ValueError("complex data entries must be [re, im] pairs")
        # reinterpret each (re, im) pair in place: re + 1j*im would turn a
        # -0.0 real part into +0.0
        ent = raw.view(np.complex128)[..., 0]
    else:
        raise ValueError(f"unknown field {field!r}")
    return Frame(field=field, entries=ent)


def save_frame(frame: Frame, path: str | Path, extra: dict | None = None) -> None:
    """Write frame (and the top-level keys of extra after it) as frame JSON.

    The bytes equal json.dumps({"field", "m", "n", "data", **extra},
    indent=1) + "\n"; the data array is streamed one row at a time, so no
    text or nested list of the whole frame is held in memory.
    """
    extra = extra or {}
    if any(k in extra for k in _FRAME_KEYS):
        raise ValueError(f"extra keys must not replace the frame keys {_FRAME_KEYS}")
    # json lays out everything but the data array; "data": null marks its
    # place, and at one space of indent it cannot match a nested key
    marker = '\n "data": null'
    head, tail = json.dumps(
        {"field": frame.field, "m": frame.m, "n": frame.n, "data": None, **extra}, indent=1
    ).split(marker)
    if frame.field == REAL:
        rows, cell = frame.entries, "{}"
    else:
        rows, cell = frame.entries.view(np.float64), "[\n    {},\n    {}\n   ]"
    row_text = "[\n   " + ",\n   ".join([cell] * frame.n) + "\n  ]"
    with open(path, "w") as fh:
        fh.write(head + '\n "data": [')
        for i, row in enumerate(rows):
            text = row_text.format(*map(float.__repr__, row.tolist()))
            fh.write((",\n  " if i else "\n  ") + text)
        fh.write("\n ]" + tail + "\n")


def read_frame(path: str | Path) -> tuple[Frame, dict]:
    """One parse of a frame file: the frame and the file's other top-level
    keys (none for CSV)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with open(path, newline="") as fh:
            rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
        return Frame(field=REAL, entries=np.array(rows, dtype=np.float64)), {}
    obj = json.loads(path.read_text())
    frame = frame_from_json_obj(obj)
    return frame, {k: v for k, v in obj.items() if k not in _FRAME_KEYS}


def load_frame(path: str | Path) -> Frame:
    return read_frame(path)[0]

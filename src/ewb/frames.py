"""Unit-norm frames, Gram matrices, coherence, and frame constructions.

A frame is an m-by-n matrix (n >= m) whose columns are unit-norm vectors in
R^m or C^m.  This module provides the Frame container, its Gram matrix as a
plain read-only array, the classical coherence measures with their Welch
floor, tightness and equiangularity predicates, two exact ETF families
(simplex and a difference-set harmonic family), random frames, an
alternating-projection map onto the uniform tight frames, and a JSON/CSV
file format.

All functions are pure; a Frame is immutable after construction and safe to
share across threads (it caches its Gram-derived invariants on first use, and
the Gram matrix on first request; a race only computes them twice).
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._checks import integer, sizes
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
        # over the float view, a complex entry is its (re, im) pair: no temporary
        pairs = ent.view(np.float64).reshape(m, n, -1)
        norms = np.sqrt(np.einsum("ijk,ijk->j", pairs, pairs))
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


def trace_powers(a: np.ndarray, n: int, d_max: int, scratch=None, out=None) -> np.ndarray:
    """(1/n) tr(a^d) for d = 1..d_max of a Hermitian a: shape (d_max,) for one
    square matrix, (d_max, B) for a B x m x m stack.

    Only a^2 .. a^h with h = ceil(d_max/2) are multiplied out, h - 1 matrix
    products into the scratch stacks (shaped like a; allocated if not given);
    out, if given, takes the result.  For d >= 2, tr(a^d) = tr(a^i a^j) with
    i = ceil(d/2), j = floor(d/2); a^j is Hermitian, so this is one dot product
    of the two powers' float64 views.  tr(a) is the einsum "...ii->..." of its
    real part.  Each value depends on d alone, not on d_max.
    """
    dtype, halves = np.result_type(a, np.float64), (d_max + 1) // 2 - 1
    scratch = np.empty((halves,) + a.shape, dtype) if scratch is None else scratch
    out = np.empty((d_max,) + a.shape[:-2]) if out is None else out
    powers = [np.ascontiguousarray(a, dtype=dtype)]
    for s in scratch:
        powers.append(np.matmul(powers[-1], a, out=s))
    # each matrix as one float64 row, a complex entry as its (re, im) pair
    flat = [x.view(np.float64).reshape(x.shape[:-2] + (-1,)) for x in powers]
    np.einsum("...ii->...", a.real, out=out[0, ...])
    for d in range(2, d_max + 1):
        np.einsum("...k,...k->...", flat[(d + 1) // 2 - 1], flat[d // 2 - 1], out=out[d - 1, ...])
    for row in out.reshape(d_max, -1):
        row /= n  # row by row: dividing a strided out at once would buffer
    return out


def _mirror(a: np.ndarray) -> np.ndarray:
    """In place, 64 rows at a time: the lower triangle becomes the upper one's conjugate."""
    for i in range(0, len(a), 64):
        j = min(i + 64, len(a))
        below = np.arange(j) < np.arange(i, j)[:, None]
        np.copyto(a[i:j, :j], np.conjugate(a[:j, i:j].T), where=below)
    return a


@dataclass(frozen=True)
class FrameInvariants:
    """What moments, bounds and predicates read: entries and ffh are the frame's
    read-only m x n array and m x m FF'; traces[d-1] = (1/n) tr((FF')^d) for
    d <= 4; over off-diagonal Gram entries c, a22, s4 and q are (1/n) sum |c|^2,
    (1/n) sum |c|^4 and (1/n) sum_i (sum_j |c_ij|^2)^2, rms_sq/max_sq the
    mean/max |c|^2 and etf_gap max ||c|^2 - welch_floor| (0 at n = 1);
    utf_residual is the Frobenius norm of FF' - (n/m) I.  The n x n Gram
    F'F is built on the first read of gram."""

    entries: np.ndarray
    ffh: np.ndarray
    traces: tuple
    a22: float
    s4: float
    q: float
    rms_sq: float
    max_sq: float
    etf_gap: float
    utf_residual: float

    @cached_property
    def gram(self) -> np.ndarray:
        """The read-only Gram F'F: the full product, mirrored, its diagonal exactly 1."""
        g = _mirror(self.entries.conj().T @ self.entries)
        np.fill_diagonal(g, 1.0)
        g += 0.0  # no -0.0 entry: the Gram's bits are those of upper + upper' + I
        g.setflags(write=False)
        return g


def frame_invariants(frame: Frame) -> FrameInvariants:
    """The FF' terms (one product FF'FF' for the traces), then the |c|^2 terms
    from one n x n float buffer, never the Gram; Frame.invariants caches it."""
    ent, m, n = frame.entries, frame.m, frame.n
    ffh = ent @ ent.conj().T
    ffh.setflags(write=False)
    traces = tuple(trace_powers(ffh, n, 4).tolist())
    utf_residual = float(np.linalg.norm(ffh - (n / m) * np.eye(m)))
    if frame.field == REAL:
        sq = ent.T @ ent  # numpy takes syrk here, which mirrors its triangle itself
    else:  # row blocks of the upper triangle: |c| has the bits of the full product's
        sq = np.empty((n, n))
        for i in range(0, n, 64):
            np.abs(ent[:, i:i + 64].conj().T @ ent[:, i:], out=sq[i:i + 64, i:])
        _mirror(sq)
    np.square(sq, out=sq)  # ** 2 of a float array is np.square, so the bits agree
    np.fill_diagonal(sq, 0.0)
    a22, q = float(sq.sum()) / n, float((sq.sum(axis=1) ** 2).sum()) / n
    # row k of gaps: the n entries between diagonal entries k and k + 1; packed
    # in place, 64 rows at a time, they are the off-diagonal |c|^2 in row order
    flat = sq.reshape(-1)
    gaps, packed = flat[1:].reshape(n - 1, n + 1)[:, :n], flat[:n * (n - 1)].reshape(n - 1, n)
    chunks = [slice(i, i + 64) for i in range(0, n - 1, 64)]
    for c in chunks:  # each chunk's target ends before the next chunk's source begins
        packed[c] = gaps[c]
    off = flat[:n * (n - 1)]  # empty when n = 1
    max_sq, floor = float(off.max(initial=0.0)), welch_floor(m, n)
    # the rounded mean of nearly equal values can exceed their max
    rms_sq = min(float(off.sum() / max(n * (n - 1), 1)), max_sq)
    # x - floor rounds monotonically in x: max |x - floor| is at an extreme of off
    etf_gap = max(float(off.max(initial=floor)) - floor, floor - float(off.min(initial=floor)))
    for c in reversed(chunks):
        gaps[c] = packed[c]
    np.fill_diagonal(sq, 0.0)
    s4 = float(np.square(sq, out=sq).sum()) / n  # sq becomes |c|^4
    return FrameInvariants(ent, ffh, traces, a22, s4, q, rms_sq, max_sq, etf_gap, utf_residual)


def gram(frame: Frame) -> np.ndarray:
    """Cross-correlation matrix G[i,j] = <f_i, f_j> (conjugated in the first slot)
    as an n x n array, built on the first request and then cached with the
    frame's invariants, read-only, so every call returns the same object.

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
    return np.divide(ent, norms, out=ent)  # in place: every caller passes a fresh array


def random_frame(m: int, n: int, field: str = REAL, seed: int = 0) -> Frame:
    """I.i.d. standard Gaussian entries with columns renormalized to unit norm.

    Deterministic given (m, n, field, seed); see rng.make_rng for the
    generator contract.
    """
    m, n = sizes(m, n)
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
    n = integer(m, "m") + 1
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
    q = integer(q, "q")
    if not _is_prime(q) or q % 4 != 3:
        raise ValueError(f"q must be prime with q = 3 (mod 4), got {q}")
    residues = sorted({(k * k) % q for k in range(1, q)})
    ent = -2j * np.pi * np.outer([0] + residues, np.arange(q))
    np.exp(np.divide(ent, q, out=ent), out=ent)  # exp(ent / q) / sqrt(q), in place
    ent /= np.sqrt(q)
    return Frame(field=COMPLEX, entries=_normalize_columns(ent))


def repeated_onb(m: int, copies: int = 2) -> Frame:
    """copies side-by-side copies of the standard basis of R^m (a UTF, not an ETF)."""
    ent = np.hstack([np.eye(integer(m, "m"))] * integer(copies, "copies"))
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
    max_iters = integer(max_iters, "max_iters")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"need 0 < tol < inf, got {tol}")
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
# signed zeros included.  The reader decodes a window of _WINDOW characters and
# one data row at a time.  CSV is accepted for real frames only (m rows, n columns).
# ---------------------------------------------------------------------------

_FRAME_KEYS = ("field", "m", "n", "data")
_JSON, _SPACE = json.JSONDecoder(), json.decoder.WHITESPACE.match
_WINDOW = 1 << 17  # characters of a frame file decoded at a time


def _char(s: str, idx: int):
    """The character after the whitespace at s[idx] ("" at the end), and the
    index past it and the whitespace after it."""
    idx = _SPACE(s, idx).end()
    return s[idx:idx + 1], _SPACE(s, idx + 1).end()


def _value(s: str, idx: int):
    """The JSON value at s[idx] and the _char after it, and the index past both."""
    value, idx = _JSON.raw_decode(s, idx)
    c, idx = _char(s, idx)
    return (value, c), idx


def _row(s: str, idx: int):
    """_value, the value as a float64 data row ((n, 1) numbers, (n, 2) [re, im]
    pairs) or the ValueError of anything else; only this row's objects are built."""
    (row, sep), end = _value(s, idx)
    pairs = type(row) is list and set(map(type, row)) == {list}
    values = list(itertools.chain.from_iterable(row)) if pairs else row
    # type(), not isinstance(): numpy would read "1.0" and JSON true (a bool) as numbers
    if (type(row) is not list or set(map(type, values)) - {int, float}
            or pairs and set(map(len, row)) != {2}):
        return (ValueError("frame data must be rows of JSON numbers or of [re, im] pairs"), sep), end
    try:
        return (np.array(values, dtype=np.float64).reshape(-1, 1 + pairs), sep), end
    except OverflowError as exc:
        return (ValueError(f"frame entries must be finite numbers ({exc})"), sep), end


def _decode_frame_json(fh) -> dict:
    """The top-level object of the frame JSON in the text file fh, read by json's
    scanner through a window of _WINDOW characters and "data" row by row (_row), so
    it accepts what json.loads does.  A parse that fails or ends within 2 characters
    of the window's end (1e+ of 1e+400 reads as 1) is retried on twice the window, to EOF."""
    buf, idx, eof = "", 0, False

    def take(scan, want=_WINDOW):
        nonlocal buf, idx, eof
        while True:
            while len(buf) - idx < want and not eof:  # top up, dropping what was read
                chunk = fh.read(max(want - len(buf) + idx, _WINDOW // 4))
                buf, idx, eof = buf[idx:] + chunk, 0, not chunk
            try:
                value, end = scan(buf, idx)
                if eof or end < len(buf) - 2:
                    idx = end
                    return value
            except ValueError:
                if eof:
                    raise
            want = 2 * (len(buf) - idx)

    def items(close, item):  # of the array or object whose opening bracket was read
        out, sep = [], "," if buf[idx:idx + 1] != close else take(_char)
        while sep == ",":
            value, sep = item()
            out.append(value)
        if sep != close:
            raise json.JSONDecodeError(f"Expecting ',' or {close!r}", buf, idx)
        return out

    def pair():
        key, c = take(_value)
        if type(key) is not str or c != ":":
            raise json.JSONDecodeError("Expecting a property name and ':'", buf, idx)
        if key == "data" and buf[idx:idx + 1] == "[" and take(_char):
            return (key, items("]", lambda: take(_row))), take(_char)
        value, sep = take(_value)
        return (key, value), sep

    if take(_char) != "{":  # a leading BOM is not whitespace either
        raise ValueError("frame JSON must be an object")
    obj = dict(items("}", pair))
    if take(_char):
        raise json.JSONDecodeError("Extra data", buf, idx)
    return obj


def save_frame(frame: Frame, path: str | Path, extra: dict | None = None) -> None:
    """Write frame (and the top-level keys of extra after it) as frame JSON.

    The bytes equal json.dumps({"field", "m", "n", "data", **extra},
    indent=1) + "\n"; the data array is streamed one row at a time, so no
    text or nested list of the whole frame is held in memory.  A NaN or
    infinite value in extra raises ValueError before the file is created.
    """
    extra = extra or {}
    if any(k in extra for k in _FRAME_KEYS):
        raise ValueError(f"extra keys must not replace the frame keys {_FRAME_KEYS}")
    # json lays out everything but the data array; "data": null marks its
    # place, and at one space of indent it cannot match a nested key
    marker = '\n "data": null'
    head, tail = json.dumps(
        {"field": frame.field, "m": frame.m, "n": frame.n, "data": None, **extra},
        indent=1, allow_nan=False,
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
    """One parse of a frame file: the frame and the file's other top-level keys
    (none for CSV).  Peak memory: a window of the text, then twice the entries."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with open(path, newline="") as fh:
            rows = [np.fromiter(map(float, r), np.float64, len(r))[:, None] for r in csv.reader(fh) if r]
        field, obj = REAL, {}
    else:
        try:
            with open(path) as fh:  # the encoding and newlines of Path.read_text
                obj = _decode_frame_json(fh)
        except RecursionError:
            raise ValueError("frame JSON nests too deeply") from None
        field, m, n, rows = obj["field"], obj["m"], obj["n"], obj.pop("data")
        if field not in (REAL, COMPLEX):
            raise ValueError(f"unknown field {field!r}")
        # type(), not isinstance(): JSON true and false load as bool, an int subclass
        if type(m) is not int or type(n) is not int:
            raise ValueError(f"frame m and n must be JSON integers, got {m!r} and {n!r}")
        if not isinstance(rows, list):
            raise ValueError("frame data must be a list of rows")
        for row in rows:
            if isinstance(row, ValueError):
                raise row
        if len(rows) != m or any(row.shape != (n, 1 + (field == COMPLEX)) for row in rows):
            raise ValueError(f"data shape does not match declared (m, n) and {field} entries")
    raw = np.stack(rows)
    del rows  # Frame copies raw: the rows go first
    # a complex entry reinterprets its (re, im) pair in place: re + 1j*im
    # would turn a -0.0 real part into +0.0
    ent = raw if field == REAL else raw.view(np.complex128)
    return Frame(field, ent[..., 0]), {k: v for k, v in obj.items() if k not in _FRAME_KEYS}


def load_frame(path: str | Path) -> Frame:
    return read_frame(path)[0]

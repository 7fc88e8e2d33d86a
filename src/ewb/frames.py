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
import hashlib
import itertools
import json
import os
import stat
import struct
from contextlib import contextmanager, suppress
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
            ent = ent.astype(np.complex128, order="C", copy=True)
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

    @cached_property
    def gram(self) -> np.ndarray:
        """The read-only Gram F'F: its upper triangle, mirrored, its diagonal exactly 1."""
        g = _gram_op(self.entries, np.positive)
        np.fill_diagonal(g, 1.0)
        g += 0.0  # no -0.0 entry: the Gram's bits are those of upper + upper' + I
        g.setflags(write=False)
        return g


@dataclass(frozen=True)
class CoherenceReport:
    """Squared rms and max cross-correlation plus the Welch floor (n-m)/((n-1)m)."""

    rms_sq: float
    max_sq: float
    welch_floor: float


def welch_floor(m: int, n: int) -> float:
    """Classical lower bound on squared rms/max coherence, n >= m >= 1; 0 at n = 1."""
    m, n = sizes(m, n)
    if n == 1:
        return 0.0
    return (n - m) / ((n - 1) * m)


def trace_powers(a: np.ndarray, n: int, orders, scratch=None, out=None) -> np.ndarray:
    """(1/n) tr(a^d) for each d in orders (positive integers) of a Hermitian a:
    shape (len(orders),) for one square matrix, (len(orders), B) for a
    B x m x m stack, row r holding order orders[r].

    Only a^2 .. a^h with h = ceil(max(orders)/2) are multiplied out, h - 1
    matrix products into the scratch stacks (shaped like a; allocated if not
    given); out, if given, takes the result.  For d >= 2, with i = ceil(d/2)
    and j = floor(d/2), the value is one dot product of the float64 views of
    a^i and a^j: Re tr(a^i (a^j)^H), which equals tr(a^d) only up to round-off,
    as a computed a (an erased_operators stack) is only that close to Hermitian.
    tr(a) is the einsum "...ii->..." of its real part.  Each value depends on d
    alone, not on the other orders asked for.
    """
    dtype, halves = np.result_type(a, np.float64), (max(orders) + 1) // 2 - 1
    scratch = np.empty((halves,) + a.shape, dtype) if scratch is None else scratch
    out = np.empty((len(orders),) + a.shape[:-2]) if out is None else out
    powers = [np.ascontiguousarray(a, dtype=dtype)]
    for s in scratch:
        powers.append(np.matmul(powers[-1], a, out=s))
    # each matrix as one float64 row, a complex entry as its (re, im) pair
    flat = [x.view(np.float64).reshape(x.shape[:-2] + (-1,)) for x in powers]
    for r, d in enumerate(orders):
        if d == 1:
            np.einsum("...ii->...", a.real, out=out[r, ...])
        else:
            np.einsum("...k,...k->...", flat[(d + 1) // 2 - 1], flat[d // 2 - 1], out=out[r, ...])
    for row in out.reshape(len(orders), -1):
        row /= n  # row by row: dividing a strided out at once would buffer
    return out


def _gram_op(ent: np.ndarray, op) -> np.ndarray:
    """op(F'F) for a ufunc op, its lower triangle the conjugate of the upper: numpy's
    syrk for real F; for complex F, op of the 64-row blocks F[:, i:i+64]' F[:, i:] of
    the upper triangle, each mirrored once filled (the full product's bits)."""
    if ent.dtype.kind != "c":
        g = ent.T @ ent  # syrk mirrors its triangle itself
        return op(g, out=g)
    out = np.empty((ent.shape[1],) * 2, op(ent[:0, 0]).dtype)
    for i in range(0, len(out), 64):
        j = min(i + 64, len(out))
        op(ent[:, i:j].conj().T @ ent[:, i:], out=out[i:j, i:])
        below = np.arange(j) < np.arange(i, j)[:, None]
        np.copyto(out[i:j, :j], np.conjugate(out[:j, i:j].T), where=below)
    return out


@dataclass(frozen=True)
class FrameInvariants:
    """What moments, bounds and predicates read: ffh is the frame's read-only
    m x m FF' and n its frame size; over off-diagonal Gram entries c, a22, s4
    and q are (1/n) sum |c|^2, (1/n) sum |c|^4 and (1/n) sum_i (sum_j
    |c_ij|^2)^2, rms_sq/max_sq the mean/max |c|^2 and etf_gap max ||c|^2 -
    welch_floor| (0 at n = 1); utf_residual is the Frobenius norm of
    FF' - (n/m) I."""

    ffh: np.ndarray
    n: int
    a22: float
    s4: float
    q: float
    rms_sq: float
    max_sq: float
    etf_gap: float
    utf_residual: float

    @cached_property
    def traces(self) -> tuple:
        """traces[d-1] = (1/n) tr((FF')^d) for d <= 4 (one product FF'FF'), built
        on first read, so predicates and coherence never multiply it out."""
        return tuple(trace_powers(self.ffh, self.n, (1, 2, 3, 4)).tolist())


def frame_invariants(frame: Frame) -> FrameInvariants:
    """The FF' terms, then the |c|^2 terms from one n x n float buffer, never
    the Gram; Frame.invariants caches it."""
    ent, m, n = frame.entries, frame.m, frame.n
    ffh = ent @ ent.conj().T
    ffh.setflags(write=False)
    utf_residual = float(np.linalg.norm(ffh - (n / m) * np.eye(m)))
    sq = _gram_op(ent, np.abs)
    np.square(sq, out=sq)  # ** 2 of a float array is np.square, so the bits agree
    np.fill_diagonal(sq, 0.0)
    total, max_sq, floor = float(sq.sum()), float(sq.max()), welch_floor(m, n)
    a22, q = total / n, float((sq.sum(axis=1) ** 2).sum()) / n
    # the rounded mean of nearly equal values can exceed their max
    rms_sq = min(total / max(n * (n - 1), 1), max_sq)
    # x - floor rounds monotonically in x, so max |x - floor| is at the buffer's
    # max or min; a diagonal at the floor adds only |floor - floor| = 0
    np.fill_diagonal(sq, floor)
    etf_gap = max(float(sq.max()) - floor, floor - float(sq.min()))
    np.fill_diagonal(sq, 0.0)
    s4 = float(np.square(sq, out=sq).sum()) / n  # sq becomes |c|^4
    return FrameInvariants(ffh, n, a22, s4, q, rms_sq, max_sq, etf_gap, utf_residual)


def gram(frame: Frame) -> np.ndarray:
    """Cross-correlation matrix G[i,j] = <f_i, f_j> (conjugated in the first slot)
    as an n x n array: Frame.gram, built on the first request and then cached,
    read-only, so every call returns the same object.

    The diagonal is pinned to exactly 1 and conjugate symmetry is enforced
    structurally (the lower triangle is the conjugate of the upper), so the
    result is Hermitian as stored, not merely up to rounding.
    """
    return frame.gram


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

    Rows of the q-point DFT indexed by {0} and the quadratic residues mod q,
    a difference set precisely for q = 3 (mod 4), so the column correlations
    are equimodular.  The entries are q roots of unity taken from one table,
    exp(-2 pi i t / q) / sqrt(m) at t = r k mod q: no column is renormalized.
    """
    q = integer(q, "q")
    if not _is_prime(q) or q % 4 != 3:
        raise ValueError(f"q must be prime with q = 3 (mod 4), got {q}")
    rows = [0] + sorted({(k * k) % q for k in range(1, q)})
    roots = np.exp(-2j * np.pi * np.arange(q) / q) / np.sqrt(len(rows))
    # no q whose m x q int64 index array fits in memory can overflow r k
    return Frame(field=COMPLEX, entries=roots.take(np.outer(rows, np.arange(q, dtype=np.int64)) % q))


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
    ent, iters = np.array(frame.entries), 0
    while True:
        cov = ent @ ent.conj().T
        residual = float(np.linalg.norm(cov - (n / m) * np.eye(m)))
        if not residual > tol or iters >= max_iters:
            break
        w, u = np.linalg.eigh(cov)
        if w[0] <= 1e-12 * w[-1]:
            raise ValueError("frame does not span R^m / C^m; tight projection undefined")
        inv_sqrt = (u * (w ** -0.5)) @ u.conj().T
        ent = _normalize_columns(np.sqrt(n / m) * (inv_sqrt @ ent))
        iters += 1
    out = Frame(field=frame.field, entries=ent)
    return NearestUtfResult(frame=out, residual=residual, iterations=iters, converged=residual <= tol)


# ---------------------------------------------------------------------------
# File format.  JSON: {"field": "real"|"complex", "m": .., "n": .., "data":
# row-major rows, complex entries as [re, im], then the extra keys}, laid out
# byte for byte as json.dumps(obj, indent=1) + "\n".  Floats are written with
# float.__repr__ (shortest round-trip), so saved frames reload bit-identically,
# signed zeros included; the writer keeps a memo of reprs of at most two rows'
# values (_row_texts).  The reader decodes a window of _WINDOW characters and
# one data row at a time.  CSV is accepted for real frames only (m rows, n columns).
# Every route of read_frame (sidecar, JSON, CSV) gives a record, the top-level keys
# less "data", and the (m, n) entries; read_frame alone builds the Frame from them.
#
# Beside a JSON frame file in a regular file, save_frame writes the sidecar
# <file>.ewbcache, a cache of what reading the file gives: _CACHE_HEAD (magic,
# the key, the length of the record), the record (the saved object's JSON with
# "data": null: field, m, n and the extra keys), then the entries as
# little-endian float64, a complex entry as its (re, im) pair.  The key is one
# SHA-256 over the sidecar's bytes after the key, whose end its record fixes, then
# the file's.  read_frame takes the frame only from a regular-file sidecar that is
# whole and keyed to itself and the file, and parses the file otherwise; it never
# writes, and deleting a sidecar is safe.
# ---------------------------------------------------------------------------

_FRAME_KEYS = ("field", "m", "n", "data")
_JSON, _SPACE = json.JSONDecoder(), json.decoder.WHITESPACE.match
_WINDOW = 1 << 17  # characters of a frame file decoded at a time
_CACHE_HEAD, _CACHE_MAGIC = struct.Struct("<8s32sQ"), b"ewbframe"
_KEY_END = struct.calcsize("<8s32s")  # the key covers the sidecar's bytes from here on
_CHUNK = 1 << 16  # bytes of a frame file hashed at a time


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


def _frame_record(record):
    """The field, m and n of a frame record, a JSON object whose field is "real" or
    "complex" and whose m and n are JSON integers >= 1; else ValueError."""
    if type(record) is not dict:
        raise ValueError("frame JSON must be an object")
    field, m, n = record.get("field"), record.get("m"), record.get("n")
    if field not in (REAL, COMPLEX):
        raise ValueError(f"unknown field {field!r}")
    # type(), not isinstance(): JSON true and false load as bool, an int subclass
    if type(m) is not int or type(n) is not int or m < 1 or n < 1:
        raise ValueError(f"frame m and n must be JSON integers >= 1, got {m!r} and {n!r}")
    return field, m, n


def _decode_frame_json(fh):
    """The top-level object of the frame JSON in the text file fh less its "data",
    and the checked (m, n) entries of "data", stacked once fh is closed.  json's
    scanner reads it through a window of _WINDOW characters and "data" row by row
    (_row), so it accepts what json.loads does.  A parse that fails or ends within 2
    characters of the window's end (1e+ of 1e+400 reads as 1) is retried on twice
    the window, to EOF."""
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
    buf = ""  # the window and the file's buffers go before the rows are stacked
    fh.close()
    missing = [k for k in _FRAME_KEYS if k not in obj]
    if missing:
        raise ValueError(f"frame JSON is missing the key(s) {', '.join(map(repr, missing))}")
    field, m, n = _frame_record(obj)
    rows = obj.pop("data")
    if not isinstance(rows, list):
        raise ValueError("frame data must be a list of rows")
    for row in rows:
        if isinstance(row, ValueError):
            raise row
    if len(rows) != m or any(row.shape != (n, 1 + (field == COMPLEX)) for row in rows):
        raise ValueError(f"data shape does not match declared (m, n) and {field} entries")
    raw = np.stack(rows)
    # a complex entry reinterprets its (re, im) pair in place: re + 1j*im
    # would turn a -0.0 real part into +0.0
    return obj, (raw if field == REAL else raw.view(np.complex128))[..., 0]


@contextmanager
def writing(path: str | Path, mode: str = "w", newline: str | None = None):
    """path opened for writing in mode; an exception inside the block removes path
    before it propagates if it is a regular file, so a write that does not finish
    leaves no file, and a symlink, device or pipe (/dev/stdout) stays."""
    fh = open(path, mode, newline=newline)
    try:
        with fh:
            yield fh
    except BaseException:
        with suppress(FileNotFoundError):
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.unlink(path)
        raise


def _cache_path(path) -> Path:
    return Path(f"{os.fspath(path)}.ewbcache")


def _write_cache(cache: Path, key: bytes, body) -> None:
    """The sidecar, _CACHE_MAGIC, key and the buffers of body, written whole to a
    temporary file created afresh (a link or pipe at its name is removed first) and
    renamed onto cache; an OSError leaves no sidecar and is not raised."""
    tmp = Path(f"{cache}.tmp")
    with suppress(OSError):
        tmp.unlink(missing_ok=True)
        with writing(tmp, "xb") as fh:
            fh.writelines((_CACHE_MAGIC, key, *body))
            fh.close()  # the bytes reach the file before its name does
            os.replace(tmp, cache)


def _row_texts(rows: np.ndarray, row_text: str):
    """The bytes of row_text.format(*map(float.__repr__, row)) for each float64
    row of rows, as one join of the texts around row_text's "{}"s and the
    entries' reprs.  A memo maps float64 bits to their repr; a row that misses
    first empties it if it holds more values than a row, then formats only its
    own missing distinct values, so the memo never holds more than two rows'."""
    texts = row_text.split("{}")
    parts, memo = [""] * (2 * len(texts) - 1), {}
    parts[::2] = texts  # the reprs go in the odd slots
    for row in rows:
        bits = row.view(np.uint64).tolist()
        try:
            parts[1::2] = map(memo.__getitem__, bits)
        except KeyError:
            if len(memo) > len(bits):
                memo.clear()
            missing = {b: x for b, x in zip(bits, row.tolist()) if b not in memo}
            memo.update(zip(missing, map(float.__repr__, missing.values())))
            parts[1::2] = map(memo.__getitem__, bits)
        yield "".join(parts).encode()


def save_frame(frame: Frame, path: str | Path, extra: dict | None = None) -> None:
    """Write frame (and the top-level keys of extra after it) as frame JSON,
    and, when path is a regular file, its sidecar <path>.ewbcache.

    The bytes equal json.dumps({"field", "m", "n", "data", **extra},
    indent=1) + "\n"; the data array is streamed one row at a time, so no
    text or nested list of the whole frame is held in memory (_row_texts).
    A NaN or infinite value in extra raises ValueError before the file is
    created; a write that fails after it removes the file.  Any old sidecar
    is removed before the file opens, so a failed save leaves neither; a
    sidecar that cannot be written is left out and the save stands.
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
    record = (head + marker + tail).encode()
    body = (struct.pack("<Q", len(record)) + record,  # the sidecar after its key
            np.ascontiguousarray(frame.entries, frame.entries.dtype.newbyteorder("<")))
    cache, key = _cache_path(path), hashlib.sha256(body[0])
    key.update(body[1])
    with suppress(OSError):  # a sidecar that stays is keyed to the old bytes
        cache.unlink(missing_ok=True)
    with writing(path, "wb") as fh:

        def write(text):  # bytes-like; json escapes non-ASCII, so the text is its bytes
            fh.write(text)
            key.update(text)

        write((head + '\n "data": [').encode())
        for i, text in enumerate(_row_texts(rows, ",\n  " + row_text)):
            write(memoryview(text)[not i:])  # no comma before the first row
        write(("\n ]" + tail + "\n").encode())
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    if regular:
        _write_cache(cache, key.digest(), body)


def _cached(fh, path: Path):
    """The sidecar's record and its entries' (m, n) view, if fh (the frame file) and
    the sidecar of path (opened without blocking) are regular files and the sidecar
    is whole and keyed to itself and the file; else None, with fh at its start."""
    try:
        with open(os.open(_cache_path(path), os.O_RDONLY | os.O_NONBLOCK), "rb") as cache:
            if not all(stat.S_ISREG(os.fstat(f.fileno()).st_mode) for f in (fh, cache)):
                return None
            blob = cache.read()
        magic, key, size = _CACHE_HEAD.unpack_from(blob)
        start = _CACHE_HEAD.size + size
        record = json.loads(blob[_CACHE_HEAD.size:start])
        field, m, n = _frame_record(record)
        # a body of another length than the record's m x n entries does not reshape
        entries = np.frombuffer(blob, "<c16" if field == COMPLEX else "<f8", offset=start).reshape(m, n)
    except (OSError, ValueError, RecursionError, struct.error):
        return None
    hashed = hashlib.sha256(memoryview(blob)[_KEY_END:])
    while chunk := fh.buffer.read(_CHUNK):
        hashed.update(chunk)
    fh.seek(0)
    if magic != _CACHE_MAGIC or hashed.digest() != key:
        return None
    return record, entries


def read_frame(path: str | Path) -> tuple[Frame, dict]:
    """One parse of a frame file: the frame and the file's other top-level keys
    (none for CSV).  Peak memory: a window of the text, then twice the entries.
    A JSON file that save_frame wrote is read from its sidecar instead, while
    the sidecar's key matches the file and the sidecar.  Each route gives a
    record and the entries, and the one Frame built here checks them all."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with open(path, newline="") as fh:
            entries = np.stack([np.fromiter(map(float, r), float, len(r)) for r in csv.reader(fh) if r])
        record = {"field": REAL}
    else:
        try:
            with open(path) as fh:  # the encoding and newlines of Path.read_text
                record, entries = _cached(fh, path) or _decode_frame_json(fh)
        except RecursionError:
            raise ValueError("frame JSON nests too deeply") from None
    return Frame(record["field"], entries), {k: v for k, v in record.items() if k not in _FRAME_KEYS}


def load_frame(path: str | Path) -> Frame:
    return read_frame(path)[0]

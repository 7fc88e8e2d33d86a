import csv
import dataclasses
import hashlib
import json
import os
import re
import struct
import threading
from contextlib import suppress

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import ewb
from ewb import (
    Frame,
    coherence,
    gram,
    harmonic_etf,
    is_etf,
    is_utf,
    load_frame,
    nearest_utf,
    random_frame,
    repeated_onb,
    save_frame,
    simplex_etf,
    welch_floor,
)
from ewb import frames
from ewb.frames import trace_powers

from conftest import peak_bytes


def test_frame_rejects_non_unit_columns():
    with pytest.raises(ValueError, match="column norms"):
        Frame(field="real", entries=np.array([[1.0, 0.5], [0.0, 0.5]]))


def test_frame_rejects_bad_shape_and_field():
    with pytest.raises(ValueError):
        Frame(field="real", entries=np.eye(3)[:, :2])  # n < m
    with pytest.raises(ValueError):
        Frame(field="imaginary", entries=np.eye(2))
    with pytest.raises(ValueError):
        Frame(field="real", entries=np.eye(2).astype(complex))
    with pytest.raises(ValueError, match="2-D"):
        Frame(field="real", entries=np.ones(3))


def test_frame_rejects_non_finite_entries():
    ent = np.array([[1.0, 0.0, np.nan], [0.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        Frame(field="real", entries=ent)


def test_invariants_are_cached():
    f = random_frame(3, 5, "complex", seed=2)
    assert f.invariants is f.invariants
    assert gram(f) is gram(f)


def test_frame_entries_are_immutable():
    f = random_frame(2, 4, "real", seed=0)
    with pytest.raises(ValueError):
        f.entries[0, 0] = 7.0
    # a Fortran-order complex input, as from x.conj().T, is stored in C order
    x = harmonic_etf(7).entries
    adjoint = np.ascontiguousarray(x.conj().T)
    for ent in (np.asfortranarray(x), adjoint.conj().T):
        assert not ent.flags.c_contiguous
        stored = Frame("complex", ent).entries
        assert np.array_equal(stored, x) and stored.flags.c_contiguous


def test_gram_identity_frame():
    g = gram(Frame(field="real", entries=np.eye(3)))
    assert np.array_equal(g, np.eye(3))


def test_gram_mercedes_benz_offdiagonal(mercedes_benz):
    g = gram(mercedes_benz)
    off = g[~np.eye(3, dtype=bool)]
    assert_allclose(off, -0.5, atol=1e-12)


def test_gram_simplex_offdiagonal_magnitude():
    for m in (2, 3, 5):
        g = gram(simplex_etf(m))
        off = np.abs(g[~np.eye(m + 1, dtype=bool)])
        assert_allclose(off, 1.0 / m, atol=1e-12)
        # |c|^2 equals the Welch floor at n = m + 1
        assert_allclose((1.0 / m) ** 2, welch_floor(m, m + 1), atol=1e-15)


def test_gram_is_exactly_hermitian_with_unit_diagonal():
    f = random_frame(3, 7, "complex", seed=11)
    g = gram(f)
    assert np.array_equal(g, g.conj().T)
    assert np.array_equal(np.diag(g), np.ones(7))


def test_coherence_identity_frame():
    rep = coherence(Frame(field="real", entries=np.eye(4)))
    assert rep.rms_sq == 0.0 and rep.max_sq == 0.0 and rep.welch_floor == 0.0


def test_coherence_mercedes_benz(mercedes_benz):
    rep = coherence(mercedes_benz)
    assert_allclose([rep.rms_sq, rep.max_sq, rep.welch_floor], 0.25, atol=1e-12)


def test_coherence_repeated_onb():
    rep = coherence(repeated_onb(2, 2))
    assert_allclose(rep.max_sq, 1.0, atol=1e-12)
    assert_allclose(rep.welch_floor, 1.0 / 3.0, atol=1e-15)


def test_coherence_needs_two_columns():
    with pytest.raises(ValueError):
        coherence(Frame(field="real", entries=np.ones((1, 1))))
    # the floor itself is defined there, and 0
    assert welch_floor(1, 1) == 0.0


@pytest.mark.parametrize("m, n, error", [
    (0, 5, "m must be an integer in 1..inf, got 0"),
    (5, 3, "need n >= m >= 1, got m=5, n=3"),
    (2.5, 4, "m must be an integer in 1..inf, got 2.5"),
])
def test_welch_floor_checks_the_sizes(m, n, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        welch_floor(m, n)


def test_is_utf_examples():
    assert is_utf(Frame(field="real", entries=np.eye(3)))
    assert is_utf(repeated_onb(2, 2))
    assert not is_utf(random_frame(4, 8, "real", seed=1))
    with pytest.raises(ValueError):
        is_utf(repeated_onb(2, 2), tol=0.0)


def test_predicates_reject_nan_tolerance():
    for predicate in (is_utf, is_etf):
        with pytest.raises(ValueError):
            predicate(repeated_onb(2, 2), tol=float("nan"))


def test_is_etf_examples(mercedes_benz):
    assert is_etf(mercedes_benz)
    assert not is_etf(repeated_onb(2, 2))
    assert is_etf(harmonic_etf(7))
    # n = m degenerates to "orthonormal basis"
    assert is_etf(Frame(field="real", entries=np.eye(3)))
    assert not is_etf(random_frame(3, 3, "real", seed=2))


def test_etf_implies_utf_and_floor_equality():
    for f in (simplex_etf(4), harmonic_etf(11)):
        assert is_etf(f) and is_utf(f)
        rep = coherence(f)
        assert abs(rep.max_sq - rep.welch_floor) <= 1e-8


def test_random_frame_scalar_case():
    r = random_frame(1, 1, "real", seed=3)
    assert_allclose(abs(r.entries[0, 0]), 1.0, atol=1e-12)
    c = random_frame(1, 1, "complex", seed=3)
    assert_allclose(abs(c.entries[0, 0]), 1.0, atol=1e-12)


def test_random_frame_deterministic():
    a = random_frame(4, 8, "real", seed=1)
    b = random_frame(4, 8, "real", seed=1)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, random_frame(4, 8, "real", seed=2).entries)


def test_random_frame_unit_norms():
    f = random_frame(4, 8, "complex", seed=5)
    assert_allclose(np.linalg.norm(f.entries, axis=0), 1.0, atol=1e-12)


def test_random_frame_validation():
    with pytest.raises(ValueError):
        random_frame(0, 3, "real", seed=0)
    with pytest.raises(ValueError):
        random_frame(4, 3, "real", seed=0)
    with pytest.raises(ValueError, match="unknown field"):
        random_frame(2, 3, "quaternion", seed=0)


_SIZE_ROUTES = {
    "random_frame m": (lambda v: random_frame(v, 4, "real", seed=1), 2),
    "random_frame n": (lambda v: random_frame(2, v, "real", seed=1), 4),
    "simplex_etf m": (simplex_etf, 3),
    "repeated_onb m": (lambda v: repeated_onb(v, 2), 3),
    "repeated_onb copies": (lambda v: repeated_onb(2, v), 3),
    "harmonic_etf q": (harmonic_etf, 7),
    "nearest_utf max_iters":
        (lambda v: nearest_utf(random_frame(2, 4, "real", seed=0), max_iters=v).frame, 3),
}


@pytest.mark.parametrize("route", sorted(_SIZE_ROUTES))
def test_every_construction_takes_only_integral_sizes(route):
    fn, good = _SIZE_ROUTES[route]
    for bad in (good + 0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="must be an integer in"):
            fn(bad)
    # an integral float is the integer, down to the bytes of the frame
    assert fn(float(good)).entries.tobytes() == fn(good).entries.tobytes()


def test_simplex_m1_is_antipodal_pair():
    f = simplex_etf(1)
    assert f.m == 1 and f.n == 2
    assert_allclose(np.sort(f.entries[0]), [-1.0, 1.0], atol=1e-12)
    assert_allclose(gram(f)[0, 1], -1.0, atol=1e-12)


def test_simplex_m2_matches_mercedes_benz_class():
    assert is_etf(simplex_etf(2))


def test_simplex_m5_floor():
    rep = coherence(simplex_etf(5))
    assert_allclose(rep.welch_floor, 1.0 / 25.0, atol=1e-15)
    assert_allclose(rep.max_sq, 1.0 / 25.0, atol=1e-12)


def test_harmonic_examples():
    f3 = harmonic_etf(3)
    assert (f3.m, f3.n) == (2, 3) and is_etf(f3)
    f7 = harmonic_etf(7)
    assert (f7.m, f7.n) == (4, 7)
    assert_allclose(coherence(f7).max_sq, 1.0 / 8.0, atol=1e-12)


@pytest.mark.parametrize("q", [1, 5, 4, 9, 15, 21])
def test_harmonic_rejects_bad_q(q):
    # a unit, composite, even, 1 mod 4, or composite 3 mod 4
    with pytest.raises(ValueError):
        harmonic_etf(q)


def test_shipped_etf_families_classify_as_etf():
    for m in range(1, 65):
        assert is_etf(simplex_etf(m), tol=1e-8), f"simplex m={m}"
    for q in (3, 7, 11, 19, 23, 31, 43):
        assert is_etf(harmonic_etf(q), tol=1e-8), f"harmonic q={q}"


@pytest.mark.parametrize("q", [3, 7, 11, 23, 131])
def test_harmonic_entries_are_q_roots_of_unity(q):
    f = harmonic_etf(q)
    assert np.unique(f.entries).size <= q
    rows = [0] + sorted({(k * k) % q for k in range(1, q)})
    unreduced = np.exp(-2j * np.pi * np.outer(rows, np.arange(q)) / q) / np.sqrt(f.m)
    assert float(np.max(np.abs(f.entries - unreduced))) <= 1e-12
    assert float(np.max(np.abs(np.linalg.norm(f.entries, axis=0) - 1.0))) <= 1e-14


def test_nearest_utf_fixed_point():
    f = harmonic_etf(7)
    res = nearest_utf(f)
    assert res.converged and res.iterations == 0
    assert float(np.max(np.abs(res.frame.entries - f.entries))) <= 1e-12


def test_nearest_utf_random_converges():
    res = nearest_utf(random_frame(3, 6, "real", seed=7), tol=1e-9)
    assert res.converged and res.residual <= 1e-9
    assert is_utf(res.frame)
    assert_allclose(np.linalg.norm(res.frame.entries, axis=0), 1.0, atol=1e-12)


def test_nearest_utf_square_orthonormalizes():
    res = nearest_utf(random_frame(4, 4, "real", seed=9))
    e = res.frame.entries
    assert_allclose(e @ e.T, np.eye(4), atol=1e-9)


def test_nearest_utf_validation():
    f = random_frame(2, 4, "real", seed=0)
    with pytest.raises(ValueError):
        nearest_utf(f, max_iters=0)
    with pytest.raises(ValueError):
        nearest_utf(f, tol=0.0)
    # two equal columns in R^2 span only a line
    with pytest.raises(ValueError, match="does not span"):
        nearest_utf(Frame(field="real", entries=np.array([[1.0, 1.0], [0.0, 0.0]])))


def test_json_roundtrip_real(tmp_path):
    f = random_frame(3, 6, "real", seed=13)
    path = tmp_path / "f.json"
    save_frame(f, path)
    g = load_frame(path)
    assert g.field == "real"
    assert np.array_equal(f.entries, g.entries)


def test_json_roundtrip_complex(tmp_path):
    f = harmonic_etf(11)
    path = tmp_path / "f.json"
    save_frame(f, path, extra={"construction": {"kind": "harmonic", "q": 11}})
    g = load_frame(path)
    assert g.field == "complex"
    assert np.array_equal(f.entries, g.entries)


def test_csv_import(tmp_path):
    f = random_frame(2, 5, "real", seed=4)
    path = tmp_path / "f.csv"
    np.savetxt(path, f.entries, delimiter=",", fmt="%.17g")
    g = load_frame(path)
    assert np.array_equal(f.entries, g.entries)


def csv_reference(path):
    """The rows of a CSV frame file as lists of float(cell), stacked."""
    with open(path, newline="") as fh:
        return np.array([[float(v) for v in row] for row in csv.reader(fh) if row])


def test_csv_frame_has_the_bits_of_float_in_bounded_memory(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text(" -0.0,1e0\n\n1_0e-1 ,-0\n")  # what float() reads, signed zeros kept
    assert frames.read_frame(path)[0].entries.tobytes() == csv_reference(path).tobytes()
    ent = np.random.default_rng(5).standard_normal((64, 2000))
    np.savetxt(path, ent / np.linalg.norm(ent, axis=0), delimiter=",", fmt="%.17g")
    got, extra = frames.read_frame(path)
    assert got.entries.tobytes() == csv_reference(path).tobytes() and extra == {}
    # a list of lists of Python floats took 6.1x
    assert peak_bytes(frames.read_frame, path) <= 2.5 * got.entries.nbytes


@pytest.mark.parametrize("text", ["1,0\n0\n", "", "\n\n", "1,x\n0,1\n", "1,\n0,1\n"],
                         ids=["ragged", "empty", "blank lines", "non-numeric", "empty cell"])
def test_csv_rejects_ragged_empty_and_non_numeric_files(tmp_path, text):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        frames.read_frame(path)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": "real", "m": 2, "n": 3, "data": [[1.0, 0.0]]}))
    with pytest.raises(ValueError):
        load_frame(path)
    path.write_text(json.dumps({"field": "octonion", "m": 1, "n": 1, "data": [[1.0]]}))
    with pytest.raises(ValueError):
        load_frame(path)


@pytest.mark.parametrize("obj", [
    [1, 2],
    {"field": "real", "m": 2, "n": 2, "data": 5},
    {"field": "real", "m": 1, "n": 1, "data": [5]},
    {"field": "real", "m": None, "n": 1, "data": [[1.0]]},
    {"field": "real", "m": 1, "n": 1, "data": [[{}]]},
    {"field": "real", "m": 1, "n": 1, "data": [["1.0"]]},
    {"field": "real", "m": 1, "n": 2, "data": [[1.0, True]]},
    {"field": "complex", "m": 1, "n": 1, "data": [[["1.0", 0.0]]]},
    {"field": "complex", "m": 1, "n": 1, "data": [[[1.0, False]]]},
    {"field": "real", "m": 1.9, "n": 1, "data": [[1.0]]},
    {"field": "real", "m": 1, "n": True, "data": [[1.0]]},
    {"field": "real", "m": 1, "n": 1, "data": [[10**400]]},
    {"field": "real", "m": 1, "n": 1, "data": [[[1.0]]]},
    {"field": "complex", "m": 1, "n": 2, "data": [[[1.0, 0.0, 0.0], [1.0]]]},
])
def test_load_rejects_malformed_structure_as_value_error(tmp_path, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError):
        load_frame(path)


def test_load_rejects_deeply_nested_json_as_value_error(deep_frame_file):
    with pytest.raises(ValueError, match="nests too deeply"):
        load_frame(deep_frame_file)
    with pytest.raises(ValueError, match="nests too deeply"):
        frames.read_frame(deep_frame_file)


def json_dumps_layout(frame, extra=None):
    """Reference bytes of a frame file: the whole object through json.dumps."""
    if frame.field == "real":
        data = [[float(v) for v in row] for row in frame.entries]
    else:
        data = [[[float(v.real), float(v.imag)] for v in row] for row in frame.entries]
    obj = {"field": frame.field, "m": frame.m, "n": frame.n, "data": data, **(extra or {})}
    return json.dumps(obj, indent=1) + "\n"


def assert_saved_as_json_dumps(frame, path, extra=None):
    save_frame(frame, path, extra=extra)
    assert path.read_text() == json_dumps_layout(frame, extra)
    for sidecar in (True, False):  # read from the sidecar, then by the parser
        if not sidecar:
            frames._cache_path(path).unlink()
        back = load_frame(path)
        assert back.field == frame.field
        # tobytes compares sign bits, which array_equal does not
        assert back.entries.tobytes() == frame.entries.tobytes()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    m=st.integers(min_value=1, max_value=5),
    extra=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    field=st.sampled_from(["real", "complex"]),
)
def test_property_save_frame_bytes_match_json_dumps(tmp_path, m, extra, seed, field):
    assert_saved_as_json_dumps(random_frame(m, m + extra, field, seed=seed), tmp_path / "f.json")


@pytest.mark.parametrize("field, entries", [
    ("real", [[1.0]]),
    ("complex", [[complex(-0.0, 1.0)]]),
    ("real", [[-0.0, 1.0], [-1.0, -0.0]]),
    ("complex", [[complex(1.0, -0.0), complex(-0.0, -0.0)],
                 [complex(-0.0, 0.0), complex(-0.0, -1.0)]]),
])
def test_save_frame_small_and_signed_zero_frames(tmp_path, field, entries):
    assert_saved_as_json_dumps(Frame(field=field, entries=np.array(entries)), tmp_path / "f.json")


def special_entries_frame(field):
    """Entries whose repr is longest, shortest, signed zero or at the switch
    between positional and exponent notation, with their negatives."""
    xs = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.5]
    for v in (1e-05, 0.0001):
        xs += [np.nextafter(v, 0.0), v, np.nextafter(v, 1.0)]
    xs = np.array(xs + [-x for x in xs])
    if field == "real":
        return Frame("real", np.array([xs, np.sqrt(1.0 - xs * xs)]))
    other = xs[::-1]
    rest = np.sqrt(1.0 - xs * xs - other * other)
    return Frame("complex", np.array([xs + 1j * other, -rest + 1j * np.copysign(0.0, xs)]))


SAVED_FRAMES = {
    "real duplicated columns": lambda: Frame("real", np.hstack([random_frame(3, 5, "real", seed=5).entries] * 2)),
    "complex duplicated columns": lambda: Frame(
        "complex", np.hstack([random_frame(2, 3, "complex", seed=6).entries] * 3)),
    **{f"simplex m = {m}": lambda m=m: simplex_etf(m) for m in (1, 2, 5, 12, 24)},
    **{f"onb {m} x {c}": lambda m=m, c=c: repeated_onb(m, c) for m, c in ((1, 1), (3, 2), (4, 3))},
    **{f"harmonic q = {q}": lambda q=q: harmonic_etf(q) for q in (3, 7, 11, 19, 23, 31)},
    "special real entries": lambda: special_entries_frame("real"),
    "special complex entries": lambda: special_entries_frame("complex"),
}


def rows_texts_memos(rows):
    """_row_texts over float64 rows (the reprs, space separated): each row, its
    text, and a copy of the memo right after it."""
    texts = frames._row_texts(rows, " ".join(["{}"] * rows.shape[1]))
    for row, text in zip(rows, texts):
        yield row, text, dict(texts.gi_frame.f_locals["memo"])


@pytest.mark.parametrize("check", ["chosen", "table", "repr"])
@pytest.mark.parametrize("name", sorted(SAVED_FRAMES))
def test_save_frame_bytes_match_json_dumps_on_each_writer_path(tmp_path, name, check):
    """The one row writer on each frame: the saved file against json.dumps
    ("chosen"), each row against float.__repr__ of its entries ("repr"), and
    the memo ("table"), which maps each row's bits to their reprs and never
    holds more than two rows' values; a simplex frame's rows each add new
    values, so from m = 5 on its memo is emptied."""
    frame = SAVED_FRAMES[name]()
    rows = frame.entries.view(np.float64)
    if check == "chosen":
        assert_saved_as_json_dumps(frame, tmp_path / "f.json", extra={"construction": {"kind": name}})
    elif check == "repr":
        for row, text, _ in rows_texts_memos(rows):
            assert text == " ".join(map(float.__repr__, row.tolist())).encode()
    else:
        sizes = []
        for row, _, memo in rows_texts_memos(rows):
            assert all(memo[b] == repr(x) for b, x in zip(row.view(np.uint64).tolist(), row.tolist()))
            sizes.append(len(memo))
        assert max(sizes) <= 2 * rows.shape[1]
        emptied = any(later < size for size, later in zip(sizes, sizes[1:]))
        assert emptied == (name in ("simplex m = 5", "simplex m = 12", "simplex m = 24"))


@pytest.mark.parametrize("make, bound", [
    (lambda: harmonic_etf(251), 0.25),
    (lambda: harmonic_etf(503), 0.25),
    # the sort and table of its distinct values took 1.12x the file
    (lambda: Frame("real", np.hstack([random_frame(100, 200, "real", seed=3).entries] * 2)), 0.5),
    (lambda: random_frame(64, 400, "complex", seed=4), 0.5),
], ids=["251", "503", "real duplicated columns 100 x 400", "random complex 64 x 400"])
def test_save_frame_memory_is_below_the_file_size(tmp_path, make, bound):
    """The tracemalloc peak of a save that replaces an earlier one (and its
    sidecar): a row's bits, reprs and text, and a memo of at most two rows' values."""
    frame, path = make(), tmp_path / "f.json"
    save_frame(frame, path)
    assert peak_bytes(save_frame, frame, path) <= bound * path.stat().st_size


def test_save_frame_that_fails_mid_write_leaves_no_file(tmp_path, monkeypatch):
    def full_disk(*args, **kwargs):  # a file whose writes after the first fail
        fh = open(*args, **kwargs)
        first = fh.write

        def write(text):
            fh.write = no_space
            return first(text)

        def no_space(text):
            raise OSError(28, "No space left on device")

        fh.write = write
        return fh

    path = tmp_path / "f.json"
    save_frame(random_frame(3, 7, "complex", seed=0), path)  # an earlier save and its sidecar
    monkeypatch.setattr(frames, "open", full_disk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_frame(random_frame(3, 7, "complex", seed=1), path)
    assert list(tmp_path.iterdir()) == []


def test_save_frame_extra_keys_match_json_dumps(tmp_path):
    extra = {
        "construction": {"kind": "harmonic", "q": 11, "params": [1, 2.5, {"deep": [None, True]}]},
        "note": "Welch bound \u2014 erasures, \u00fc, \u2211, \U0001d53d",
        "manifest": {"command": "construct", "params": {"data": None, "tags": []}, "empty": {}},
    }
    assert_saved_as_json_dumps(harmonic_etf(11), tmp_path / "f.json", extra)


def test_save_frame_rejects_extra_replacing_frame_keys(tmp_path):
    with pytest.raises(ValueError, match="frame keys"):
        save_frame(simplex_etf(2), tmp_path / "f.json", extra={"data": []})


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=5),
    extra=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    field=st.sampled_from(["real", "complex"]),
)
# round-off put the mean of the off-diagonal |c|^2 one ulp above their max here
@example(m=1, extra=2, seed=2025574, field="complex")
def test_property_rms_never_below_welch_floor(m, extra, seed, field):
    f = random_frame(m, m + extra, field, seed=seed)
    rep = coherence(f)
    assert rep.max_sq >= rep.rms_sq >= rep.welch_floor - 1e-12
    assert_allclose(np.linalg.norm(f.entries, axis=0), 1.0, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=4),
    extra=st.integers(min_value=0, max_value=4),
    field=st.sampled_from(["real", "complex"]),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    imaginary=st.booleans(),
    data=st.data(),
)
def test_property_non_finite_entries_rejected(m, extra, field, bad, imaginary, data):
    ent = np.array(random_frame(m, m + extra, field, seed=0).entries)
    i = data.draw(st.integers(min_value=0, max_value=m - 1))
    j = data.draw(st.integers(min_value=0, max_value=m + extra - 1))
    if field == "complex" and imaginary:
        ent[i, j] = complex(ent[i, j].real, bad)
    else:
        ent[i, j] = bad
    with pytest.raises(ValueError):
        Frame(field=field, entries=ent)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_gram_is_the_cached_read_only_array(field):
    f = random_frame(3, 7, field, seed=11)
    g = gram(f)
    assert isinstance(g, np.ndarray) and g.shape == (7, 7)
    assert not g.flags.writeable
    assert g is gram(f) is f.gram
    assert np.array_equal(g, g.conj().T)
    assert np.array_equal(np.diag(g), np.ones(7))
    with pytest.raises(ValueError):
        g[0, 1] = 0.0


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0])
def test_nearest_utf_rejects_non_finite_tolerance(tol):
    with pytest.raises(ValueError, match="tol"):
        nearest_utf(random_frame(2, 4, "real", seed=0), tol=tol)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_save_frame_rejects_non_finite_extra_without_a_file(tmp_path, bad):
    path = tmp_path / "f.json"
    with pytest.raises(ValueError):
        save_frame(simplex_etf(2), path, extra={"construction": {"residual": bad}})
    assert not path.exists()


def psd_stack(shape, m, field, seed):
    """Hermitian positive semidefinite m x m matrices X X' stacked to shape."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape + (m, m + 1))
    if field == "complex":
        x = x + 1j * rng.standard_normal(x.shape)
    return x @ np.swapaxes(x, -1, -2).conj()


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("shape", [(), (5,), (2, 3)], ids=["one", "stack", "stack2d"])
@pytest.mark.parametrize("m", [1, 2, 6])
def test_trace_powers_match_eigenvalue_power_sums(field, shape, m):
    a = psd_stack(shape, m, field, seed=m)
    lam = np.linalg.eigvalsh(a)
    for d_max in range(1, 9):
        orders = range(1, d_max + 1)
        want = np.stack([(lam**d).sum(axis=-1) / 7 for d in orders])
        got = trace_powers(a, 7, orders)
        assert got.shape == (d_max,) + shape and got.dtype == np.float64
        assert_allclose(got, want, rtol=1e-13, atol=0)
        assert_allclose(trace_powers(a, 7, (d_max,))[0], want[-1], rtol=1e-13, atol=0)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3)], ids=["one", "stack"])
def test_trace_powers_of_the_zero_matrix_are_zero(dtype, shape):
    for d_max in range(1, 9):
        for orders in (range(1, d_max + 1), (d_max,)):
            got = trace_powers(np.zeros(shape, dtype=dtype), 5, orders)
            assert np.array_equal(got, np.zeros((len(orders),) + shape[:-2]))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("shape", [(), (9,)], ids=["one", "stack"])
def test_trace_powers_depend_on_the_order_alone(field, shape):
    # every order's bits, whatever other orders are asked for and in what order
    a = psd_stack(shape, 5, field, seed=3)
    full = trace_powers(a, 11, range(1, 9))
    for d_max in range(1, 9):
        assert np.array_equal(trace_powers(a, 11, range(1, d_max + 1)), full[:d_max])
        assert np.array_equal(trace_powers(a, 11, (d_max,)), full[d_max - 1 : d_max])
    rng = np.random.default_rng(5)
    for _ in range(20):
        orders = rng.choice(np.arange(1, 9), size=rng.integers(1, 9), replace=False).tolist()
        assert np.array_equal(trace_powers(a, 11, orders), full[np.array(orders) - 1])
    assert np.array_equal(trace_powers(a, 11, [4, 4, 2]), full[[3, 3, 1]])


class CountingArray(np.ndarray):
    """Counts matrix products, `@` and `np.matmul(..., out=)` alike: both reach
    the matmul ufunc through __array_ufunc__."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        CountingArray.products += ufunc is np.matmul
        plain = lambda x: x.view(np.ndarray) if isinstance(x, CountingArray) else x  # noqa: E731
        if "out" in kwargs:
            kwargs["out"] = tuple(plain(x) for x in kwargs["out"])
        return getattr(ufunc, method)(*map(plain, inputs), **kwargs)


@pytest.mark.parametrize("shape", [(), (4,)], ids=["one", "stack"])
def test_trace_powers_multiply_out_only_the_half_powers(shape):
    a = psd_stack(shape, 3, "complex", seed=0).view(CountingArray)
    for d_max in range(1, 9):
        for orders in (range(1, d_max + 1), (d_max,), (1, d_max)):
            CountingArray.products = 0
            trace_powers(a, 3, orders)
            assert CountingArray.products == (d_max + 1) // 2 - 1


def json_loads_frame(text):
    """The reference reader: json.loads of the whole text, then the frame checks
    on the parsed tree (a ValueError, as read_frame raises them)."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("frame JSON must be an object")
    if any(k not in obj for k in ("field", "m", "n", "data")):
        raise ValueError("missing key")
    field, m, n, data = obj["field"], obj["m"], obj["n"], obj["data"]
    if field not in ("real", "complex") or type(m) is not int or type(n) is not int:
        raise ValueError("bad header")
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError("bad data")
    if len(data) != m or any(len(row) != n for row in data):
        raise ValueError("bad shape")
    values = [v for row in data for v in row]
    if field == "complex":
        if any(type(v) is not list or len(v) != 2 for v in values):
            raise ValueError("bad pair")
        values = [x for v in values for x in v]
    if any(type(v) not in (int, float) for v in values):
        raise ValueError("bad entry")
    try:
        raw = np.array(values, dtype=np.float64).reshape(m, n, -1)
    except OverflowError as exc:
        raise ValueError(str(exc)) from None
    ent = raw if field == "real" else raw.view(np.complex128)
    extra = {k: v for k, v in obj.items() if k not in ("field", "m", "n", "data")}
    return Frame(field=field, entries=ent[..., 0]), extra


REAL_1X2 = '"field": "real", "m": 1, "n": 2'
FRAME_TEXTS = {
    # accepted
    "saved layout": None,
    "keys in any order": '{"n": 2, "data": [[1.0, -1]], "field": "real", "m": 1}',
    "data first": '{"data": [[[0.6, 0.8]]], "field": "complex", "m": 1, "n": 1}',
    "extra keys": '{' + REAL_1X2 + ', "data": [[1, 1]], "x": [1, {"y": null}], "z": "s"}',
    "tabs, CR, newlines": '\t{\r\n' + REAL_1X2 + ' ,\n"data"\t:\r[ [1.0 ,\n-1.0 ] ]\r\n}\n\t',
    "duplicate keys": '{' + REAL_1X2 + ', "data": [["x"]], "m": 1, "data": [[1.0, 1.0]]}',
    "duplicate field": '{"field": "real", "m": 1, "n": 1, "data": [[[1.0, -0.0]]], '
                       '"field": "complex", "data": [[[-0.0, -1.0]]]}',
    "signed zeros": '{' + REAL_1X2 + ', "data": [[-0.0, 1.0]]}',
    "int entries": '{' + REAL_1X2 + ', "data": [[1, 0]]}',
    # rejected
    "trailing comma in data": '{' + REAL_1X2 + ', "data": [[1.0, 1.0],]}',
    "trailing comma in object": '{' + REAL_1X2 + ', "data": [[1.0, 1.0]],}',
    "data after the object": '{' + REAL_1X2 + ', "data": [[1.0, 1.0]]} {}',
    "BOM": '\ufeff{' + REAL_1X2 + ', "data": [[1.0, 1.0]]}',
    "NaN": '{' + REAL_1X2 + ', "data": [[NaN, 1.0]]}',
    "Infinity": '{' + REAL_1X2 + ', "data": [[1.0, -Infinity]]}',
    "string entry": '{' + REAL_1X2 + ', "data": [["1.0", 1.0]]}',
    "bool entry": '{' + REAL_1X2 + ', "data": [[true, 1.0]]}',
    "null data": '{' + REAL_1X2 + ', "data": null}',
    "bad row after a good data": '{' + REAL_1X2 + ', "data": [[1.0, 1.0]], "data": [[1, true]]}',
    "ragged rows": '{"field": "real", "m": 2, "n": 2, "data": [[1.0, 0.0], [1.0]]}',
    "3-element pair": '{"field": "complex", "m": 1, "n": 1, "data": [[[1.0, 0.0, 0.0]]]}',
    "pair in a real frame": '{' + REAL_1X2 + ', "data": [[[1.0, 0.0], 1.0]]}',
    "number in a complex frame": '{"field": "complex", "m": 1, "n": 1, "data": [[1.0]]}',
    "int past the float range": '{' + REAL_1X2 + ', "data": [[1' + '0' * 400 + ', 1.0]]}',
    "top-level array": '[1, 2]',
    "missing data": '{' + REAL_1X2 + '}',
    "unquoted key": '{' + REAL_1X2 + ', data: [[1.0, 1.0]]}',
    "missing colon": '{' + REAL_1X2 + ', "data" [[1.0, 1.0]]}',
    "missing comma": '{' + REAL_1X2 + ' "data": [[1.0, 1.0]]}',
    "unclosed data": '{' + REAL_1X2 + ', "data": [[1.0, 1.0]',
    "empty": '',
}


def assert_reads_like_json_loads(path, text):
    """read_frame on text accepts, rejects and returns what json_loads_frame does."""
    path.write_text(text, encoding="utf-8")
    try:
        want = json_loads_frame(text)
    except ValueError:
        with pytest.raises(ValueError):
            frames.read_frame(path)
        return
    got = frames.read_frame(path)
    assert got[0].field == want[0].field
    assert got[0].entries.tobytes() == want[0].entries.tobytes()  # sign bits too
    assert got[1] == want[1] and list(got[1]) == list(want[1])


def frame_text(tmp_path, name):
    """FRAME_TEXTS[name]; for "saved layout", the text save_frame writes."""
    if FRAME_TEXTS[name] is not None:
        return FRAME_TEXTS[name]
    path = tmp_path / "saved.json"
    save_frame(harmonic_etf(7), path, extra={"construction": {"kind": "harmonic", "q": 7}})
    return path.read_text()


@pytest.mark.parametrize("name", sorted(FRAME_TEXTS))
def test_read_frame_matches_json_loads_plus_checks(tmp_path, name):
    assert_reads_like_json_loads(tmp_path / "f.json", frame_text(tmp_path, name))


MUTATIONS = list('{}[],:" \t\r\n-.eE019') + [
    "true", "null", "NaN", "-Infinity", '"data"', '"field"', '"m"', '"n"', "\ufeff", "1e400",
    "1" + "0" * 400, "[1.0, -0.0]", "\\u0061", '"complex"',
]


BASES = st.sampled_from(sorted(k for k, v in FRAME_TEXTS.items() if v))
EDITS = st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(["cut", "insert", "swap"]),
                           st.sampled_from(MUTATIONS)), min_size=1, max_size=3)


def mutated(text, edits):
    for at, kind, token in edits:
        at %= len(text) + 1
        text = text[:at] + ("" if kind == "cut" else token) + text[at + (kind != "insert"):]
    return text


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=BASES, edits=EDITS)
def test_property_read_frame_matches_json_loads_on_mutated_texts(tmp_path, base, edits):
    assert_reads_like_json_loads(tmp_path / "f.json", mutated(FRAME_TEXTS[base], edits))


# windows that cut every token of the small texts somewhere
WINDOWS = [1, 2, 3, 5, 8, 13, 64]


@pytest.mark.parametrize("window", WINDOWS)
def test_windowed_read_matches_json_loads_plus_checks(tmp_path, monkeypatch, window):
    monkeypatch.setattr(frames, "_WINDOW", window)
    for name in sorted(FRAME_TEXTS):
        assert_reads_like_json_loads(tmp_path / "f.json", frame_text(tmp_path, name))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(window=st.sampled_from(WINDOWS), base=BASES, edits=EDITS)
def test_property_windowed_read_matches_json_loads_on_mutated_texts(tmp_path, monkeypatch, window,
                                                                    base, edits):
    monkeypatch.setattr(frames, "_WINDOW", window)
    assert_reads_like_json_loads(tmp_path / "f.json", mutated(FRAME_TEXTS[base], edits))


def read_saved_frame_with_brackets_in_strings(tmp_path, monkeypatch, window, field, sidecar):
    monkeypatch.setattr(frames, "_WINDOW", window)
    frame = random_frame(3, 5, field, seed=window)
    extra = {"note": "]}", "z": ["]}", {"data": "\"]}],", "m": [[1.0]]}], "w": "}\n]"}
    path = tmp_path / "f.json"
    save_frame(frame, path, extra=extra)
    if not sidecar:  # else the reads below take the sidecar, which has no window
        frames._cache_path(path).unlink()
    assert_reads_like_json_loads(path, path.read_text())
    got, got_extra = frames.read_frame(path)
    assert got.entries.tobytes() == frame.entries.tobytes() and got_extra == extra


@pytest.mark.parametrize("window", WINDOWS + [frames._WINDOW])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_windowed_read_of_saved_frames_with_brackets_in_strings(tmp_path, monkeypatch, window, field):
    read_saved_frame_with_brackets_in_strings(tmp_path, monkeypatch, window, field, sidecar=False)


@pytest.mark.parametrize("window", WINDOWS + [frames._WINDOW])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_sidecar_read_of_saved_frames_with_brackets_in_strings(tmp_path, monkeypatch, window, field):
    read_saved_frame_with_brackets_in_strings(tmp_path, monkeypatch, window, field, sidecar=True)


@pytest.mark.parametrize("number, cut", [("1e4002", "1e4"), ("1e+4002", "1e+"), ("-2.5E-400", "-2.5E-")])
def test_every_window_reads_a_number_cut_in_its_exponent(tmp_path, monkeypatch, number, cut):
    # the scanner reads a window cut at "1e+" of 1e+4002 as the number 1: as "n" that
    # would make n an int, as "x" a 1 for inf; the test sees that such cuts happen
    tails = []

    class SpyingDecoder(json.JSONDecoder):
        def raw_decode(self, s, idx=0):
            tails.append(s[idx:])  # the window from the value on
            return super().raw_decode(s, idx)

    monkeypatch.setattr(frames, "_JSON", SpyingDecoder())
    for pad in ("a" * k for k in range(8)):  # moves the number across the window's ends
        for text in ('{"p": "%s", "field": "real", "m": 1, "n": %s, "data": [[1.0]]}' % (pad, number),
                     '{"field": "real", "m": 1, "n": 1, "data": [[1.0]], "p": "%s", "x": %s}' % (pad, number)):
            for window in range(1, len(text) + 2):
                monkeypatch.setattr(frames, "_WINDOW", window)
                assert_reads_like_json_loads(tmp_path / "f.json", text)
    assert cut in tails


def read_frame_peak(path, q, sidecar):
    """tracemalloc peak of read_frame on the saved harmonic ETF of order q, read
    from its sidecar or, with the sidecar deleted, by the parser."""
    save_frame(harmonic_etf(q), path)
    if not sidecar:
        frames._cache_path(path).unlink()
    frames.read_frame(path)
    return peak_bytes(frames.read_frame, path)


def test_read_frame_memory_is_bounded_by_the_text(tmp_path):
    path = tmp_path / "h131.json"
    # a window of the text, the rows and the frame; the text and its bytes were 2.0x
    assert read_frame_peak(path, 131, sidecar=False) <= 1.75 * path.stat().st_size


def test_read_frame_memory_of_a_larger_file_is_below_its_size(tmp_path):
    path = tmp_path / "h251.json"
    assert read_frame_peak(path, 251, sidecar=False) <= 0.75 * path.stat().st_size


def test_sidecar_read_memory_is_bounded_by_the_text(tmp_path):
    path = tmp_path / "h131.json"
    assert read_frame_peak(path, 131, sidecar=True) <= 1.75 * path.stat().st_size


def test_sidecar_read_memory_of_a_larger_file_is_below_its_size(tmp_path):
    path = tmp_path / "h251.json"
    assert read_frame_peak(path, 251, sidecar=True) <= 0.75 * path.stat().st_size


def test_frame_invariants_memory_is_a_few_grams():
    frame = harmonic_etf(131)
    frames.frame_invariants(frame)
    # a stored Gram and |G|^2 beside it took 2.3
    assert peak_bytes(frames.frame_invariants, frame) <= 1.6 * 131 * 131 * 16


@pytest.mark.parametrize("field", ["real", "complex"])
def test_frame_invariants_memory_is_one_float_buffer(field):
    frame = random_frame(16, 1000, field, seed=5)
    frames.frame_invariants(frame)
    # with a stored Gram: 1.56 (real), 2.06 (complex)
    assert peak_bytes(frames.frame_invariants, frame) <= 0.75 * 1000 * 1000 * 16


def test_harmonic_etf_memory_is_a_few_frames():
    frame = harmonic_etf(131)
    # exp and renormalize in place took 3.0
    assert peak_bytes(harmonic_etf, 131) <= 2.5 * frame.entries.nbytes


def symmetrized_gram(ent):
    """The Gram as the sum upper + upper' + I of its strict upper triangle."""
    g = ent.conj().T @ ent
    upper = np.triu(g, 1)
    return upper + upper.conj().T + np.eye(g.shape[0], dtype=g.dtype)


BIT_PANEL = [
    random_frame(3, 7, "real", seed=1),
    random_frame(5, 150, "complex", seed=2),  # three row blocks of the mirror
    random_frame(1, 1, "complex", seed=3),
    random_frame(4, 4, "real", seed=4),
    harmonic_etf(131),
    repeated_onb(3, 2),
    Frame(field="real", entries=np.array([[-0.0, 1.0, -0.0], [-1.0, -0.0, -1.0]])),
    Frame(field="complex", entries=np.array([[complex(-0.0, 1.0), complex(1.0, -0.0)],
                                             [complex(-0.0, -0.0), complex(-0.0, 0.0)]])),
    random_frame(1, 1, "real", seed=5),
    random_frame(3, 3, "complex", seed=6),
    random_frame(9, 200, "real", seed=7),  # syrk past one 64-row block
    harmonic_etf(251),
]
BIT_IDS = ["real", "complex-blocks", "n1", "n-eq-m", "h131", "onb", "signed-real", "signed-complex",
           "n1-real", "n-eq-m-complex", "real-blocks", "h251"]


@pytest.mark.parametrize("frame", BIT_PANEL, ids=BIT_IDS)
def test_gram_has_the_bits_of_the_symmetrized_sum(frame):
    assert gram(frame).tobytes() == symmetrized_gram(frame.entries).tobytes()


def test_gram_of_a_fresh_frame_takes_no_invariants(monkeypatch):
    monkeypatch.setattr(frames, "frame_invariants", lambda frame: pytest.fail("invariants built"))
    f = harmonic_etf(7)
    assert gram(f).tobytes() == symmetrized_gram(f.entries).tobytes()
    assert "invariants" not in vars(f)


def test_predicates_of_a_fresh_frame_take_no_trace_powers(monkeypatch):
    # construct reports is_utf, is_etf and coherence: none needs (FF')^2
    monkeypatch.setattr(frames, "trace_powers", lambda *a, **k: pytest.fail("traces built"))
    f = harmonic_etf(7)
    assert is_etf(f) and coherence(f).max_sq == f.invariants.max_sq
    assert "traces" not in vars(f.invariants)
    monkeypatch.undo()
    traces = f.invariants.traces  # built on the first read, then kept
    assert vars(f.invariants)["traces"] is traces


def test_nearest_utf_of_a_fresh_frame_takes_no_invariants(monkeypatch):
    monkeypatch.setattr(frames, "frame_invariants", lambda frame: pytest.fail("invariants built"))
    f = random_frame(3, 70, "complex", seed=4)
    res = nearest_utf(f)
    assert res.converged and res.iterations > 0
    assert "invariants" not in vars(f) and "invariants" not in vars(res.frame)


@pytest.mark.parametrize("frame, max_iters", [(harmonic_etf(7), 500),
                                               (random_frame(4, 9, "complex", seed=2), 1),
                                               (random_frame(4, 9, "complex", seed=2), 500)],
                         ids=["utf-start", "one-step", "converged"])
def test_nearest_utf_residual_has_the_bits_of_its_frames_invariants(frame, max_iters):
    res = nearest_utf(frame, max_iters=max_iters)
    assert res.residual == res.frame.invariants.utf_residual


def stored_gram_invariants(frame):
    """Every FrameInvariants field built from a stored Gram: |G|^2 of the
    symmetrized full product, its off-diagonal entries by a boolean mask, and
    the mean from the sum over the zero-diagonal |G|^2."""
    ent, m, n = frame.entries, frame.m, frame.n
    sq = np.abs(symmetrized_gram(ent)) ** 2
    off = sq[~np.eye(n, dtype=bool)]
    np.fill_diagonal(sq, 0.0)
    ffh = ent @ ent.conj().T
    max_sq, floor = off.max(initial=0.0), welch_floor(m, n)
    return {
        "ffh": ffh,
        "n": n,
        "traces": tuple(trace_powers(ffh, n, (1, 2, 3, 4)).tolist()),
        "a22": sq.sum() / n,
        "s4": (sq ** 2).sum() / n,
        "q": (sq.sum(axis=1) ** 2).sum() / n,
        "rms_sq": min(sq.sum() / max(n * (n - 1), 1), max_sq),
        "max_sq": max_sq,
        "etf_gap": max(off.max(initial=floor) - floor, floor - off.min(initial=floor)),
        "utf_residual": np.linalg.norm(ffh - (n / m) * np.eye(m)),
    }


@pytest.mark.parametrize("frame", BIT_PANEL, ids=BIT_IDS)
def test_invariants_have_the_bits_of_a_stored_gram(frame):
    inv, want = frames.frame_invariants(frame), stored_gram_invariants(frame)
    # traces is a cached property of the fields, built on first read
    assert [f.name for f in dataclasses.fields(inv)] == [k for k in want if k != "traces"]
    for name, value in want.items():
        assert np.asarray(getattr(inv, name)).tobytes() == np.asarray(value).tobytes(), name


# ---------------------------------------------------------------------------
# the sidecar cache of saved frames
# ---------------------------------------------------------------------------

SIDECAR_FRAMES = {
    "real": random_frame(4, 9, "real", seed=3),
    "complex": random_frame(3, 7, "complex", seed=4),
    "real n = 1": Frame("real", np.array([[-1.0]])),
    "complex n = 1": Frame("complex", np.array([[complex(-0.0, -1.0)]])),
    "signed zeros": Frame("real", np.array([[-0.0, 1.0], [-1.0, -0.0]])),
    "complex signed zeros": Frame("complex", np.array([[complex(1.0, -0.0), complex(-0.0, -0.0)],
                                                       [complex(-0.0, 0.0), complex(-0.0, -1.0)]])),
}
SIDECAR_EXTRAS = {
    "construction": {"kind": "x", "params": [1, 2.5, -0.0, 10**30, {"deep": [None, True, [[]]]}]},
    "note": "Welch bound \u2014 \u00fc \u2211 \U0001d53d ]}\n",
    "1": {},
}


def parsed(path):
    """read_frame of a copy of path, which has no sidecar: the parser's result."""
    copy = path.with_name("parsed-" + path.name)
    copy.write_bytes(path.read_bytes())
    return frames.read_frame(copy)


def assert_same_read(got, want):
    assert got[0].field == want[0].field
    assert got[0].entries.tobytes() == want[0].entries.tobytes()  # sign bits too
    # json.dumps tells -0.0 from 0.0 and sees the key order
    assert got[1] == want[1] and json.dumps(got[1]) == json.dumps(want[1])


def count_parses(monkeypatch):
    """The list of files read_frame parses from now on."""
    seen, decode = [], frames._decode_frame_json

    def counting(fh):
        seen.append(fh.name)
        return decode(fh)

    monkeypatch.setattr(frames, "_decode_frame_json", counting)
    return seen


@pytest.mark.parametrize("extra", [None, SIDECAR_EXTRAS], ids=["no extras", "extras"])
@pytest.mark.parametrize("name", sorted(SIDECAR_FRAMES))
def test_sidecar_read_has_the_parser_bits_and_extras(tmp_path, monkeypatch, name, extra):
    frame, path = SIDECAR_FRAMES[name], tmp_path / "f.json"
    save_frame(frame, path, extra=extra)
    assert frames._cache_path(path).is_file()
    want = parsed(path)
    parses = count_parses(monkeypatch)
    got = frames.read_frame(path)
    assert parses == []
    assert_same_read(got, want)
    assert got[0].entries.tobytes() == frame.entries.tobytes()
    assert got[1] == (extra or {})


SIDECAR_STATES = {
    "absent": lambda blob: None,
    "empty": lambda blob: b"",
    "header only": lambda blob: blob[:frames._CACHE_HEAD.size],
    "truncated": lambda blob: blob[:len(blob) // 2],
    "garbage": lambda blob: bytes((7 * i + 3) % 256 for i in range(len(blob))),
    "other magic": lambda blob: b"x" + blob[1:],
    "an entry short": lambda blob: blob[:-8],
    "an entry long": lambda blob: blob + bytes(8),
    "record longer than the file": lambda blob: blob[:40] + (2**60).to_bytes(8, "little") + blob[48:],
}


@pytest.mark.parametrize("state", sorted(SIDECAR_STATES))
@pytest.mark.parametrize("field", ["real", "complex"])
def test_sidecar_that_is_not_whole_gives_the_parser_result(tmp_path, monkeypatch, state, field):
    path = tmp_path / "f.json"
    save_frame(random_frame(3, 5, field, seed=1), path, extra=SIDECAR_EXTRAS)
    cache = frames._cache_path(path)
    blob = SIDECAR_STATES[state](cache.read_bytes())
    cache.unlink()
    if blob is not None:
        cache.write_bytes(blob)
    want = parsed(path)
    parses = count_parses(monkeypatch)
    assert_same_read(frames.read_frame(path), want)
    assert parses == [str(path)]


def test_a_fifo_beside_a_sidecar_is_parsed(tmp_path, monkeypatch):
    # a pipe cannot be hashed and then read again from its start
    path, frame = tmp_path / "f.json", random_frame(3, 5, "complex", seed=1)
    save_frame(frame, path, extra=SIDECAR_EXTRAS)
    text = path.read_bytes()
    path.unlink()
    os.mkfifo(path)
    assert frames._cache_path(path).is_file()

    def feed():
        with suppress(BrokenPipeError), open(path, "wb") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    parses = count_parses(monkeypatch)
    got = frames.read_frame(path)
    writer.join(timeout=10)
    assert parses == [str(path)]
    assert got[0].entries.tobytes() == frame.entries.tobytes() and got[1] == SIDECAR_EXTRAS


def returned(fifo, call, *args):
    """call(*args) on a daemon thread, which must return within 10 s: a call that
    blocks on the pipe fifo fails the test, and the pipe is opened and closed from
    the other side then, so the thread ends instead of hanging the session."""
    out = []
    thread = threading.Thread(target=lambda: out.append(call(*args)), daemon=True)
    thread.start()
    thread.join(timeout=10)
    if not out:
        with suppress(OSError):
            os.close(os.open(fifo, os.O_RDWR | os.O_NONBLOCK))
    assert out, f"{call.__name__} did not return"
    return out[0]


def test_a_fifo_sidecar_gives_the_parser_result(tmp_path):
    path = tmp_path / "f.json"
    save_frame(random_frame(3, 5, "complex", seed=1), path, extra=SIDECAR_EXTRAS)
    cache = frames._cache_path(path)
    cache.unlink()
    os.mkfifo(cache)
    assert_same_read(returned(cache, frames.read_frame, path), parsed(path))


def test_a_symlink_at_the_sidecars_temporary_name_keeps_its_target(tmp_path, monkeypatch):
    path, frame, target = tmp_path / "f.json", random_frame(3, 5, "complex", seed=1), tmp_path / "t"
    target.write_bytes(b"kept")
    tmp = tmp_path / "f.json.ewbcache.tmp"
    tmp.symlink_to(target)
    save_frame(frame, path, extra=SIDECAR_EXTRAS)
    assert target.read_bytes() == b"kept" and not os.path.lexists(tmp)
    cache = frames._cache_path(path)
    assert cache.is_file() and not cache.is_symlink()
    parses = count_parses(monkeypatch)
    got = frames.read_frame(path)
    assert parses == []
    assert got[0].entries.tobytes() == frame.entries.tobytes() and got[1] == SIDECAR_EXTRAS


def test_a_fifo_at_the_sidecars_temporary_name_does_not_block_the_save(tmp_path, monkeypatch):
    path, frame = tmp_path / "f.json", random_frame(3, 5, "real", seed=1)
    tmp = tmp_path / "f.json.ewbcache.tmp"
    os.mkfifo(tmp)
    returned(tmp, save_frame, frame, path)
    parses = count_parses(monkeypatch)
    assert frames.read_frame(path)[0].entries.tobytes() == frame.entries.tobytes()
    assert parses == [] and sorted(tmp_path.iterdir()) == [path, frames._cache_path(path)]


def edited_in_place(path, old: bytes, new: bytes):
    """path with its first old replaced by new, of the same length, and its
    modification time put back."""
    st = path.stat()
    path.write_bytes(path.read_bytes().replace(old, new, 1))
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (st.st_size, st.st_mtime_ns)


def test_stale_sidecar_gives_the_parser_result(tmp_path):
    path = tmp_path / "f.json"
    save_frame(random_frame(3, 5, "complex", seed=2), path, extra={"note": "a"})
    edited_in_place(path, b'"a"', b'"b"')
    got = frames.read_frame(path)
    assert got[1] == {"note": "b"}
    assert_same_read(got, parsed(path))


def test_stale_sidecar_gives_the_parser_error(tmp_path):
    path = tmp_path / "f.json"
    save_frame(Frame("real", np.array([[1.0]])), path)
    edited_in_place(path, b"1.0", b"2.0")
    with pytest.raises(ValueError, match="column norms"):
        frames.read_frame(path)


def tampered_sidecar(tmp_path, old: bytes, new: bytes, at_end=False):
    """A saved simplex m = 2 frame whose sidecar has its first old (or, with
    at_end, its last bytes, which must be old) replaced by new."""
    path = tmp_path / "f.json"
    save_frame(simplex_etf(2), path, extra={"construction": {"kind": "simplex", "m": 2}})
    cache = frames._cache_path(path)
    blob = cache.read_bytes()
    if at_end:
        assert blob.endswith(old)
        blob = blob[:-len(old)] + new
    else:
        assert old in blob
        blob = blob.replace(old, new, 1)
    cache.write_bytes(blob)
    return path


def test_sidecar_with_a_flipped_sign_bit_gives_the_parser_result(tmp_path):
    last = frames.simplex_etf(2).entries[-1, -1]
    assert last < 0  # a sign flip keeps the column's norm, so Frame cannot see it
    path = tampered_sidecar(tmp_path, struct.pack("<d", last), struct.pack("<d", -last), at_end=True)
    got = frames.read_frame(path)
    assert got[0].entries[-1, -1] == last
    assert_same_read(got, parsed(path))


def test_sidecar_with_an_edited_record_gives_the_parser_result(tmp_path):
    path = tampered_sidecar(tmp_path, b'"simplex"', b'"xsimple"')
    got = frames.read_frame(path)
    assert got[1] == {"construction": {"kind": "simplex", "m": 2}}
    assert_same_read(got, parsed(path))


def keyed_sidecar(path, record: bytes, payload: bytes):
    """A sidecar for the file at path, crafted with the key of its bytes: one
    SHA-256 over the sidecar's bytes after the key, then the file's."""
    after = struct.pack("<Q", len(record)) + record + payload
    key = hashlib.sha256(after + path.read_bytes()).digest()
    frames._cache_path(path).write_bytes(frames._CACHE_MAGIC + key + after)


@pytest.mark.parametrize("record, payload, error", [
    (b'[1]', b"", None),
    (b'{"field": "real", "m": 1, "n": 2}', struct.pack("<d", 1.0), None),
    (b'{"field": "real", "m": true, "n": 1}', struct.pack("<d", 1.0), None),
    # reshape would take an empty body as (0, 1) and -1 as "whatever fits"
    (b'{"field": "real", "m": 0, "n": 1}', b"", None),
    (b'{"field": "real", "m": -1, "n": 1}', struct.pack("<d", 1.0), None),
    (b'{"field": "real", "m": 1, "n": -1}', struct.pack("<d", 1.0), None),
    (b'{"field": "real", "m": 1, "n": 1}', struct.pack("<d", float("nan")), "finite"),
    (b'{"field": "real", "m": 1, "n": 1}', struct.pack("<d", 2.0), "column norms"),
])
def test_crafted_sidecar_with_the_key_keeps_the_structural_checks(tmp_path, record, payload, error):
    path = tmp_path / "f.json"
    save_frame(Frame("real", np.array([[-1.0]])), path, extra={"note": "a"})
    keyed_sidecar(path, record, payload)
    if error is None:
        assert_same_read(frames.read_frame(path), parsed(path))
    else:
        with pytest.raises(ValueError, match=error):
            frames.read_frame(path)


@pytest.mark.parametrize("fail", ["open", "write", "replace"])
def test_sidecar_that_cannot_be_written_leaves_none_and_the_save_stands(tmp_path, monkeypatch, fail):
    path, frame = tmp_path / "f.json", random_frame(3, 5, "complex", seed=1)
    save_frame(random_frame(3, 5, "complex", seed=0), path)  # an earlier save and its sidecar

    def no_space(*args, **kwargs):
        raise OSError(28, "No space left on device")

    def sidecar_open(file, *args, **kwargs):
        if not str(file).endswith(".tmp"):
            return open(file, *args, **kwargs)
        if fail == "open":
            no_space()
        fh = open(file, *args, **kwargs)
        fh.write = no_space
        return fh

    monkeypatch.setattr(frames, "open", sidecar_open, raising=False)
    if fail == "replace":
        monkeypatch.setattr(frames.os, "replace", no_space)
    save_frame(frame, path)
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == [path]
    assert frames.read_frame(path)[0].entries.tobytes() == frame.entries.tobytes()


def test_reading_in_a_read_only_directory_creates_nothing(tmp_path):
    ro = tmp_path / "ro"
    ro.mkdir()
    paths = [ro / name for name in ("hit.json", "stale.json", "plain.json")]
    for seed, path in enumerate(paths):
        save_frame(random_frame(3, 5, "complex", seed=seed), path, extra={"note": "a"})
    edited_in_place(paths[1], b'"a"', b'"b"')
    frames._cache_path(paths[2]).unlink()
    before = sorted((p.name, p.read_bytes()) for p in ro.iterdir())
    ro.chmod(0o555)
    try:
        for path in paths:
            frames.read_frame(path)
    finally:
        ro.chmod(0o755)
    assert sorted((p.name, p.read_bytes()) for p in ro.iterdir()) == before

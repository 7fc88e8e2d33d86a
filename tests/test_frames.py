import json

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
from ewb.frames import trace_powers


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
    assert g is gram(f) is f.invariants.gram
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
        want = np.stack([(lam**d).sum(axis=-1) / 7 for d in range(1, d_max + 1)])
        got = trace_powers(a, 7, d_max)
        assert got.shape == (d_max,) + shape and got.dtype == np.float64
        assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3)], ids=["one", "stack"])
def test_trace_powers_of_the_zero_matrix_are_zero(dtype, shape):
    for d_max in range(1, 9):
        got = trace_powers(np.zeros(shape, dtype=dtype), 5, d_max)
        assert np.array_equal(got, np.zeros((d_max,) + shape[:-2]))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("shape", [(), (9,)], ids=["one", "stack"])
def test_trace_powers_depend_on_the_order_alone(field, shape):
    a = psd_stack(shape, 5, field, seed=3)
    full = trace_powers(a, 11, 8)
    for d_max in range(1, 9):
        assert np.array_equal(trace_powers(a, 11, d_max), full[:d_max])


class CountingArray(np.ndarray):
    products = 0

    def __matmul__(self, other):
        CountingArray.products += 1
        return super().__matmul__(other)


@pytest.mark.parametrize("shape", [(), (4,)], ids=["one", "stack"])
def test_trace_powers_multiply_out_only_the_half_powers(shape):
    a = psd_stack(shape, 3, "complex", seed=0).view(CountingArray)
    for d_max in range(1, 9):
        CountingArray.products = 0
        trace_powers(a, 3, d_max)
        assert CountingArray.products == (d_max + 1) // 2 - 1

import csv
import gc
import json
import os
import shlex
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewb import bounds, cli, erasure_moments, frames, load_frame, spectral
from ewb.bounds import BoundReport
from ewb.cli import SWEEP_FAMILIES, _sweep_frames, build_parser, main

from conftest import peak_bytes


def read_csv(path):
    """Rows of a CSV artifact, with '#' metadata lines returned separately."""
    comments, rows = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line)
    return comments, list(csv.reader(rows))


@pytest.fixture
def etf_file(tmp_path):
    path = tmp_path / "etf2x3.json"
    assert main(["construct", "--kind", "simplex", "--m", "2", "--out", str(path)]) == 0
    return str(path)


def test_construct_simplex_stdout_and_file(tmp_path, capsys):
    out = tmp_path / "f.json"
    code = main(["construct", "--kind", "simplex", "--m", "2", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "m=2 n=3 field=real" in text
    assert "is_utf=True is_etf=True" in text
    coh = dict(tok.split("=") for tok in text.splitlines()[2].split())
    assert_allclose([float(coh["rms_sq"]), float(coh["max_sq"])], 0.25, atol=1e-12)
    assert coh["welch_floor"] == "0.25"
    f = load_frame(str(out))
    assert (f.m, f.n) == (2, 3)
    meta = json.loads(out.read_text())
    assert meta["construction"]["kind"] == "simplex"
    assert meta["manifest"]["command"] == "construct"


def test_construct_harmonic_and_rejection(tmp_path, capsys):
    out = tmp_path / "h.json"
    assert main(["construct", "--kind", "harmonic", "--q", "7", "--out", str(out)]) == 0
    assert load_frame(str(out)).n == 7
    assert main(["construct", "--kind", "harmonic", "--q", "5", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


def test_construct_bound_and_poly_moments_build_no_gram(tmp_path, monkeypatch):
    built, lazy = [], frames.Frame.__dict__["gram"]
    monkeypatch.setattr(lazy, "func", lambda f, build=lazy.func: built.append(f) or build(f))
    for kind in (["harmonic", "--q", "7"], ["random", "--m", "3", "--n", "70", "--seed", "2"]):
        path = str(tmp_path / f"{kind[0]}.json")
        assert main(["construct", "--kind", *kind, "--out", path]) == 0
        assert main(["bound", "--frame", path, "--p", "0.3,0.7", "--d", "2,3,4"]) == 0
        assert main(["moments", "--frame", path, "--p", "0.3,0.7", "--d", "1,2,3,4",
                     "--method", "poly"]) == 0
    assert built == []
    frames.gram(load_frame(path))
    assert len(built) == 1  # the count sees a build


def test_construct_random_byte_deterministic(tmp_path):
    out = tmp_path / "r.json"
    args = ["construct", "--kind", "random", "--m", "2", "--n", "5", "--seed", "3",
            "--field", "complex", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize("command", [
    ["construct", "--kind", "random", "--m", "2", "--n", "5"],
    ["sweep", "--family", "random", "--m", "2", "--n", "3", "--p", "0.5", "--d", "2",
     "--trials", "4"],
    # no draw reads the seed in these, so only main's check can reject it
    ["construct", "--kind", "simplex", "--m", "2"],
    ["moments", "--frame", "{f}", "--p", "0.5", "--d", "2"],
    ["sweep", "--family", "simplex", "--m", "2,3", "--p", "0.5", "--d", "2", "--trials", "5"],
])
def test_negative_seed_exits_2_with_the_house_message(etf_file, tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([a.format(f=etf_file) for a in command] + ["--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: seed must be an integer in 0..inf, got -1\n")
    assert not out.exists()


def test_construct_nearest_utf(tmp_path, capsys):
    src = tmp_path / "src.json"
    dst = tmp_path / "dst.json"
    assert main(["construct", "--kind", "random", "--m", "3", "--n", "6", "--seed", "4",
                 "--out", str(src)]) == 0
    capsys.readouterr()
    assert main(["construct", "--kind", "nearest-utf", "--frame", str(src),
                 "--out", str(dst)]) == 0
    assert "is_utf=True" in capsys.readouterr().out
    meta = json.loads(dst.read_text())["construction"]
    assert meta["converged"] is True and meta["kind"] == "nearest-utf"


def test_construct_nearest_utf_records_non_convergence(tmp_path, capsys):
    src, out = tmp_path / "src.json", tmp_path / "nu.json"
    assert main(["construct", "--kind", "random", "--m", "2", "--n", "5", "--seed", "3",
                 "--out", str(src)]) == 0
    capsys.readouterr()
    assert main(["construct", "--kind", "nearest-utf", "--frame", str(src), "--max-iters", "1",
                 "--tol", "1e-300", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "warning: projection residual" in err and "after 1 iterations" in err
    meta = json.loads(out.read_text())["construction"]
    assert meta["converged"] is False and meta["iterations"] == 1


def test_construct_missing_params(tmp_path, capsys):
    assert main(["construct", "--kind", "random", "--m", "2",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_moments_brute_matches_known_value(etf_file, tmp_path):
    out = tmp_path / "m.csv"
    assert main(["moments", "--frame", etf_file, "--p", "0.5", "--d", "1,2,3",
                 "--method", "brute", "--out", str(out)]) == 0
    comments, rows = read_csv(str(out))
    assert comments and comments[0].startswith("# manifest:")
    assert rows[0] == ["p", "d", "method", "value", "stderr"]
    vals = {int(r[1]): float(r[3]) for r in rows[1:]}
    assert_allclose([vals[1], vals[2], vals[3]], [0.5, 0.625, 0.84375], atol=1e-12)
    assert all(r[2] == "brute" and r[4] == "" for r in rows[1:])


def test_moments_poly_first_order_is_p(etf_file, tmp_path):
    out = tmp_path / "m.csv"
    assert main(["moments", "--frame", etf_file, "--p", "0.1,0.4,0.9", "--d", "1",
                 "--out", str(out)]) == 0
    _, rows = read_csv(str(out))
    for r in rows[1:]:
        assert float(r[0]) == float(r[3])


def test_moments_mc_deterministic(etf_file, tmp_path):
    out = tmp_path / "mc.csv"
    args = ["moments", "--frame", etf_file, "--p", "0.5", "--d", "2", "--method", "mc",
            "--trials", "200", "--seed", "11", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first
    _, rows = read_csv(str(out))
    assert float(rows[1][4]) > 0.0  # stderr column populated
    assert abs(float(rows[1][3]) - 0.625) <= 5.0 * float(rows[1][4])


def test_moments_mc_rows_do_not_depend_on_the_other_orders(tmp_path, monkeypatch):
    frame = tmp_path / "f.json"
    assert main(["construct", "--kind", "random", "--m", "3", "--n", "8", "--field",
                 "complex", "--seed", "4", "--out", str(frame)]) == 0
    # the trace kernel is asked for the --d list alone
    asked, kernel = [], erasure_moments.trace_powers
    monkeypatch.setattr(erasure_moments, "trace_powers",
                        lambda a, n, orders, *rest: asked.append(list(orders))
                        or kernel(a, n, orders, *rest))

    def data_lines(ds):
        asked.clear()
        out = tmp_path / f"mc_{ds}.csv"
        assert main(["moments", "--frame", str(frame), "--p", "0.3,0.7", "--d", ds,
                     "--method", "mc", "--trials", "300", "--seed", "5",
                     "--out", str(out)]) == 0
        assert asked and all(a == [int(d) for d in ds.split(",")] for a in asked)
        return [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]

    together = data_lines("1,2,3,4")
    alone = {d: data_lines(str(d)) for d in range(1, 5)}
    assert len(together) == 8
    for row in together:
        p, d = row.split(",")[:2]
        assert [r for r in alone[int(d)] if r.startswith(f"{p},")] == [row]


def test_moments_mc_draws_masks_once_per_probability(etf_file, tmp_path, monkeypatch):
    calls = []
    draw = erasure_moments.keep_masks
    monkeypatch.setattr(erasure_moments, "keep_masks", lambda *a: calls.append(a) or draw(*a))
    out = tmp_path / "mc.csv"
    assert main(["moments", "--frame", etf_file, "--p", "0.3,0.7", "--d", "1,2,3,4",
                 "--method", "mc", "--trials", "50", "--seed", "2", "--out", str(out)]) == 0
    assert len(calls) == 2
    assert len(read_csv(str(out))[1]) == 1 + 8


def test_moments_usage_errors(etf_file, tmp_path, capsys):
    big = tmp_path / "big.json"
    assert main(["construct", "--kind", "random", "--m", "2", "--n", "25",
                 "--out", str(big)]) == 0
    assert main(["moments", "--frame", str(big), "--p", "0.5", "--d", "2",
                 "--method", "brute"]) == 2
    assert main(["moments", "--frame", etf_file, "--p", "0.5", "--d", "5"]) == 2
    assert main(["moments", "--frame", etf_file, "--p", "0.5", "--d", "2",
                 "--method", "mc"]) == 2
    assert main(["moments", "--frame", etf_file, "--p", "1.5", "--d", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 4


def test_moments_non_numeric_probability_is_usage_error(etf_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--frame", etf_file, "--p", "a,b", "--d", "2"])
    assert exc.value.code == 2
    assert "expected a comma-separated float list, got 'a,b'" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["poly", "brute", "mc"])
def test_moments_rejects_orders_past_64(etf_file, capsys, method):
    # the sampled and enumerated routes multiply out every power up to d, so
    # an unbounded order would run without end instead of exiting 2
    for d in ("65", "1" + "0" * 400):
        assert main(["moments", "--frame", etf_file, "--p", "0.5", "--d", d,
                     "--method", method, "--trials", "3"]) == 2
        assert f"moment orders must be in 1..64, got {d}" in capsys.readouterr().err


def test_bound_reports_etf_equality(etf_file, tmp_path):
    out = tmp_path / "b.json"
    assert main(["bound", "--frame", etf_file, "--p", "0.25,0.75", "--d", "2,3,4",
                 "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["frame"]["m"] == 2 and obj["frame"]["n"] == 3
    assert obj["frame"]["construction"]["kind"] == "simplex"
    assert len(obj["reports"]) == 6
    for rep in obj["reports"]:
        assert rep["equality_class"] == "ETF-equality"
        assert abs(rep["slack"]) <= 1e-9
        assert rep["moment"] >= 0.0


def test_bound_rejects_tampered_frame(etf_file, tmp_path, capsys):
    raw = json.loads(Path(etf_file).read_text())
    raw["data"][0][0] = 5.0  # breaks the unit-norm invariant
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["bound", "--frame", str(bad), "--p", "0.5", "--d", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bound_and_sweep_exit_1_on_a_violation(etf_file, tmp_path, monkeypatch, capsys):
    report = BoundReport(m=2, n=3, p=0.5, d=2, moment=0.4, bound=0.5, slack=-0.1,
                         equality_class=bounds.VIOLATION)
    monkeypatch.setattr(cli, "check_theorem", lambda *args, **kwargs: report)
    out = tmp_path / "b.json"
    assert main(["bound", "--frame", etf_file, "--p", "0.5", "--d", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.endswith("error: bound violation detected\n")
    assert json.loads(out.read_text())["reports"][0]["equality_class"] == "violation"
    csv_out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "simplex", "--m", "2", "--p", "0.5", "--d", "2,3",
                 "--out", str(csv_out)]) == 1
    assert capsys.readouterr().err.endswith("error: 2 bound violation(s) detected\n")
    data = read_csv(str(csv_out))[1][1:]
    assert len(data) == 2 and all(r[8] == "-0.10000000000000001" for r in data)


def test_bound_rejects_non_finite_frame(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(
        {"field": "real", "m": 2, "n": 3, "data": [[1.0, 0.0, float("nan")], [0.0, 1.0, 1.0]]}
    ))
    out = tmp_path / "b.json"
    assert main(["bound", "--frame", str(bad), "--p", "0.5", "--d", "2",
                 "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bound", "--p", "0.5", "--d", "2"],
    ["moments", "--p", "0.5", "--d", "2"],
    ["construct", "--kind", "nearest-utf"],
])
def test_deeply_nested_frame_files_exit_2(deep_frame_file, tmp_path, capsys, argv):
    # a RecursionError would end in a traceback and exit 1, the bound-violation code
    out = tmp_path / "out.json"
    assert main(argv + ["--frame", str(deep_frame_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith("error: frame JSON nests too deeply\n")
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_bound_rejects_invalid_tolerance(etf_file, tmp_path, tol):
    out = tmp_path / "b.json"
    assert main(["bound", "--frame", etf_file, "--p", "0.5", "--d", "2", "--tol", tol,
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_bound_closes_frame_files(etf_file, tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["bound", "--frame", etf_file, "--p", "0.5", "--d", "2",
                     "--out", str(tmp_path / "b.json")]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("command", [["bound", "--d", "2"], ["moments", "--d", "1"]])
@pytest.mark.parametrize("obj", [
    {"field": "real", "m": 2, "n": 2, "data": 5},
    {"field": "real", "m": 1, "n": 1, "data": [5]},
    [1, 2],
    {"field": "real", "m": 1, "n": 1, "data": [["1.0"]]},
    {"field": "real", "m": 1, "n": 1, "data": [[True]]},
    {"field": "real", "m": 1.9, "n": 1, "data": [[1.0]]},
    {"field": "real", "m": 1, "n": 1, "data": [[10**400]]},
])
def test_malformed_frame_json_is_validation_error(tmp_path, capsys, command, obj):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(command + ["--frame", str(bad), "--p", "0.5"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["bound", "--d", "2"], ["moments", "--d", "1"]])
@pytest.mark.parametrize("key", ["field", "m", "n", "data"])
def test_frame_file_without_a_key_names_it(tmp_path, capsys, command, key):
    obj = {"field": "real", "m": 1, "n": 1, "data": [[1.0]]}
    del obj[key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(command + ["--frame", str(bad), "--p", "0.5"]) == 2
    assert capsys.readouterr().err == f"error: frame JSON is missing the key(s) {key!r}\n"


def bound_opens_and_decodes(etf_file, tmp_path, monkeypatch, sidecar):
    """ewb bound on etf_file, with its sidecar or without: it opens the frame
    file once and decodes it only without the sidecar."""
    if not sidecar:
        frames._cache_path(etf_file).unlink()
    opens, decodes = [], []
    builtin_open, decode = open, frames._decode_frame_json

    def counting_open(file, *args, **kwargs):
        opens.append(str(file))
        return builtin_open(file, *args, **kwargs)

    def counting_decode(fh):
        decodes.append(fh.name)
        return decode(fh)

    # builtins.open for read_frame, io.open for pathlib's readers
    monkeypatch.setattr("builtins.open", counting_open)
    monkeypatch.setattr("io.open", counting_open)
    monkeypatch.setattr(frames, "_decode_frame_json", counting_decode)
    out = tmp_path / "b.json"
    assert main(["bound", "--frame", etf_file, "--p", "0.5", "--d", "2", "--out", str(out)]) == 0
    monkeypatch.undo()
    assert [p for p in opens if p == etf_file] == [etf_file]
    assert decodes == ([] if sidecar else [etf_file])
    assert json.loads(out.read_text())["frame"]["construction"]["kind"] == "simplex"


def test_bound_reads_and_decodes_frame_file_once(etf_file, tmp_path, monkeypatch):
    bound_opens_and_decodes(etf_file, tmp_path, monkeypatch, sidecar=False)


def test_bound_reads_frame_file_once_and_decodes_no_text_with_a_sidecar(etf_file, tmp_path,
                                                                         monkeypatch):
    bound_opens_and_decodes(etf_file, tmp_path, monkeypatch, sidecar=True)


def test_bound_on_csv_frame_has_empty_construction(tmp_path):
    src = tmp_path / "f.csv"
    np.savetxt(src, frames.simplex_etf(2).entries, delimiter=",", fmt="%.17g")
    out = tmp_path / "b.json"
    assert main(["bound", "--frame", str(src), "--p", "0.5", "--d", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["frame"]["construction"] == {}


def test_bound_rejects_bad_order(etf_file):
    assert main(["bound", "--frame", etf_file, "--p", "0.5", "--d", "1"]) == 2


def test_manova_moment_table(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["manova", "--gamma", str(2.0 / 3.0), "--p", "0.5",
                 "--out", str(out)]) == 0
    comments, rows = read_csv(str(out))
    assert any(c.startswith("# atom_location=") for c in comments)
    assert rows[0] == ["gamma", "p", "d", "closed", "numeric", "abs_err"]
    assert len(rows) == 5
    for r in rows[1:]:
        assert float(r[5]) <= 1e-6
    closed = {int(r[2]): float(r[3]) for r in rows[1:]}
    assert closed[1] == 0.5
    assert closed[4] == 1.1796875


def test_manova_density_grid(tmp_path):
    out = tmp_path / "g.csv"
    assert main(["manova", "--gamma", "0.5", "--p", "0.5", "--grid", "11",
                 "--out", str(out)]) == 0
    _, rows = read_csv(str(out))
    assert rows[0] == ["t", "density"]
    vals = [float(r[1]) for r in rows[1:]]
    assert len(vals) == 11
    assert vals[0] == 0.0 and vals[-1] == 0.0  # closed bulk endpoints
    assert all(v > 0.0 for v in vals[1:-1])


def test_manova_atomic_only_grid(tmp_path):
    out = tmp_path / "a.csv"
    assert main(["manova", "--gamma", "0.5", "--p", "1", "--grid", "5",
                 "--out", str(out)]) == 0
    comments, rows = read_csv(str(out))
    assert any("atomic-only" in c for c in comments)
    assert rows == [["t", "density"]]
    assert any("atom_weight=1" in c for c in comments)


@pytest.mark.parametrize("extra", [["--d", "1,2"], ["--grid", "5"]])
def test_manova_reads_negative_zero_p_as_zero(tmp_path, monkeypatch, capsys, extra):
    outs = []
    for p in ("-0.0", "0.0"):
        outs.append(tmp_path / p / "t.csv")
        outs[-1].parent.mkdir()
        monkeypatch.chdir(outs[-1].parent)  # the manifest records --out as given
        assert main(["manova", "--gamma", "0.5", "--p", p, *extra, "--out", "t.csv"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert b"-0" not in outs[0].read_bytes()


def test_manova_rejects_bad_gamma():
    assert main(["manova", "--gamma", "1.5", "--p", "0.5"]) == 2


@pytest.mark.parametrize("extra", [[], ["--grid", "5"]])
def test_manova_rejects_gamma_whose_x_overflows(tmp_path, capsys, extra):
    out = tmp_path / "t.csv"
    assert main(["manova", "--gamma", "5e-324", "--p", "0.5", "--out", str(out)] + extra) == 2
    assert "gamma must be in" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--grid", "5"]])
def test_manova_rejects_bad_order_before_any_output(tmp_path, capsys, extra):
    out = tmp_path / "t.csv"
    for orders in ("1,65", "0"):
        assert main(["manova", "--gamma", "0.5", "--p", "0.5", "--d", orders,
                     "--out", str(out)] + extra) == 2
        assert not out.exists()
        assert "law orders must be in 1..64" in capsys.readouterr().err


def test_manova_moment_table_past_order_four(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["manova", "--gamma", "0.4", "--p", "0.3", "--d", "8,5,6",
                 "--out", str(out)]) == 0
    _, rows = read_csv(str(out))
    assert [int(r[2]) for r in rows[1:]] == [5, 6, 8]
    for r in rows[1:]:
        assert float(r[5]) <= 1e-12 * float(r[4])


def test_manova_quadrature_failure_keeps_the_exact_column(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["manova", "--gamma", "1e-06", "--p", "0.6225", "--out", str(out)]) == 0
    comments, rows = read_csv(str(out))
    assert [r[2] for r in rows[1:]] == ["1", "2", "3", "4"]
    assert all(r[3] != "" for r in rows[1:])
    # only d = 4 fails: its oracle cells stay empty and the error rides on a note
    assert [r[4] == "" for r in rows[1:]] == [False, False, False, True]
    assert rows[4][3:] == ["1.5016164015831066e+17", "", ""]
    (note,) = [c for c in comments if c.startswith("# d=4 numeric: ")]
    assert "achieved error estimate" in note
    assert "error:" not in capsys.readouterr().err


def test_manova_tiny_gamma_overflow_keeps_the_exact_column(tmp_path, capsys):
    out = tmp_path / "t.csv"
    # 1/gamma^4 = 1e312 overflows in the quadrature's atom term; closed stays finite
    assert main(["manova", "--gamma", "1e-78", "--p", "0.5", "--out", str(out)]) == 0
    comments, rows = read_csv(str(out))
    assert [r[2] for r in rows[1:]] == ["1", "2", "3", "4"]
    assert rows[4][3:] == ["6.2500000000000001e+232", "", ""]
    assert all(r[4] != "" for r in rows[1:4])
    (note,) = [c for c in comments if c.startswith("# d=4 numeric: ")]
    assert "overflows a float" in note
    assert "error:" not in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["1e-17", "1e-25"])
def test_manova_bulk_too_narrow_for_doubles_keeps_the_exact_column(tmp_path, capsys, gamma):
    out = tmp_path / "t.csv"
    assert main(["manova", "--gamma", gamma, "--p", "0.5", "--out", str(out)]) == 0
    comments, rows = read_csv(str(out))
    assert [r[2] for r in rows[1:]] == ["1", "2", "3", "4"]
    assert rows[1][3] == "0.5" and all(r[3] != "" and r[4:] == ["", ""] for r in rows[1:])
    notes = [c for c in comments if " numeric: " in c]
    assert len(notes) == 4 and all("too narrow for double precision" in c for c in notes)
    assert "error:" not in capsys.readouterr().err


def test_manova_bulk_lost_to_round_off_keeps_the_numeric_column(tmp_path):
    # at gamma = 1e-40 support() has no bulk: the jump at r- carries the law
    out = tmp_path / "t.csv"
    assert main(["manova", "--gamma", "1e-40", "--p", "0.5", "--out", str(out)]) == 0
    comments, rows = read_csv(str(out))
    assert not [c for c in comments if " numeric: " in c]
    closed, numeric = (np.array([float(r[k]) for r in rows[1:]]) for k in (3, 4))
    assert len(closed) == 4 and closed[0] == 0.5
    assert_allclose(numeric, closed, rtol=1e-12, atol=0)


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_manova_rejects_grid_below_one_before_any_output(tmp_path, capsys, grid):
    out = tmp_path / "t.csv"
    assert main(["manova", "--gamma", "0.5", "--p", "0.5", "--grid", grid,
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "density grid points must be in 1..inf" in capsys.readouterr().err


def test_sweep_harmonic_family(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "harmonic", "--q", "3,7,11",
                 "--p", "0.25,0.5,0.75", "--d", "2,3,4", "--out", str(out)]) == 0
    _, rows = read_csv(str(out))
    header, data = rows[0], rows[1:]
    assert header == ["family", "m", "n", "seed", "p", "d",
                      "moment", "bound", "slack", "ks_distance", "error"]
    assert len(data) == 27
    for r in data:
        assert r[0] == "harmonic" and r[10] == ""
        assert abs(float(r[8])) <= 1e-9


def test_sweep_random_family_strict_with_ks(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "random", "--m", "2,3", "--n", "6",
                 "--p", "0.5", "--d", "2", "--trials", "50", "--seed", "1",
                 "--out", str(out)]) == 0
    _, rows = read_csv(str(out))
    data = rows[1:]
    assert len(data) == 2
    for r in data:
        assert float(r[8]) > 0.0  # generic frames sit strictly above the bound
        assert 0.0 <= float(r[9]) <= 1.0  # ks column populated


def test_sweep_reports_an_empty_eigenvalue_pool_in_its_row(tmp_path):
    # one trial at p = 1e-9 keeps no vector, so there is nothing to compare
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "random", "--m", "2", "--n", "6", "--p", "1e-9",
                 "--d", "2", "--trials", "1", "--seed", "1", "--out", str(out)]) == 0
    (row,) = read_csv(str(out))[1][1:]
    assert row[9] == "" and row[10] == "ks: empty eigenvalue pool"
    assert row[6] != ""


def test_sweep_without_valid_sizes_exits_2(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "random", "--m", "5", "--n", "3", "--p", "0.5",
                 "--d", "2", "--out", str(out)]) == 2
    assert "no valid (m, n) pairs" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_bad_order_before_any_row(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "harmonic", "--q", "7", "--p", "0.5", "--d", "2,5",
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("p", ["nan", "1.5", "-0.1", "0.5,inf"])
def test_sweep_rejects_bad_probability_before_any_row(tmp_path, capsys, p):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "simplex", "--m", "3", "--p", p, "--d", "2",
                 "--trials", "10", "--out", str(out)]) == 2
    assert not out.exists()
    assert "keep probabilities must be in" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_sweep_rejects_trials_below_one_before_any_row(tmp_path, capsys, trials):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "simplex", "--m", "3", "--p", "0.5", "--d", "2",
                 "--trials", trials, "--out", str(out)]) == 2
    assert not out.exists()
    assert "KS trials must be in 1..inf" in capsys.readouterr().err


@pytest.mark.parametrize("num_seeds", ["0", "-2"])
@pytest.mark.parametrize("family", [["random", "--m", "3", "--n", "4"], ["harmonic", "--q", "7"]])
def test_sweep_rejects_num_seeds_below_one_before_any_row(tmp_path, capsys, family, num_seeds):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", *family, "--p", "0.5", "--d", "2",
                 "--num-seeds", num_seeds, "--out", str(out)]) == 2
    assert not out.exists()
    assert "random frames per (m, n) must be in 1..inf" in capsys.readouterr().err


def test_sweep_checks_every_cell_before_the_output_opens(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "harmonic", "--q", "7,9", "--p", "0.5", "--d", "2",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "q must be prime" in capsys.readouterr().err


def test_sweep_walks_a_huge_seed_count_lazily():
    def first(num_seeds):
        args = build_parser().parse_args(["sweep", "--family", "random", "--m", "2", "--n", "3",
                                          "--p", "0.5", "--d", "2", "--num-seeds", str(num_seeds)])
        return next(iter(_sweep_frames(args, 7)))

    peak = peak_bytes(first, 10**6)
    # lists of the seeds and of the grid took about 100 MB here, and would grow
    # without bound below, so this bound is checked first
    assert peak < 1 << 20
    frame_seed, frame = first(10**30)
    assert frame_seed == 7 and (frame.m, frame.n) == (2, 3)


def sweep_peak(tmp_path, num_seeds):
    out = tmp_path / f"s{num_seeds}.csv"
    argv = ["sweep", "--family", "random", "--m", "2,3", "--n", "6", "--p",
            "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9", "--d", "2,3,4",
            "--num-seeds", str(num_seeds), "--seed", "1", "--out", str(out)]

    def run():
        assert main(argv) == 0

    peak = peak_bytes(run)
    assert len(read_csv(str(out))[1]) == 1 + 2 * num_seeds * 27
    return peak


def test_sweep_memory_does_not_grow_with_its_rows(tmp_path):
    sweep_peak(tmp_path, 4)
    # 40 seeds write 2160 rows; kept until the end they took about 1 MB
    assert sweep_peak(tmp_path, 40) <= sweep_peak(tmp_path, 4) + 64 * 1024


def test_sweep_pools_ks_eigenvalues_without_per_trial_spectra(tmp_path, monkeypatch):
    def forbidden(*args):
        raise AssertionError("sweep built per-trial spectra")

    for module in (cli, spectral):
        monkeypatch.setattr(module, "subset_spectrum_samples", forbidden)
        monkeypatch.setattr(module, "pool_eigenvalues", forbidden)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "random", "--m", "2", "--n", "6", "--p", "0.5",
                 "--d", "2", "--trials", "20", "--seed", "1", "--out", str(out)]) == 0
    (row,) = read_csv(str(out))[1][1:]
    assert 0.0 < float(row[9]) <= 1.0 and row[10] == ""


def test_non_finite_slack_is_a_validation_error(etf_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bounds, "expected_moment", lambda frame, p, d: float("nan"))
    out = tmp_path / "b.json"
    assert main(["bound", "--frame", etf_file, "--p", "0.5", "--d", "2", "--out", str(out)]) == 2
    assert not out.exists()
    assert "slack must be finite" in capsys.readouterr().err
    assert main(["sweep", "--family", "simplex", "--m", "2", "--p", "0.5", "--d", "2,3",
                 "--out", str(out)]) == 0
    data = read_csv(str(out))[1][1:]
    assert len(data) == 2
    for r in data:
        assert r[6:9] == ["", "", ""] and "slack must be finite" in r[10]


def test_bound_refuses_to_write_non_finite_json(etf_file, tmp_path, monkeypatch, capsys):
    nan = float("nan")
    report = BoundReport(m=2, n=3, p=0.5, d=2, moment=nan, bound=0.5, slack=nan,
                         equality_class="strict")
    monkeypatch.setattr(cli, "check_theorem", lambda *args, **kwargs: report)
    out = tmp_path / "b.json"
    assert main(["bound", "--frame", etf_file, "--p", "0.5", "--d", "2", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_invariants_built_once_per_frame(etf_file, tmp_path, monkeypatch):
    built = []
    build = frames.frame_invariants
    monkeypatch.setattr(frames, "frame_invariants", lambda f: built.append(f) or build(f))
    assert main(["bound", "--frame", etf_file, "--p", "0.25,0.5,0.75", "--d", "2,3,4",
                 "--out", str(tmp_path / "b.json")]) == 0
    assert len(built) == 1
    built.clear()
    assert main(["sweep", "--family", "random", "--m", "2,3", "--n", "6",
                 "--p", "0.25,0.5,0.75", "--d", "2,3,4", "--trials", "50", "--seed", "1",
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert len(built) == 2 and built[0] is not built[1]


# one option set per sweep family; construct and sweep must build the same frame
SWEEP_OPTIONS = {
    "random": ["--m", "3", "--n", "5", "--field", "complex"],
    "simplex": ["--m", "4"],
    "harmonic": ["--q", "11"],
    "repeated-onb": ["--m", "2", "--copies", "3"],
}


def test_sweep_options_cover_every_family():
    assert sorted(SWEEP_OPTIONS) == sorted(SWEEP_FAMILIES)


@pytest.mark.parametrize("kind", sorted(SWEEP_OPTIONS))
def test_construct_and_sweep_build_the_same_frame(kind, tmp_path):
    opts = SWEEP_OPTIONS[kind] + ["--seed", "5"]
    out = tmp_path / "f.json"
    assert main(["construct", "--kind", kind, *opts, "--out", str(out)]) == 0
    args = build_parser().parse_args(["sweep", "--family", kind, *opts, "--p", "0.5", "--d", "2"])
    [(_, frame)] = list(_sweep_frames(args, 5))
    assert frame.field == load_frame(out).field
    assert np.array_equal(frame.entries, load_frame(out).entries)


def test_sweep_empty_probability_list_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--family", "harmonic", "--q", "3", "--p", "", "--d", "2"])
    assert exc.value.code == 2


def test_sweep_bad_family_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--family", "mystery", "--p", "0.5", "--d", "2"])
    assert exc.value.code == 2


def test_construct_ignores_the_environment_for_its_seed(tmp_path, monkeypatch):
    out = tmp_path / "f.json"
    argv = ["construct", "--kind", "random", "--m", "2", "--n", "4", "--out", str(out)]
    monkeypatch.delenv("EWB_DEFAULT_SEED", raising=False)
    assert main(argv) == 0
    unset = out.read_bytes()
    monkeypatch.setenv("EWB_DEFAULT_SEED", "7")
    assert main(argv) == 0
    assert out.read_bytes() == unset
    assert json.loads(unset)["manifest"]["seed"] == 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("ewb ")


def test_manifest_goes_to_stderr_not_artifact(etf_file, tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(["moments", "--frame", etf_file, "--p", "0.5", "--d", "2",
                 "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "timestamp" in err  # stamped copy on stderr only
    assert "timestamp" not in out.read_text()


def test_stdout_output_when_no_out_flag(etf_file, capsys):
    assert main(["moments", "--frame", etf_file, "--p", "0.5", "--d", "2"]) == 0
    text = capsys.readouterr().out
    assert "p,d,method,value,stderr" in text
    assert "0.625" in text


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_construct_nearest_utf_rejects_non_finite_tolerance(tmp_path, capsys, tol):
    src, dst = tmp_path / "src.json", tmp_path / "dst.json"
    assert main(["construct", "--kind", "random", "--m", "3", "--n", "6", "--seed", "4",
                 "--out", str(src)]) == 0
    capsys.readouterr()
    assert main(["construct", "--kind", "nearest-utf", "--frame", str(src), "--tol", tol,
                 "--out", str(dst)]) == 2
    assert "tol" in capsys.readouterr().err
    assert not dst.exists()


def test_construct_refuses_non_finite_manifest_without_a_file(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert main(["construct", "--kind", "simplex", "--m", "2", "--tol", "nan",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


BOUND_SIMPLEX_JSON = """{
 "frame": {
  "construction": {
   "kind": "simplex",
   "m": 2
  },
  "field": "real",
  "m": 2,
  "n": 3,
  "source": "simplex.json"
 },
 "manifest": {
  "command": "bound",
  "generator": "philox4x64",
  "params": {
   "d": [
    2,
    3,
    4
   ],
   "frame": "simplex.json",
   "p": [
    0.5
   ],
   "tol": 1e-09
  },
  "version": "0.1.0"
 },
 "reports": [
  {
   "bound": 0.625,
   "d": 2,
   "equality_class": "ETF-equality",
   "m": 2,
   "moment": 0.625,
   "n": 3,
   "p": 0.5,
   "slack": 0.0
  },
  {
   "bound": 0.84375,
   "d": 3,
   "equality_class": "ETF-equality",
   "m": 2,
   "moment": 0.8437500000000002,
   "n": 3,
   "p": 0.5,
   "slack": 2.220446049250313e-16
  },
  {
   "bound": 1.1875,
   "d": 4,
   "equality_class": "ETF-equality",
   "m": 2,
   "moment": 1.1875000000000004,
   "n": 3,
   "p": 0.5,
   "slack": 4.440892098500626e-16
  }
 ]
}
"""


def test_bound_json_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "--kind", "simplex", "--m", "2", "--out", "simplex.json"]) == 0
    capsys.readouterr()
    assert main(["bound", "--frame", "simplex.json", "--p", "0.5", "--d", "2,3,4"]) == 0
    assert capsys.readouterr().out == BOUND_SIMPLEX_JSON


MANOVA_TABLE_CSV = """\
# manifest: {"command": "manova", "generator": "philox4x64", "params": {"d": [1, 2, 3, 4, 5, 6, 8], "gamma": 0.4, "p": 0.3}, "version": "0.1.0"}
# atom_location=2.5 atom_weight=0
gamma,p,d,closed,numeric,abs_err\r
0.40000000000000002,0.29999999999999999,1,0.29999999999999999,0.29999999999999993,5.5511151231257827e-17\r
0.40000000000000002,0.29999999999999999,2,0.435,0.435,0\r
0.40000000000000002,0.29999999999999999,3,0.72524999999999995,0.72524999999999995,0\r
0.40000000000000002,0.29999999999999999,4,1.2973124999999999,1.2973124999999999,0\r
0.40000000000000002,0.29999999999999999,5,2.4218793749999996,2.4218793750000005,8.8817841970012523e-16\r
0.40000000000000002,0.29999999999999999,6,4.6538993437499991,4.65389934375,8.8817841970012523e-16\r
0.40000000000000002,0.29999999999999999,8,18.210503997890623,18.210503997890626,3.5527136788005009e-15\r
"""


def test_manova_table_bytes_are_pinned(capsys):
    assert main(["manova", "--gamma", "0.4", "--p", "0.3", "--d", "1,2,3,4,5,6,8"]) == 0
    assert capsys.readouterr().out == MANOVA_TABLE_CSV


def test_build_parser_builds_one_parser_per_process():
    assert build_parser() is build_parser()


def _lone_run(argv, out):
    """The bytes of argv's artifact from a parser built for this run alone."""
    build_parser.cache_clear()
    assert main(argv) == 0
    return out.read_bytes()


def test_options_and_defaults_do_not_leak_between_calls(etf_file, tmp_path):
    out = tmp_path / "mc.csv"
    mc = ["moments", "--frame", etf_file, "--p", "0.5", "--d", "2", "--method", "mc",
          "--trials", "40", "--out", str(out)]
    lone = _lone_run(mc, out)
    assert main(mc + ["--seed", "5"]) == 0
    assert out.read_bytes() != lone
    assert main(mc) == 0
    assert out.read_bytes() == lone
    manifest = json.loads(lone.decode().splitlines()[0].removeprefix("# manifest: "))
    assert manifest["seed"] == 0 and "seed" not in manifest["params"]

    frame = tmp_path / "f.json"
    for kind, changed in (("repeated-onb", ["--copies", "3"]), ("random", ["--field", "complex"])):
        argv = ["construct", "--kind", kind, "--m", "2", "--n", "4", "--out", str(frame)]
        lone = _lone_run(argv, frame)
        assert main(argv + changed) == 0
        assert frame.read_bytes() != lone
        assert main(argv) == 0
        assert frame.read_bytes() == lone


@pytest.mark.parametrize("first,code", [(["moments", "--bogus"], 2), (["bound", "--help"], 0),
                                        (["--version"], 0), (["sweep", "--family", "x"], 2)])
def test_a_call_after_a_usage_exit_gives_the_usual_bytes(first, code, etf_file, tmp_path, capsys):
    out = tmp_path / "b.json"
    argv = ["bound", "--frame", etf_file, "--p", "0.5", "--d", "2,3,4", "--out", str(out)]
    lone = _lone_run(argv, out)
    with pytest.raises(SystemExit) as exc:
        main(first)
    assert exc.value.code == code
    out.unlink()
    capsys.readouterr()
    assert main(argv) == 0
    assert out.read_bytes() == lone
    assert capsys.readouterr().out == ""


def test_allocation_failure_exits_2(etf_file, tmp_path, monkeypatch, capsys):
    # raised by a stand-in, since whether a huge allocation fails depends on
    # the system's overcommit policy
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    out = tmp_path / "x.csv"
    monkeypatch.setattr(np, "linspace", out_of_memory)
    assert main(["manova", "--gamma", "0.5", "--p", "0.5", "--grid", "100000000000",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 745. GiB\n"
    monkeypatch.setattr(erasure_moments, "keep_masks", lambda *args: out_of_memory())
    assert main(["moments", "--frame", etf_file, "--p", "0.5", "--d", "2", "--method", "mc",
                 "--trials", "100000000000", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 745. GiB\n"
    assert not out.exists()
    # a MemoryError with no message still names what went wrong
    def bare(*args):
        raise MemoryError

    monkeypatch.setattr(erasure_moments, "keep_masks", bare)
    assert main(["moments", "--frame", etf_file, "--p", "0.5", "--d", "2", "--method", "mc",
                 "--trials", "10"]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_a_command_that_fails_while_writing_leaves_no_file(tmp_path, monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):  # a stand-in for the KS route's mask allocation
        raise MemoryError("Unable to allocate 5.33 PiB")

    out = tmp_path / "big.csv"
    monkeypatch.setattr(cli, "pooled_subset_eigenvalues", out_of_memory)
    assert main(["sweep", "--family", "random", "--m", "3", "--n", "6", "--p", "0.5", "--d", "2",
                 "--trials", "1000000000000000", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 5.33 PiB\n"
    assert not out.exists()


def test_every_readme_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    fenced = "\n".join(readme.split("```")[1::2]).replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in fenced.splitlines()
                if line.lstrip().startswith("ewb ")]
    assert len(commands) >= 12
    for argv in commands:  # argparse exits 2, failing the test, on a stale example
        assert build_parser().parse_args(argv[1:]).command == argv[1]


@pytest.mark.parametrize("argv, repeated", [
    (["moments", "--frame", "{f}", "--p", "0.5", "--d", "4,4"], "moment orders must not repeat, got 4"),
    (["moments", "--frame", "{f}", "--p", "0.5,0.2,0.5", "--d", "2", "--method", "mc",
      "--trials", "10"], "keep probabilities must not repeat, got 0.5"),
    (["moments", "--frame", "{f}", "--p", "0,-0.0", "--d", "2"],
     "keep probabilities must not repeat, got 0.0"),
    (["manova", "--gamma", "0.5", "--p", "0.5", "--d", "2,2"], "law orders must not repeat, got 2"),
    (["bound", "--frame", "{f}", "--p", "0.5,0.5", "--d", "2"], "keep probabilities must not repeat, got 0.5"),
    (["bound", "--frame", "{f}", "--p", "0.5", "--d", "3,2,3"], "bound orders must not repeat, got 3"),
    (["sweep", "--family", "simplex", "--m", "2,2", "--p", "0.5", "--d", "2"],
     "sweep --m values must not repeat, got 2"),
    (["sweep", "--family", "random", "--m", "2", "--n", "3,4,3", "--p", "0.5", "--d", "2"],
     "sweep --n values must not repeat, got 3"),
    (["sweep", "--family", "simplex", "--m", "2", "--p", "0.5", "--d", "2,2"],
     "sweep orders must not repeat, got 2"),
])
def test_a_repeated_list_value_exits_2_and_is_named(etf_file, tmp_path, capsys, argv, repeated):
    out = tmp_path / "out"
    assert main([a.format(f=etf_file) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {repeated} more than once\n"
    assert not out.exists()


@pytest.mark.parametrize("spellings", [
    [["moments", "--frame", "{f}", "--p", "0,0.5", "--d", "1,2"],
     ["moments", "--frame", "{f}", "--p=-0.0,0.5", "--d", "2,1"],
     ["moments", "--frame", "{f}", "--p", "0.5,0", "--d", "1,2"]],
    [["bound", "--frame", "{f}", "--p", "0,0.5", "--d", "2,3"],
     ["bound", "--frame", "{f}", "--p=-0.0,0.5", "--d", "3,2"],
     ["bound", "--frame", "{f}", "--p", "0.5,0", "--d", "2,3"]],
    [["manova", "--gamma", "0.5", "--p", "0.5", "--d", "1,3"],
     ["manova", "--gamma", "0.5", "--p", "0.5", "--d", "3,1"]],
    [["sweep", "--family", "simplex", "--m", "2,3", "--p", "0,0.5", "--d", "2,3", "--trials", "5"],
     ["sweep", "--family", "simplex", "--m", "3,2", "--p=-0.0,0.5", "--d", "3,2", "--trials", "5"],
     ["sweep", "--family", "simplex", "--m", "2,3", "--p", "0.5,0", "--d", "2,3", "--trials", "5"]],
    [["sweep", "--family", "random", "--m", "2", "--n", "3,4", "--p", "0,0.5", "--d", "2"],
     ["sweep", "--family", "random", "--m", "2", "--n", "4,3", "--p=-0.0,0.5", "--d", "2"]],
], ids=["moments", "bound", "manova", "sweep-simplex", "sweep-random"])
def test_the_manifest_records_list_options_as_the_rows_use_them(etf_file, tmp_path, spellings):
    out, texts = tmp_path / "out", []  # the same path, which the manifest names
    for argv in spellings:
        assert main([a.format(f=etf_file) for a in argv] + ["--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts == texts[:1] * len(spellings)
    assert b"-0.0" not in texts[0]


@pytest.mark.parametrize("method", ["poly", "brute", "mc"])
def test_moments_read_minus_zero_probability_as_zero(etf_file, tmp_path, method):
    rows = {}
    for p in ("-0.0", "0"):
        out = tmp_path / f"{p}.csv"
        assert main(["moments", "--frame", etf_file, "--p", p, "--d", "1,2", "--method", method,
                     "--trials", "10", "--out", str(out)]) == 0
        rows[p] = read_csv(out)[1]
    assert rows["-0.0"] == rows["0"]
    assert [row[0] for row in rows["0"][1:]] == ["0", "0"]
    assert "-0" not in [cell for row in rows["0"][1:] for cell in row]


def test_a_sidecar_without_its_frame_file_exits_2_as_a_missing_file(etf_file, tmp_path, capsys):
    Path(etf_file).unlink()
    assert frames._cache_path(etf_file).is_file()
    missing = str(tmp_path / "never.json")
    for path in (etf_file, missing):
        assert main(["bound", "--frame", path, "--p", "0.5", "--d", "2"]) == 2
    errs = capsys.readouterr().err.splitlines()
    assert errs == [f"error: [Errno 2] No such file or directory: {p!r}" for p in (etf_file, missing)]


def test_construct_to_a_special_file_writes_no_sidecar(tmp_path):
    out = tmp_path / "null.json"
    out.symlink_to(os.devnull)
    assert main(["construct", "--kind", "harmonic", "--q", "7", "--out", str(out)]) == 0
    assert list(tmp_path.iterdir()) == [out]


def test_a_write_that_fails_through_a_symlink_leaves_the_symlink(tmp_path, monkeypatch, capsys):
    # --out /dev/stdout piped into `head -c1` fails with BrokenPipeError; only
    # a regular file is removed, so a symlink (or device) stays
    out = tmp_path / "null.json"
    out.symlink_to(os.devnull)

    def broken_pipe(*args):
        raise BrokenPipeError(32, "Broken pipe")

    with monkeypatch.context() as patch:
        patch.setattr(frames, "_row_texts", broken_pipe)
        with pytest.raises(BrokenPipeError):
            frames.save_frame(frames.harmonic_etf(7), out)
    assert out.is_symlink()
    etf = tmp_path / "etf.json"
    frames.save_frame(frames.harmonic_etf(7), etf)

    class BrokenPipe:
        write = broken_pipe

    @contextmanager
    def writing(path, **kwargs):
        with frames.writing(path, **kwargs):
            yield BrokenPipe()

    monkeypatch.setattr(cli, "writing", writing)
    assert main(["bound", "--frame", str(etf), "--p", "0.5", "--d", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
    assert out.is_symlink()


def test_commands_give_the_same_bytes_with_and_without_the_sidecar(tmp_path, capsys, monkeypatch):
    names = {"real.json": ["--kind", "random", "--m", "3", "--n", "7", "--seed", "4"],
             "complex.json": ["--kind", "random", "--m", "2", "--n", "6", "--field", "complex"]}
    for name, kind in names.items():
        assert main(["construct", *kind, "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    commands = [
        ["bound", "--p", "0.2,0.7", "--d", "2,3,4"],
        ["moments", "--p", "0.3,0.9", "--d", "1,2,3,4", "--method", "poly"],
        ["moments", "--p", "0.3,0.9", "--d", "1,2,3,4", "--method", "brute"],
        ["moments", "--p", "0.3,0.9", "--d", "2,4", "--method", "mc", "--trials", "64", "--seed", "5"],
        ["construct", "--kind", "nearest-utf"],
    ]
    runs = {}
    for sidecar in (True, False):
        if not sidecar:
            for name in names:
                frames._cache_path(tmp_path / name).unlink()
        parses = []
        decode = frames._decode_frame_json
        monkeypatch.setattr(frames, "_decode_frame_json", lambda fh: parses.append(fh) or decode(fh))
        for name in names:
            for i, command in enumerate(commands):
                out = tmp_path / f"{name}-{i}.out"  # the same path, which the manifest names
                assert main([*command, "--frame", str(tmp_path / name), "--out", str(out)]) == 0
                std = capsys.readouterr()
                err = "".join(ln for ln in std.err.splitlines(True) if not ln.startswith("manifest: "))
                runs[sidecar, name, i] = (out.read_bytes(), std.out, err)
        monkeypatch.undo()
        assert len(parses) == (0 if sidecar else len(names) * len(commands))
    for key in runs:
        if key[0]:
            assert runs[key] == runs[(False,) + key[1:]], key

import csv
import gc
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewb import bounds, cli, frames, load_frame, spectral
from ewb.bounds import BoundParams, BoundReport
from ewb.cli import SWEEP_FAMILIES, _sweep_frames, build_parser, main


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


def test_construct_random_byte_deterministic(tmp_path):
    out = tmp_path / "r.json"
    args = ["construct", "--kind", "random", "--m", "2", "--n", "5", "--seed", "3",
            "--field", "complex", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


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
    raw = json.loads(open(etf_file).read())
    raw["data"][0][0] = 5.0  # breaks the unit-norm invariant
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["bound", "--frame", str(bad), "--p", "0.5", "--d", "2"]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_bound_reads_and_decodes_frame_file_once(etf_file, tmp_path, monkeypatch):
    reads, decodes = [], []
    read_text, loads = Path.read_text, json.loads

    def counting_read_text(self, *args, **kwargs):
        reads.append(str(self))
        return read_text(self, *args, **kwargs)

    def counting_loads(text, *args, **kwargs):
        decodes.append(len(text))
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    monkeypatch.setattr(json, "loads", counting_loads)
    out = tmp_path / "b.json"
    assert main(["bound", "--frame", etf_file, "--p", "0.5", "--d", "2", "--out", str(out)]) == 0
    monkeypatch.undo()
    assert reads == [etf_file]
    assert len(decodes) == 1
    assert json.loads(out.read_text())["frame"]["construction"]["kind"] == "simplex"


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


def test_manova_rejects_bad_gamma():
    assert main(["manova", "--gamma", "1.5", "--p", "0.5"]) == 2


@pytest.mark.parametrize("extra", [[], ["--grid", "5"]])
def test_manova_rejects_bad_order_before_any_output(tmp_path, capsys, extra):
    out = tmp_path / "t.csv"
    assert main(["manova", "--gamma", "0.5", "--p", "0.5", "--d", "1,5",
                 "--out", str(out)] + extra) == 2
    assert not out.exists()
    assert "law orders must be in 1..4" in capsys.readouterr().err


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
    report = BoundReport(moment=nan, bound=0.5, slack=nan, equality_class="strict",
                         params=BoundParams(m=2, n=3, p=0.5, d=2))
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


def test_seed_env_fallback(tmp_path, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    monkeypatch.setenv("EWB_DEFAULT_SEED", "7")
    assert main(["construct", "--kind", "random", "--m", "2", "--n", "4",
                 "--out", str(a)]) == 0
    monkeypatch.delenv("EWB_DEFAULT_SEED")
    assert main(["construct", "--kind", "random", "--m", "2", "--n", "4",
                 "--seed", "7", "--out", str(b)]) == 0
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    assert da["data"] == db["data"]
    assert da["manifest"]["seed"] == db["manifest"]["seed"] == 7


def test_seed_env_invalid(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EWB_DEFAULT_SEED", "not-a-number")
    assert main(["construct", "--kind", "random", "--m", "2", "--n", "4",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert "EWB_DEFAULT_SEED" in capsys.readouterr().err


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

"""The benchmark's three workloads: job lists, input files and output checks.

A plan is a pure function of the workload name and the workload seed: the
same seed gives the same job list and byte-identical input files.  The seed
varies values (frame seeds, keep probabilities, law parameters), never the
sizes, so every seed asks for the same amount of work.

Every job writes one artifact through ``--out`` and is checked against an
independent route at the acceptance gate's tolerances.  No check compares
against stored artifact digests.
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from ewb.bounds import ETF_EQUALITY, UTF_EQUALITY, erasure_welch_bound  # noqa: E402
from ewb.erasure_moments import moment_polynomial  # noqa: E402
from ewb.frames import load_frame, random_frame, save_frame  # noqa: E402
from ewb.manova import ManovaParams, cdf_many  # noqa: E402

WORKLOADS = ("sweep-ks", "moments-mc", "bound-exact")

SLACK_TOL = 1e-9  # no report may have slack below -SLACK_TOL
BRUTE_TOL = 1e-10  # |brute - poly|
EQUALITY_TOL = 1e-9  # |poly - bound| on frames that attain the bound
LAW_TOL = 1e-6  # |closed - quadrature| law moments
DENSITY_RTOL = 1e-5  # density grid against a central difference of the CDF
MC_Z_LIMIT = 6.0  # |Monte Carlo - poly| / stderr

# sweep-ks: the paper's comparison of subset spectra against the MANOVA law
SWEEP_CELLS = tuple((m, n) for m in (4, 8, 16) for n in (16, 32, 64) if n >= m)
SWEEP_REPEATS = 2
SWEEP_P = "0.1,0.3,0.5,0.7,0.9"
SWEEP_D = "2,3,4"
SWEEP_TRIALS = 200

# moments-mc: the batched masked-trace kernel; 2048 trials fill one kernel chunk
MC_CELLS = ((4, 16), (8, 32), (16, 64))
MC_P_PER_CELL = 6
MC_TRIALS = 2048

# bound-exact: constructions, frame I/O, bound reports, the 2^n oracle, law tables
HARMONIC_Q = (131, 251, 503)
SIMPLEX_M = 24
ONB = (8, 3)  # m, copies
NU_SRC = (4, 10)  # m, n of the random frame nearest-utf starts from
BRUTE_M, BRUTE_N = 4, (12, 14, 16)
BOUND_P_COUNT = 3
LAW_POINTS = 4
DENSITY_GRID = 200


@dataclass(frozen=True)
class InputFrame:
    """A random frame the set-up writes before the first job."""

    name: str
    m: int
    n: int
    field: str
    seed: int


@dataclass(frozen=True)
class Job:
    """One ``ewb.cli.main`` call, the artifact it writes and how to check it.

    ``ref`` holds what the check needs: expected frame sizes and equality
    class, or the input frame that an independent route recomputes from.
    """

    argv: tuple
    out: str
    check: str
    ref: tuple = ()


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    inputs: tuple
    jobs: tuple
    uses_law_tables: bool


def _prob(rng: random.Random, lo: float = 0.05, hi: float = 0.95) -> float:
    return round(rng.uniform(lo, hi), 4)


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _sweep_ks(rng):
    jobs = []
    for rep in range(SWEEP_REPEATS):
        for m, n in SWEEP_CELLS:
            out = f"sweep_{m}x{n}_{rep}.csv"
            argv = ("sweep", "--family", "random", "--m", str(m), "--n", str(n),
                    "--seed", str(_seed(rng)), "--p", SWEEP_P, "--d", SWEEP_D,
                    "--trials", str(SWEEP_TRIALS), "--out", out)
            jobs.append(Job(argv=argv, out=out, check="sweep"))
    return (), jobs


def _moments_mc(rng):
    inputs = tuple(
        InputFrame(f"mc_{m}x{n}.json", m, n, "complex", _seed(rng)) for m, n in MC_CELLS
    )
    jobs = []
    for k in range(MC_P_PER_CELL):
        for frame in inputs:
            p = _prob(rng)
            out = f"mc_{frame.m}x{frame.n}_{k}.csv"
            argv = ("moments", "--frame", frame.name, "--p", str(p), "--d", "4",
                    "--method", "mc", "--trials", str(MC_TRIALS),
                    "--seed", str(_seed(rng)), "--out", out)
            jobs.append(Job(argv=argv, out=out, check="mc", ref=(frame.name,)))
    return inputs, jobs


def _bound_exact(rng):
    ps = ",".join(str(p) for p in sorted(_prob(rng) for _ in range(BOUND_P_COUNT)))
    src = InputFrame("nu_src.json", NU_SRC[0], NU_SRC[1], "complex", _seed(rng))
    brute = tuple(InputFrame(f"br{n}.json", BRUTE_M, n, "real", _seed(rng)) for n in BRUTE_N)
    # (name, construct arguments, m, n, class the frame attains the bound with)
    constructions = [
        (f"h{q}", ("--kind", "harmonic", "--q", str(q)), (q + 1) // 2, q, ETF_EQUALITY)
        for q in HARMONIC_Q
    ]
    constructions += [
        ("simplex", ("--kind", "simplex", "--m", str(SIMPLEX_M)),
         SIMPLEX_M, SIMPLEX_M + 1, ETF_EQUALITY),
        ("onb", ("--kind", "repeated-onb", "--m", str(ONB[0]), "--copies", str(ONB[1])),
         ONB[0], ONB[0] * ONB[1], UTF_EQUALITY),
        ("nu", ("--kind", "nearest-utf", "--frame", src.name), src.m, src.n, UTF_EQUALITY),
    ]
    jobs = []
    for name, kind_args, m, n, cls in constructions:
        frame = f"{name}.json"
        ref = (m, n, cls)
        jobs.append(Job(argv=("construct", *kind_args, "--out", frame), out=frame,
                        check="construct", ref=ref))
        out = f"{name}_bound.json"
        jobs.append(Job(argv=("bound", "--frame", frame, "--p", ps, "--d", "2,3,4",
                              "--out", out), out=out, check="bound", ref=ref))
        out = f"{name}_poly.csv"
        jobs.append(Job(argv=("moments", "--frame", frame, "--p", ps, "--d", "1,2,3,4",
                              "--method", "poly", "--out", out), out=out, check="poly",
                        ref=ref))
    for frame in brute:
        out = f"br{frame.n}_brute.csv"
        jobs.append(Job(argv=("moments", "--frame", frame.name, "--p", ps, "--d", "1,2,3,4",
                              "--method", "brute", "--out", out), out=out, check="brute",
                        ref=(frame.name,)))
    for k in range(LAW_POINTS):
        gamma, p = _prob(rng, 0.1, 0.9), _prob(rng)
        law = ("manova", "--gamma", str(gamma), "--p", str(p))
        out = f"law_{k}.csv"
        jobs.append(Job(argv=(*law, "--out", out), out=out, check="law"))
        out = f"density_{k}.csv"
        jobs.append(Job(argv=(*law, "--grid", str(DENSITY_GRID), "--out", out), out=out,
                        check="density", ref=(gamma, p)))
    return (src, *brute), jobs


_PLANS = {"sweep-ks": _sweep_ks, "moments-mc": _moments_mc, "bound-exact": _bound_exact}


def plan(workload: str, seed: int) -> Plan:
    """The job list and input frames of one workload at one seed."""
    if workload not in _PLANS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    inputs, jobs = _PLANS[workload](random.Random(f"{workload}:{seed}"))
    return Plan(workload=workload, seed=seed, inputs=tuple(inputs), jobs=tuple(jobs),
                uses_law_tables=workload == "sweep-ks")


def write_inputs(p: Plan, workdir: Path) -> None:
    for f in p.inputs:
        save_frame(random_frame(f.m, f.n, f.field, f.seed), Path(workdir) / f.name)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


class CheckError(Exception):
    """An artifact disagrees with its independent route."""


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _finite(text: str, what: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise CheckError(f"{what} is not a number: {text!r}")
    if not math.isfinite(v):
        raise CheckError(f"{what} is not finite: {text!r}")
    return v


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class Checker:
    """Checks artifacts in a work directory; reference values are computed
    once per input frame and reused across rounds."""

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self._polys = {}

    def _poly(self, frame_file: str, d: int):
        key = (frame_file, d)
        if key not in self._polys:
            self._polys[key] = moment_polynomial(load_frame(self.workdir / frame_file), d)
        return self._polys[key]

    def check(self, job: Job, stdout: str) -> None:
        """Raise CheckError unless the job's artifact passes its check."""
        getattr(self, "_check_" + job.check)(job, self.workdir / job.out, stdout)

    def _check_sweep(self, job, path, stdout):
        rows = _rows(path)
        _require(len(rows) == 5 * 3, f"expected 15 sweep rows, got {len(rows)}")
        for row in rows:
            _require(row["error"] == "", f"sweep row error: {row['error']}")
            slack = _finite(row["slack"], "slack")
            _require(slack >= -SLACK_TOL, f"slack {slack:.3e} below -{SLACK_TOL}")
            ks = _finite(row["ks_distance"], "ks_distance")
            _require(0.0 <= ks <= 1.0, f"KS distance {ks} outside [0, 1]")

    def _check_mc(self, job, path, stdout):
        rows = _rows(path)
        _require(len(rows) == 1, f"expected one Monte Carlo row, got {len(rows)}")
        for row in rows:
            p, d = float(row["p"]), int(row["d"])
            value = _finite(row["value"], "value")
            stderr = _finite(row["stderr"], "stderr")
            _require(stderr > 0.0, "Monte Carlo stderr is not positive")
            z = (value - self._poly(job.ref[0], d).evaluate(p)) / stderr
            _require(abs(z) <= MC_Z_LIMIT, f"Monte Carlo z = {z:.2f} at p={p}, d={d}")

    def _check_construct(self, job, path, stdout):
        m, n, cls = job.ref
        _require(f"m={m} n={n} " in stdout, f"construct did not report m={m} n={n}")
        _require("is_utf=True" in stdout, "constructed frame is not reported as a UTF")
        if cls == ETF_EQUALITY:
            _require("is_etf=True" in stdout, "constructed frame is not reported as an ETF")

    def _check_bound(self, job, path, stdout):
        m, n, cls = job.ref
        obj = json.loads(path.read_text())
        _require((obj["frame"]["m"], obj["frame"]["n"]) == (m, n), "frame sizes differ")
        reports = obj["reports"]
        _require(len(reports) == BOUND_P_COUNT * 3, f"expected 9 reports, got {len(reports)}")
        for r in reports:
            _require(r["slack"] >= -SLACK_TOL, f"slack {r['slack']:.3e} below -{SLACK_TOL}")
            if cls == ETF_EQUALITY or r["d"] in (2, 3):
                _require(r["equality_class"] == cls,
                         f"d={r['d']} p={r['p']}: {r['equality_class']}, expected {cls}")

    def _check_poly(self, job, path, stdout):
        m, n, cls = job.ref
        rows = _rows(path)
        _require(len(rows) == BOUND_P_COUNT * 4, f"expected 12 rows, got {len(rows)}")
        for row in rows:
            p, d = float(row["p"]), int(row["d"])
            value = _finite(row["value"], "value")
            if d == 1:
                _require(abs(value - p) <= 1e-12, f"m_1 = {value} differs from p = {p}")
                continue
            bound = erasure_welch_bound(m, n, p, d)
            if cls == ETF_EQUALITY or d in (2, 3):
                _require(abs(value - bound) <= EQUALITY_TOL,
                         f"d={d} p={p}: moment {value} differs from bound {bound}")
            else:
                _require(value - bound >= -SLACK_TOL, f"d={d} p={p}: moment below bound")

    def _check_brute(self, job, path, stdout):
        rows = _rows(path)
        _require(len(rows) == BOUND_P_COUNT * 4, f"expected 12 rows, got {len(rows)}")
        for row in rows:
            p, d = float(row["p"]), int(row["d"])
            value = _finite(row["value"], "value")
            want = self._poly(job.ref[0], d).evaluate(p)
            _require(abs(value - want) <= BRUTE_TOL,
                     f"d={d} p={p}: |brute - poly| = {abs(value - want):.3e}")

    def _check_law(self, job, path, stdout):
        rows = _rows(path)
        _require(len(rows) == 4, f"expected 4 law moments, got {len(rows)}")
        for row in rows:
            closed = _finite(row["closed"], "closed")
            numeric = _finite(row["numeric"], "numeric")
            _require(abs(closed - numeric) <= LAW_TOL and float(row["abs_err"]) <= LAW_TOL,
                     f"d={row['d']}: |closed - numeric| = {abs(closed - numeric):.3e}")

    def _check_density(self, job, path, stdout):
        rows = _rows(path)
        _require(len(rows) == DENSITY_GRID, f"expected {DENSITY_GRID} grid rows, got {len(rows)}")
        ts = np.array([_finite(r["t"], "t") for r in rows])
        vals = np.array([_finite(r["density"], "density") for r in rows])
        _require(bool(np.all(vals >= 0.0)), "negative density")
        params = ManovaParams(gamma=job.ref[0], p=job.ref[1])
        h = 1e-5 * (ts[-1] - ts[0])
        inner = ts[2:-2]
        slope = (cdf_many(inner + h, params) - cdf_many(inner - h, params)) / (2.0 * h)
        err = float(np.max(np.abs(slope - vals[2:-2]))) / float(np.max(vals))
        _require(err <= DENSITY_RTOL, f"density differs from the CDF slope by {err:.3e}")

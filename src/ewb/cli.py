"""Command line surface: construct frames, compute erased moments, verify
bounds, tabulate the MANOVA law, and sweep parameter grids to plot-ready CSV.

Conventions
-----------
- Exit codes: 0 success, 1 a bound violation was detected, 2 usage or
  validation error, an allocation that fails (MemoryError) included.
  Usage errors, --help and --version leave main() through argparse's SystemExit.
- main(argv) parses with the one parser build_parser() builds per process;
  each parse fills a fresh Namespace, so no option leaks between calls.
- --seed defaults to 0, so an artifact depends only on the command line;
  main() rejects a negative seed before any command runs.
- Every float is printed with 17 significant digits so identical runs diff
  byte-for-byte.
- Each artifact embeds its run manifest (command, parameters, seeds, library
  version, generator name); a timestamped copy of the manifest goes to
  stderr so artifact bytes stay deterministic.
- CSV outputs are long format (one observation per row), with manifest and
  metadata carried on leading '#' comment lines.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import sys
from contextlib import nullcontext
from datetime import datetime, timezone

import numpy as np

from . import __version__
from ._checks import integer, within
from .bounds import VIOLATION, check_theorem
from .erasure_moments import (
    ErasureModel,
    bruteforce_table,
    moment_polynomial,
    montecarlo_moment,
)
from .frames import (
    Frame,
    coherence,
    harmonic_etf,
    is_etf,
    is_utf,
    nearest_utf,
    random_frame,
    read_frame,
    repeated_onb,
    save_frame,
    simplex_etf,
    writing,
)
from .manova import (
    AtomicOnlyError,
    ManovaParams,
    QuadratureError,
    density,
    moment_closed,
    moment_numeric,
    support,
)
from .rng import GENERATOR_NAME
from .spectral import ks_distance, pooled_subset_eigenvalues
from .spectral import pool_eigenvalues, subset_spectrum_samples  # noqa: F401 (bench/tracing.py wraps them)


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _list_of(kind):
    """argparse type for a nonempty comma-separated list of kind (int or float)."""

    def parse(text: str):
        try:
            vals = [kind(tok) for tok in text.split(",") if tok.strip() != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated {kind.__name__} list, got {text!r}"
            )
        if not vals:
            raise argparse.ArgumentTypeError("list must be nonempty")
        return vals

    return parse


_floats = _list_of(float)
_ints = _list_of(int)


def _sorted_within(vals, what: str, lo=-math.inf, hi=math.inf) -> list:
    """vals sorted, after checking that every value lies in lo..hi (NaN never
    does) and that none repeats; -0.0 reads as 0.0.  Commands write the result
    back to args, so that the manifest records a list as the rows use it."""
    vals = sorted(within(v, what, lo, hi) + 0 for v in vals)  # -0.0 + 0 is 0.0
    for a, b in zip(vals, vals[1:]):
        if a == b:
            raise ValueError(f"{what} must not repeat, got {a} more than once")
    return vals


def _resolve_seed(args) -> int:
    return 0 if args.seed is None else args.seed


def _manifest(args, seed=None) -> dict:
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "command") and v is not None
    }
    man = {
        "command": args.command,
        "params": params,
        "version": __version__,
        "generator": GENERATOR_NAME,
    }
    if seed is not None:
        man["seed"] = seed
    return man


def _log_manifest(man: dict) -> None:
    stamped = dict(man)
    stamped["timestamp"] = datetime.now(timezone.utc).isoformat()
    print("manifest: " + json.dumps(stamped, sort_keys=True), file=sys.stderr)


def _out_stream(path):
    """--out opened for writing (a regular file is removed if the command fails
    while it writes: no partial artifact), or stdout when --out is unset."""
    if path:
        return writing(path, newline="")
    return nullcontext(sys.stdout)


def _write_csv(args, man: dict, header, rows, notes=()) -> None:
    """Write a CSV artifact to --out (stdout when unset): the manifest line,
    one '# ' line per note, the header and the rows; then log the manifest."""
    with _out_stream(args.out) as fh:
        fh.write("# manifest: " + json.dumps(man, sort_keys=True) + "\n")
        for note in notes:
            fh.write(f"# {note}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    _log_manifest(man)


def load_frame(path) -> tuple[Frame, dict]:
    """The frame in a frame file and its construction record ({} when the file
    has none), from one parse.  Every command reads frames through this name,
    which bench/tracing.py wraps."""
    frame, extra = read_frame(path)
    meta = extra.get("construction")
    return frame, meta if isinstance(meta, dict) else {}


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _nearest_utf(a) -> Frame:
    result = nearest_utf(load_frame(a.frame)[0], max_iters=a.max_iters, tol=a.tol)
    a.source, a.residual = a.frame, result.residual
    a.iterations, a.converged = result.iterations, result.converged
    if not result.converged:
        print(
            f"warning: projection residual {result.residual:.3e} above tolerance "
            f"after {result.iterations} iterations",
            file=sys.stderr,
        )
    return result.frame


# kind -> (options it needs, construction-record keys read back from the
# options after the build, builder).  A builder takes the parsed options with
# scalar values; it looks constructors up in this module when it runs.
CONSTRUCTIONS = {
    "random": (("m", "n"), ("m", "n", "field", "seed", "generator"),
               lambda a: random_frame(a.m, a.n, a.field, a.seed)),
    "simplex": (("m",), ("m",), lambda a: simplex_etf(a.m)),
    "harmonic": (("q",), ("q",), lambda a: harmonic_etf(a.q)),
    "repeated-onb": (("m",), ("m", "copies"), lambda a: repeated_onb(a.m, a.copies)),
    "nearest-utf": (("frame",), ("source", "residual", "iterations", "converged"), _nearest_utf),
}
# sweeps build from option lists, so kinds that read a frame file are construct-only
SWEEP_FAMILIES = [k for k, (needs, _, _) in CONSTRUCTIONS.items() if "frame" not in needs]


def _require(args, needs, what: str) -> None:
    if any(getattr(args, k) is None for k in needs):
        raise ValueError(f"{what} needs " + " and ".join(f"--{k}" for k in needs))


def cmd_construct(args) -> int:
    needs, recorded, build = CONSTRUCTIONS[args.kind]
    _require(args, needs, f"{args.kind} construction")
    seed = _resolve_seed(args) if "seed" in recorded else None
    a = argparse.Namespace(**{**vars(args), "seed": seed, "generator": GENERATOR_NAME})
    frame = build(a)
    meta = {"kind": args.kind, **{k: getattr(a, k) for k in recorded}}

    man = _manifest(args, seed=seed)
    save_frame(frame, args.out, extra={"construction": meta, "manifest": man})
    _log_manifest(man)

    print(f"m={frame.m} n={frame.n} field={frame.field}")
    print(f"is_utf={is_utf(frame)} is_etf={is_etf(frame)}")
    if frame.n >= 2:
        rep = coherence(frame)
        print(
            f"rms_sq={_fmt(rep.rms_sq)} max_sq={_fmt(rep.max_sq)} "
            f"welch_floor={_fmt(rep.welch_floor)}"
        )
    return 0


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def cmd_moments(args) -> int:
    frame, _ = load_frame(args.frame)
    ps = args.p = _sorted_within(args.p, "keep probabilities", 0.0, 1.0)
    ds = args.d = _sorted_within(args.d, "moment orders", 1, 64)
    seed = None
    if args.method == "mc":
        if args.trials is None:
            raise ValueError("method mc needs --trials")
        seed = _resolve_seed(args)

    # moments(p) -> one (value, stderr column) per order in ds, from one call per p
    if args.method == "poly":
        polys = [moment_polynomial(frame, d) for d in ds]

        def moments(p):
            return [(poly.evaluate(p), "") for poly in polys]
    elif args.method == "brute":
        table = bruteforce_table(frame, d_max=max(ds))

        def moments(p):
            return [(table.moment(p, d), "") for d in ds]
    else:
        def moments(p):
            est = montecarlo_moment(frame, ErasureModel(p=p, seed=seed), max(ds), args.trials,
                                    orders=ds)
            return [(value, _fmt(stderr)) for value, stderr in zip(est.values, est.stderrs)]

    rows = [[_fmt(p), d, args.method, _fmt(value), stderr]
            for p in ps for d, (value, stderr) in zip(ds, moments(p))]
    _write_csv(args, _manifest(args, seed=seed), ["p", "d", "method", "value", "stderr"], rows)
    return 0


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def cmd_bound(args) -> int:
    frame, construction = load_frame(args.frame)
    ds = args.d = _sorted_within(args.d, "bound orders", 2, 4)
    ps = args.p = _sorted_within(args.p, "keep probabilities", 0.0, 1.0)
    man = _manifest(args)
    reports = [check_theorem(frame, p, d, tol=args.tol) for p in ps for d in ds]
    obj = {
        "manifest": man,
        "frame": {
            "source": args.frame,
            "m": frame.m,
            "n": frame.n,
            "field": frame.field,
            "construction": construction,
        },
        "reports": [r.to_dict() for r in reports],
    }
    # serialized before the file opens, so a non-finite value leaves no file
    text = json.dumps(obj, indent=1, sort_keys=True, allow_nan=False)
    with _out_stream(args.out) as fh:
        fh.write(text + "\n")
    _log_manifest(man)
    if any(r.equality_class == VIOLATION for r in reports):
        print("error: bound violation detected", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# manova
# ---------------------------------------------------------------------------


def cmd_manova(args) -> int:
    args.p += 0  # -0.0 reads as 0.0 in the rows and the manifest, as in _sorted_within
    params = ManovaParams(gamma=args.gamma, p=args.p)
    # moment_closed costs grow like d^3; at d = 64 a row takes milliseconds
    if args.d is not None:
        args.d = _sorted_within(args.d, "law orders", 1, 64)
    ds = args.d or [1, 2, 3, 4]
    if args.grid is not None:
        within(args.grid, "density grid points", 1, math.inf)
    sup = support(params)
    notes = [f"atom_location={_fmt(sup.atom_location)} atom_weight={_fmt(sup.atom_weight)}"]
    rows = []
    if args.grid is not None:
        header = ["t", "density"]
        ts = np.linspace(sup.r_minus, sup.r_plus, args.grid)
        try:
            rows = [[_fmt(t), _fmt(v)] for t, v in zip(ts, density(ts, params))]
        except AtomicOnlyError as exc:
            notes.append(f"atomic-only: {exc}")
    else:
        header = ["gamma", "p", "d", "closed", "numeric", "abs_err"]
        for d in ds:
            closed = moment_closed(params, d)
            # the exact column stands without its quadrature oracle, which can
            # miss its tolerance or, at a tiny gamma, overflow where closed does not
            try:
                numeric = moment_numeric(params, d)
                checked = [_fmt(numeric), _fmt(abs(closed - numeric))]
            except (QuadratureError, ValueError) as exc:
                notes.append(f"d={d} numeric: {exc}")
                checked = ["", ""]
            rows.append([_fmt(params.gamma), _fmt(params.p), d, _fmt(closed)] + checked)
    _write_csv(args, _manifest(args), header, rows, notes)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_frames(args, seed: int):
    """(frame_seed, Frame) over the sorted option grid, walked lazily and built
    one at a time, so that only one frame's cached invariants are alive at once.
    Every cell's checks run in this call, before the first frame: each cell is
    built once at the first frame seed (the seeds only grow from there)."""
    needs, recorded, build = CONSTRUCTIONS[args.family]
    _require(args, needs, f"{args.family} sweep")
    for k in needs:
        setattr(args, k, _sorted_within(getattr(args, k), f"sweep --{k} values"))
    lists = [getattr(args, k) for k in needs]
    cells = [dict(zip(needs, vals)) for vals in itertools.product(*lists)]
    cells = [c for c in cells if "n" not in c or c["n"] >= c["m"]]
    if not cells:
        raise ValueError("no valid (m, n) pairs with n >= m in the sweep grid")
    seeds = range(seed, seed + args.num_seeds) if "seed" in recorded else [None]

    def frame(cell, frame_seed):
        return build(argparse.Namespace(**{**vars(args), **cell, "seed": frame_seed}))

    for cell in cells:
        frame(cell, seeds[0])
    return ((s, frame(cell, s)) for cell in cells for s in seeds)


def cmd_sweep(args) -> int:
    ds = args.d = _sorted_within(args.d, "sweep orders", 2, 4)
    ps = args.p = _sorted_within(args.p, "keep probabilities", 0.0, 1.0)
    if args.trials is not None:
        within(args.trials, "KS trials", 1, math.inf)
    within(args.num_seeds, "random frames per (m, n)", 1, math.inf)
    seed = _resolve_seed(args)
    frames = _sweep_frames(args, seed)  # the last check: the output opens after it
    violations = 0

    def rows():
        """Each CSV row as it is made, so that no row is kept."""
        nonlocal violations
        grid = ((seed_frame, p) for seed_frame in frames for p in ps)
        for counter, ((frame_seed, frame), p) in enumerate(grid):
            ks = err_ks = ""
            if args.trials:
                try:
                    # per-row erasure seed, fixed by position in the sorted grid
                    model = ErasureModel(p=p, seed=seed + 1_000_003 * counter)
                    pooled = pooled_subset_eigenvalues(frame, model, args.trials)
                    ks = _fmt(ks_distance(pooled, ManovaParams(gamma=frame.m / frame.n, p=p)))
                except ValueError as exc:
                    err_ks = f"ks: {exc}"
            for d in ds:
                base = [args.family, frame.m, frame.n, "" if frame_seed is None else frame_seed,
                        _fmt(p), d]
                try:
                    rep = check_theorem(frame, p, d)
                except ValueError as exc:
                    yield base + ["", "", "", ks, str(exc)]
                    continue
                violations += rep.equality_class == VIOLATION
                yield base + [_fmt(rep.moment), _fmt(rep.bound), _fmt(rep.slack), ks, err_ks]

    header = ["family", "m", "n", "seed", "p", "d", "moment", "bound", "slack", "ks_distance",
              "error"]
    _write_csv(args, _manifest(args, seed=seed), header, rows())
    if violations:
        print(f"error: {violations} bound violation(s) detected", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ewb parser, built on the first call; later calls return the same
    object.  Nothing mutates it after it is built, and each parse_args call
    fills a fresh Namespace, so no option value leaks from one call to the next."""
    parser = argparse.ArgumentParser(
        prog="ewb",
        description="Erased-frame moments, MANOVA law tables, and Welch-type bound checks.",
        epilog="Seeds: --seed, else 0.",
    )
    parser.add_argument("--version", action="version", version=f"ewb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a frame and write it as JSON")
    c.add_argument("--kind", required=True, choices=list(CONSTRUCTIONS))
    c.add_argument("--m", type=int)
    c.add_argument("--n", type=int)
    c.add_argument("--q", type=int)
    c.add_argument("--copies", type=int, default=2)
    c.add_argument("--field", choices=["real", "complex"], default="real")
    c.add_argument("--seed", type=int)
    c.add_argument("--frame", help="input frame file (nearest-utf only)")
    c.add_argument("--max-iters", type=int, default=500)
    c.add_argument("--tol", type=float, default=1e-9)
    c.add_argument("--out", required=True, help="output frame JSON path")
    c.set_defaults(func=cmd_construct)

    mo = sub.add_parser("moments", help="erased-moment table for a frame file")
    mo.add_argument("--frame", required=True)
    mo.add_argument("--p", type=_floats, required=True, help="comma list of keep probabilities")
    mo.add_argument("--d", type=_ints, required=True, help="comma list of moment orders in 1..64")
    mo.add_argument("--method", choices=["poly", "brute", "mc"], default="poly")
    mo.add_argument("--trials", type=int)
    mo.add_argument("--seed", type=int)
    mo.add_argument("--out")
    mo.set_defaults(func=cmd_moments)

    b = sub.add_parser("bound", help="erasure Welch bound reports for a frame file")
    b.add_argument("--frame", required=True)
    b.add_argument("--p", type=_floats, required=True)
    b.add_argument("--d", type=_ints, required=True)
    b.add_argument("--tol", type=float, default=1e-9)
    b.add_argument("--out")
    b.set_defaults(func=cmd_bound)

    ma = sub.add_parser("manova", help="MANOVA moment table or density grid as CSV")
    ma.add_argument("--gamma", type=float, required=True)
    ma.add_argument("--p", type=float, required=True)
    ma.add_argument("--d", type=_ints, help="moment orders in 1..64 (default 1,2,3,4)")
    ma.add_argument("--grid", type=int, help="emit the density on this many bulk grid points instead")
    ma.add_argument("--out")
    ma.set_defaults(func=cmd_manova)

    s = sub.add_parser("sweep", help="long-format CSV over a family / p / d grid")
    s.add_argument("--family", required=True, choices=SWEEP_FAMILIES)
    s.add_argument("--m", type=_ints)
    s.add_argument("--n", type=_ints)
    s.add_argument("--q", type=_ints)
    s.add_argument("--copies", type=int, default=2)
    s.add_argument("--field", choices=["real", "complex"], default="real")
    s.add_argument("--num-seeds", type=int, default=1, help="random frames per (m, n)")
    s.add_argument("--p", type=_floats, required=True)
    s.add_argument("--d", type=_ints, required=True)
    s.add_argument("--trials", type=int, help="erasure trials per row for the KS column")
    s.add_argument("--seed", type=int)
    s.add_argument("--out")
    s.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:  # manova has no --seed
            integer(args.seed, "seed", 0)
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The ewb benchmark: drives ``ewb.cli.main`` in-process as a closed loop.

    python3 bench/run.py --workload sweep-ks --seed 1 --seconds 30 --trace 0

One client sends each job only after the previous one returns.  A round is
the workload's job list for the seed; rounds repeat until ``--seconds`` have
passed.  With ``--trace 0`` the last stdout line reports the end-to-end
metrics; with ``--trace 1`` untraced and traced rounds alternate and it
reports the per-layer metrics of the traced rounds plus the tracing
overhead.  Every job's artifact is checked against an independent route
(see workloads.py), and every round's artifacts must be byte-identical to
the first round's, traced or not.

Run it from the root of a checkout; it imports ``ewb`` from ``src/`` and
writes only under ``.bench_run/``.
"""

import os

# one client and one BLAS thread; must be set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from tracing import PER_LAYER, Recorder, TracingError  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".bench_run"
MIN_TIMED_JOBS = 100  # so that at least ten jobs lie beyond job_p90_s

END_TO_END = (
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


@dataclass
class JobResult:
    seconds: float
    rc: object  # exit code, or None when main raised
    stdout: str
    stderr: str
    law_tables: int  # law tables cached when the job returned


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print the set-up time and exit")
    return ap.parse_args(argv)


def _law_cache() -> dict:
    cache = getattr(sys.modules["ewb.manova"], "_TABLE_CACHE", None)
    if not isinstance(cache, dict):
        raise BenchError("ewb.manova._TABLE_CACHE is gone; jobs can no longer start cold")
    return cache


def run_job(argv) -> JobResult:
    """One ``ewb.cli.main`` call with an empty law-table cache, as a fresh
    ``ewb`` process would have it.  ``main`` is looked up per call so that a
    traced round reaches its wrapper."""
    cache = _law_cache()
    cache.clear()
    out, err = io.StringIO(), io.StringIO()
    cli = sys.modules["ewb.cli"]
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception:  # a crash is a failed job, not a failed benchmark
        rc = None
        err.write(traceback.format_exc())
    seconds = perf_counter() - start
    return JobResult(seconds, rc, out.getvalue(), err.getvalue(), len(cache))


def set_up(workload: str, seed: int):
    """Import ewb, write the seed's inputs and run a warm-up job.

    Returns the plan, the work directory (now the current directory) and
    the seconds this took.
    """
    start = perf_counter()
    try:
        workloads = importlib.import_module("workloads")
        importlib.import_module("ewb.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import ewb from {ROOT / 'src'}: {exc}")
    origin = Path(sys.modules["ewb"].__file__).resolve()
    if not origin.is_relative_to(ROOT / "src"):
        raise BenchError(f"imported ewb from {origin}, not from this checkout")
    try:
        plan = workloads.plan(workload, seed)
    except ValueError as exc:
        raise BenchError(str(exc))
    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUN_DIR))
    try:
        workloads.write_inputs(plan, workdir)
        os.chdir(workdir)
        warm = run_job(plan.jobs[0].argv)
        if warm.rc != 0:
            raise BenchError(f"warm-up job failed with {warm.rc}: {warm.stderr[-500:]}")
    except BaseException:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    return plan, workdir, perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of a fresh process."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("set-up probe took more than 120 s")
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_round(plan, rec=None, job_offset=0):
    """The job list once; returns the job results and the loop's wall time."""
    results = []
    start = perf_counter()
    for i, job in enumerate(plan.jobs):
        if rec is not None:
            rec.begin_job(job_offset + i)
        results.append(run_job(job.argv))
    return results, perf_counter() - start


def check_round(plan, checker, results):
    """Failed-job messages, artifact digests and output bytes of one round."""
    import workloads

    problems, digests, output_bytes = [], [], 0
    if plan.uses_law_tables and not any(r.law_tables for r in results if r.rc == 0):
        raise BenchError("no job left a law table in ewb.manova._TABLE_CACHE; "
                         "clearing it no longer makes jobs start cold")
    for job, res in zip(plan.jobs, results):
        path = checker.workdir / job.out
        data = path.read_bytes() if path.exists() else b""
        digests.append(hashlib.sha256(data).hexdigest())
        output_bytes += len(data) + len(res.stdout.encode())
        try:
            if res.rc != 0:
                raise workloads.CheckError(f"exit code {res.rc}: {res.stderr.strip()[-300:]}")
            checker.check(job, res.stdout)
        except workloads.CheckError as exc:
            problems.append(f"{' '.join(job.argv)}: {exc}")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{' '.join(job.argv)}: unreadable artifact: {exc!r}")
    return problems, digests, output_bytes


def environment() -> dict:
    import numpy

    caches = {}
    for level in ("LEVEL1_DCACHE", "LEVEL2_CACHE", "LEVEL3_CACHE"):
        try:
            caches[level.lower() + "_bytes"] = os.sysconf("SC_" + level + "_SIZE")
        except (ValueError, OSError):
            caches[level.lower() + "_bytes"] = None
    return {
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_caches": caches,
    }


def measure(args, plan, workdir, own_setup):
    import workloads

    checker = workloads.Checker(workdir)
    rec = Recorder() if args.trace else None
    walls, traced_walls, latencies, layer_rounds = [], [], [], []
    setups = [own_setup]
    attempted = failed = 0
    first_digests = None
    stable = True
    problems_seen = []
    start = perf_counter()
    round_index = 0
    while True:
        for traced in (False, True) if rec else (False,):
            if traced:
                rec.begin_round()
                rec.install()
            try:
                results, wall = run_round(plan, rec if traced else None,
                                          round_index * len(plan.jobs))
            finally:
                if traced:
                    rec.uninstall()
            round_index += 1
            problems, digests, output_bytes = check_round(plan, checker, results)
            attempted += len(results)
            failed += len(problems)
            problems_seen += problems
            if first_digests is None:
                first_digests = digests
            elif digests != first_digests:
                stable = False
                problems_seen.append(f"round {round_index} artifacts differ from round 1")
            if traced:
                traced_walls.append(wall)
                rec.add("cli.output_bytes", output_bytes)
                layer_rounds.append(rec.round_metrics())
            else:
                walls.append(wall)
                latencies += [r.seconds for r in results]
        if not args.trace:
            # one fresh set-up per round, so that the samples span the run
            # as the rounds do, not one burst at its start
            setups.append(probe_setup(plan.workload, plan.seed))
        if perf_counter() - start >= args.seconds and (args.trace or len(latencies) >= MIN_TIMED_JOBS):
            break

    for line in problems_seen[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    info = {
        "workload": plan.workload,
        "seed": plan.seed,
        "trace": args.trace,
        "jobs_per_round": len(plan.jobs),
        "untraced_rounds": len(walls),
        "traced_rounds": len(traced_walls),
        "timed_jobs": len(latencies),
        "jobs_beyond_p90": sum(t > p90 for t in latencies),
        "round_walls_s": walls,
        "setup_samples_s": setups,
        "artifacts_stable": stable,
        "environment": environment(),
    }
    if rec:
        rec.write(RUN_DIR / f"trace-{plan.workload}-seed{plan.seed}.jsonl.gz")
        values = {
            name: statistics.median(r.get(name, 0.0) for r in layer_rounds)
            for name, _ in PER_LAYER
        }
        values["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        units = dict(PER_LAYER)
    else:
        values = {
            "wall_s": statistics.median(walls),
            "job_p50_s": statistics.median(latencies),
            "job_p90_s": p90,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = dict(END_TO_END)
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0 and stable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        plan, workdir, own_setup = set_up(args.workload, args.seed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        measure(args, plan, workdir, own_setup)
    except (BenchError, TracingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check that the benchmark's jobs give the same bytes at a git ref and here.

    python tools/byte_check.py REF

REF is extracted with ``git archive`` into a temporary directory.  For REF and
for the working tree, each in a fresh process with one BLAS thread, every job
of ``workloads.plan(w, s)`` -- every workload w at seeds s = 1 and 7 -- runs
through ``ewb.cli.main`` in a temporary directory.  Each job's exit code,
artifact sha256, stdout and stderr (less its timestamped ``manifest:`` line)
are compared; the jobs that differ are printed and the exit code is 1 if any
do.  Only temporary directories are written to.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 7)
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def extract(ref: str, dest: Path) -> None:
    """The committed files of git ref ref, written under dest by git archive."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def without_manifest(stderr: str) -> str:
    """stderr less its ``manifest:`` lines, which carry a timestamp."""
    return "".join(ln for ln in stderr.splitlines(keepends=True) if not ln.startswith("manifest: "))


def collect(root: Path, out: Path) -> None:
    """Run every job of every workload at SEEDS with root's ewb and bench, and
    write one record per job to out as JSON."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from ewb import cli

    records = []
    for w in workloads.WORKLOADS:
        for s in SEEDS:
            plan = workloads.plan(w, s)
            with tempfile.TemporaryDirectory(prefix=f"{w}-{s}-") as work:
                workloads.write_inputs(plan, Path(work))
                os.chdir(work)
                for i, job in enumerate(plan.jobs):
                    stdout, stderr = io.StringIO(), io.StringIO()
                    try:
                        with redirect_stdout(stdout), redirect_stderr(stderr):
                            rc = cli.main(list(job.argv))
                    except Exception as exc:  # a crash is a result to compare
                        rc = f"raised {type(exc).__name__}: {exc}"
                    path = Path(job.out)
                    digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
                    records.append({"job": f"{w} seed {s} job {i}", "argv": " ".join(job.argv),
                                    "exit": rc, "sha256": digest, "stdout": stdout.getvalue(),
                                    "stderr": without_manifest(stderr.getvalue())})
                os.chdir(root)
    out.write_text(json.dumps(records))


def run_collect(root: Path, out: Path) -> list:
    """collect() in a fresh process with one BLAS thread; its records."""
    env = {**os.environ, **ONE_THREAD, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--collect", str(root), str(out)],
                   env=env, cwd=out.parent, check=True)
    return json.loads(out.read_text())


def differences(ref: list, here: list) -> list:
    """One line per job whose argv, exit code, artifact, stdout or stderr
    differs (with both texts of a stream that does)."""
    lines = [f"job count: {len(ref)} at REF, {len(here)} here"] if len(ref) != len(here) else []
    for a, b in zip(ref, here):
        fields = [k for k in ("argv", "exit", "sha256", "stdout", "stderr") if a[k] != b[k]]
        if fields:
            lines.append(f"{a['job']} ({a['argv']}): {', '.join(fields)} differ")
            for k, tag in (("stdout", ""), ("stderr", " stderr")):
                if k in fields:
                    lines += [f"  REF{tag}:  {a[k]!r}", f"  here{tag}: {b[k]!r}"]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ref", nargs="?", help="git ref to compare the working tree against")
    ap.add_argument("--collect", nargs=2, metavar=("ROOT", "OUT"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.collect:
        collect(*map(Path, args.collect))
        return 0
    if args.ref is None:
        ap.error("the following arguments are required: ref")
    with tempfile.TemporaryDirectory(prefix="byte-check-") as tmp:
        tmp = Path(tmp)
        extract(args.ref, tmp / "ref")
        ref = run_collect(tmp / "ref", tmp / "ref.json")
        here = run_collect(ROOT, tmp / "here.json")
    diff = differences(ref, here)
    same = sum(a == b for a, b in zip(ref, here)) if len(ref) == len(here) else 0
    for line in diff:
        print(line)
    print(f"{same} of {len(here)} jobs identical in exit code, artifact sha256, stdout and stderr "
          f"(every workload at seeds {' and '.join(map(str, SEEDS))}, against {args.ref})")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())

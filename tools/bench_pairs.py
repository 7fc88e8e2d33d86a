#!/usr/bin/env python3
"""Run the benchmark in alternating pairs at a git ref and here, and summarise.

    python tools/bench_pairs.py REF --workload W --seed S [--pairs 10] [--seconds 30] [--out FILE]

REF is extracted with ``git archive`` into a temporary directory.  Each pair
runs the unchanged ``bench/run.py --trace 0`` once in that tree (the parent)
and once in the working tree (the change), each in a fresh process; odd pairs
run the parent first, even pairs the change.  Each side has its own bytecode
prefix (``PYTHONPYCACHEPREFIX``), filled by one untimed run of the same
workload and seed before the pairs, so no timed run compiles what it imports.
For each end-to-end metric of ``BENCHMARK.json`` it prints both sides'
medians, the parent's quartiles, the change's pair wins (ties count for
neither side; ``better`` gives the direction) and whether the claim rule
holds: the change wins at least 9 pairs in 10 and its median is better by
more than the parent's interquartile range.
``--out`` gets every run's info and result lines and the summary as JSON.
The exit code is 1 if any run reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float, pycache: Path,
             warm: bool = False) -> dict:
    """One ``bench/run.py --trace 0`` in tree: its result line with its info line.
    The run reads bytecode from the prefix pycache only, never from a tree's
    ``__pycache__``, so both sides start alike; only a warm run writes there."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": str(pycache)}
    env.pop("PYTHONPATH", None)  # run.py imports ewb from its own tree's src/
    if warm:
        del env["PYTHONDONTWRITEBYTECODE"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"error: bench/run.py in {tree} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return {**json.loads(lines[-1]), **json.loads(lines[-2])}


def summary(runs: list, metrics: list) -> dict:
    """Per end-to-end metric ({"name", "better"} as in BENCHMARK.json): each
    side's quartiles (numpy's linear, i.e. inclusive, method), the change's
    wins over the pairs present on both sides, the medians' relative change,
    whether their gap exceeds the parent's interquartile range, and whether
    the claim rule holds (9 wins in 10, and the gap, in the better direction)."""
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["commit"]] = r["metrics"]
    pairs = [p for p in sorted(by_pair) if set(SIDES) <= set(by_pair[p])]
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        vals = {s: [by_pair[p][s][name]["value"] for p in pairs] for s in SIDES}
        q = {s: dict(zip(("q1", "median", "q3"), np.percentile(vals[s], [25, 50, 75]).tolist()))
             for s in SIDES}
        wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
        gap = q["change"]["median"] - q["parent"]["median"]
        wide = abs(gap) > q["parent"]["q3"] - q["parent"]["q1"]
        base = q["parent"]["median"]
        out[name] = {
            **q,
            "change_wins": wins,
            "pairs": len(pairs),
            "relative_change": gap / base if base else None,
            "gap_exceeds_parent_iqr": wide,
            "claim_holds": 10 * wins >= 9 * len(pairs) > 0 and sign * gap < 0 and wide,
        }
    return out


def report(summ: dict) -> list:
    """One printed line per metric."""
    lines = []
    for name, s in summ.items():
        p, rel = s["parent"], s["relative_change"]
        gap = "exceeds" if s["gap_exceeds_parent_iqr"] else "within"
        lines.append(f"{name}: {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] -> "
                     f"{s['change']['median']:.6g} ({'n/a' if rel is None else f'{rel:+.1%}'}), "
                     f"change wins {s['change_wins']}/{s['pairs']}, gap {gap} parent IQR, "
                     f"claim {'holds' if s['claim_holds'] else 'does not hold'}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ref", help="git ref of the parent")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", help="JSON file for every run and the summary")
    args = ap.parse_args(argv)
    if args.pairs < 1:  # summary() needs a pair on both sides
        ap.error(f"--pairs must be at least 1, got {args.pairs}")
    from byte_check import extract  # a sibling script: tools/ is on sys.path when run

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": ROOT}
        caches = {side: Path(tmp) / f"pycache-{side}" for side in SIDES}
        extract(args.ref, trees["parent"])
        for side in SIDES:  # untimed: fills the side's bytecode prefix
            run_once(trees[side], args.workload, args.seed, args.seconds, caches[side], warm=True)
        for pair in range(1, args.pairs + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                result = run_once(trees[side], args.workload, args.seed, args.seconds, caches[side])
                runs.append({"pair": pair, "commit": side, **result})
                print(f"pair {pair} {side}: correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      file=sys.stderr)
    summ = summary(runs, metrics)
    print("\n".join(report(summ)))
    if args.out:
        about = (f"bench/run.py --trace 0 --seconds {args.seconds} in alternating pairs: 'parent' "
                 f"is {args.ref} from git archive, 'change' the working tree; odd pairs run the "
                 "parent first; each side reads bytecode from its own prefix, filled by one "
                 "untimed run of the same workload and seed")
        Path(args.out).write_text(json.dumps(
            {"about": about, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "summary": summ, "runs": runs}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

"""tools/bench_pairs.py's summary of alternating parent/change runs."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "job_p90_s", "better": "lower"}, {"name": "ok_frac", "better": "higher"}]


def runs(parent, change, ok=(1.0, 1.0)):
    """Synthetic runs: pair i's job_p90_s is parent[i] and change[i]; ok_frac
    is ok[0] at the parent and ok[1] at the change in every pair."""
    out = []
    for i, (p, c) in enumerate(zip(parent, change), start=1):
        for side, v, f in (("parent", p, ok[0]), ("change", c, ok[1])):
            out.append({"pair": i, "commit": side, "correct": True,
                        "metrics": {"job_p90_s": {"value": v, "unit": "s"},
                                    "ok_frac": {"value": f, "unit": "ratio"}}})
    return out


def test_a_clear_gain_meets_the_claim_rule():
    parent = [16.0, 16.5, 16.1, 16.3, 16.4, 16.2, 16.6, 16.0, 16.3, 16.5]
    change = [v - 1.5 for v in parent]
    s = bench_pairs.summary(runs(parent, change), METRICS)["job_p90_s"]
    assert s["parent"] == {"q1": 16.125, "median": 16.3, "q3": 16.475}
    assert s["change"]["median"] == pytest.approx(14.8)
    assert s["change_wins"] == 10 and s["pairs"] == 10
    assert s["relative_change"] == pytest.approx(-1.5 / 16.3)
    assert s["gap_exceeds_parent_iqr"] and s["claim_holds"]


def test_eight_wins_in_ten_are_not_a_claim():
    parent = [16.0 + 0.1 * i for i in range(10)]
    change = [v - 2.0 for v in parent[:8]] + [v + 0.1 for v in parent[8:]]
    s = bench_pairs.summary(runs(parent, change), METRICS)["job_p90_s"]
    assert s["change_wins"] == 8 and s["gap_exceeds_parent_iqr"] and not s["claim_holds"]


def test_wins_inside_the_parent_spread_are_not_a_claim():
    parent = [10.0, 20.0] * 5
    change = [v - 0.5 for v in parent]
    s = bench_pairs.summary(runs(parent, change), METRICS)["job_p90_s"]
    assert s["change_wins"] == 10 and not s["gap_exceeds_parent_iqr"] and not s["claim_holds"]


def test_a_loss_beyond_the_spread_is_no_claim_and_ties_count_for_neither_side():
    s = bench_pairs.summary(runs([1.0] * 10, [2.0] * 10), METRICS)
    assert s["job_p90_s"]["change_wins"] == 0 and s["job_p90_s"]["gap_exceeds_parent_iqr"]
    assert not s["job_p90_s"]["claim_holds"] and s["job_p90_s"]["relative_change"] == 1.0
    # equal ok_frac on both sides: ten ties
    assert s["ok_frac"]["change_wins"] == 0 and not s["ok_frac"]["claim_holds"]


def test_higher_is_better_counts_increases_as_wins():
    up = bench_pairs.summary(runs([1.0] * 10, [1.0] * 10, ok=(0.9, 1.0)), METRICS)["ok_frac"]
    assert up["change_wins"] == 10 and up["claim_holds"]
    down = bench_pairs.summary(runs([1.0] * 10, [1.0] * 10, ok=(1.0, 0.9)), METRICS)["ok_frac"]
    assert down["change_wins"] == 0 and down["gap_exceeds_parent_iqr"] and not down["claim_holds"]


def test_an_unmatched_run_is_left_out_and_the_report_names_each_metric():
    r = runs([2.0, 2.0, 2.0], [1.0, 1.0, 1.0])[:-1]  # pair 3's change is missing
    summ = bench_pairs.summary(r, METRICS)
    assert summ["job_p90_s"]["pairs"] == 2 and summ["job_p90_s"]["change_wins"] == 2
    lines = bench_pairs.report(summ)
    assert lines[0].startswith("job_p90_s: 2 [2, 2] -> 1 (-50.0%), change wins 2/2")
    assert lines[1].startswith("ok_frac: ")


def test_each_run_reads_no_bytecode_cache_and_writes_none(tmp_path, monkeypatch):
    seen = []

    def run(argv, cwd, env, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((argv, cwd, env, prefix.is_dir() and not any(prefix.iterdir())))
        lines = [json.dumps({"info": 1}), json.dumps({"correct": True, "metrics": {}})]
        return bench_pairs.subprocess.CompletedProcess(argv, 0, "\n".join(lines) + "\n", "")

    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    for tree in (tmp_path / "parent", tmp_path / "change"):
        result = bench_pairs.run_once(tree, "bound-exact", 11, 1.0)
        assert result == {"info": 1, "correct": True, "metrics": {}}
    (argv, cwd, env, empty), (_, _, other, _) = seen
    assert argv[1:] == ["bench/run.py", "--workload", "bound-exact", "--seed", "11",
                        "--seconds", "1.0", "--trace", "0"]
    assert cwd == tmp_path / "parent" and empty
    assert env["PYTHONDONTWRITEBYTECODE"] == "1" and "PYTHONPATH" not in env
    assert env["PYTHONPYCACHEPREFIX"] != other["PYTHONPYCACHEPREFIX"]  # a directory per run
    assert not os.path.exists(env["PYTHONPYCACHEPREFIX"])  # and removed after it

"""tools/bench_pairs.py's summary of alternating parent/change runs."""

import importlib.util
import json
import sys
import types
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


def test_each_side_warms_its_own_bytecode_prefix_before_its_timed_runs(tmp_path, monkeypatch, capsys):
    """main with git archive and bench/run.py stubbed: one untimed run per side
    writes bytecode into that side's prefix, and every timed run of the side
    reads the warmed prefix and writes none."""
    calls = []
    metrics = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]
    result = {"correct": True, "metrics": {m["name"]: {"value": 1.0} for m in metrics}}

    def run(argv, cwd, env, **kwargs):
        prefix, warm = Path(env["PYTHONPYCACHEPREFIX"]), "PYTHONDONTWRITEBYTECODE" not in env
        calls.append((argv, cwd, prefix, warm, "PYTHONPATH" in env, prefix.is_dir()))
        if warm:  # a warm run compiles into the prefix
            prefix.mkdir()
            (prefix / "module.pyc").write_bytes(b"")
        lines = [json.dumps({"info": 1}), json.dumps(result)]
        return bench_pairs.subprocess.CompletedProcess(argv, 0, "\n".join(lines) + "\n", "")

    archive = types.SimpleNamespace(extract=lambda ref, dest: None)  # git archive, stubbed
    monkeypatch.setitem(sys.modules, "byte_check", archive)
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    argv = ["HEAD", "--workload", "bound-exact", "--seed", "11", "--pairs", "2", "--seconds", "1"]
    assert bench_pairs.main(argv) == 0
    assert [argv[1:] for argv, *_ in calls] == [["bench/run.py", "--workload", "bound-exact", "--seed",
                                                 "11", "--seconds", "1.0", "--trace", "0"]] * 6
    assert not any(pythonpath for *_, pythonpath, _ in calls)
    (_, parent_tree, parent, warm, _, existed), (_, change_tree, change, *rest) = calls[:2]
    assert warm and not existed and rest[0] and not rest[2]  # warm runs fill new prefixes
    assert parent_tree.name == "parent" and change_tree == bench_pairs.ROOT and parent != change
    # pair 1 runs the parent first, pair 2 the change; each reads its own warmed prefix
    timed = [(cwd, prefix, warm, existed) for _, cwd, prefix, warm, _, existed in calls[2:]]
    assert timed == [(parent_tree, parent, False, True), (change_tree, change, False, True),
                     (change_tree, change, False, True), (parent_tree, parent, False, True)]
    assert not parent.exists() and not change.exists()  # removed with the temporary tree
    assert "claim" in capsys.readouterr().out


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_fewer_than_one_pair_is_a_usage_error_before_any_run(pairs, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args, **kwargs: ran.append(args))
    monkeypatch.setitem(sys.modules, "byte_check",
                        types.SimpleNamespace(extract=lambda ref, dest: ran.append((ref, dest))))
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["HEAD", "--workload", "bound-exact", "--seed", "11", "--pairs", pairs])
    assert exit_.value.code == 2 and ran == []
    assert f"--pairs must be at least 1, got {pairs}" in capsys.readouterr().err

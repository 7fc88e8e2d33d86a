"""Tests of the benchmark itself: a seed always yields the same job list and
inputs, and the metric names agree with BENCHMARK.json.

    python3 -m pytest bench -q
"""

import json
from pathlib import Path

import pytest

import run
import tracing
import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_jobs_and_inputs(name, tmp_path):
    first, again = workloads.plan(name, 7), workloads.plan(name, 7)
    assert first == again
    assert workloads.plan(name, 8) != first
    for sub, p in (("a", first), ("b", again)):
        (tmp_path / sub).mkdir()
        workloads.write_inputs(p, tmp_path / sub)
    for f in first.inputs:
        assert (tmp_path / "a" / f.name).read_bytes() == (tmp_path / "b" / f.name).read_bytes()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_values_not_job_mix(name):
    def mix(p):
        return [(job.argv[0], job.check) for job in p.jobs], len(p.inputs)

    assert mix(workloads.plan(name, 1)) == mix(workloads.plan(name, 2))


def test_benchmark_json_matches_code():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)

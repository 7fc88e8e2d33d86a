"""tools/byte_check.py's comparison of two runs' job records."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "byte_check.py"
spec = importlib.util.spec_from_file_location("byte_check", TOOL)
byte_check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(byte_check)


def record(job, **changes):
    return {"job": job, "argv": "manova --gamma 0.5 --p 0.5 --out law_0.csv", "exit": 0,
            "sha256": "ab", "stdout": "", **changes}


def test_identical_runs_have_no_differences():
    runs = [record("a"), record("b")]
    assert byte_check.differences(runs, [dict(r) for r in runs]) == []


def test_each_differing_job_is_named_with_its_fields():
    ref = [record("a"), record("b", stdout="m=1\n"), record("c")]
    here = [record("a"), record("b", stdout="m=2\n", exit=2), record("c", sha256="cd")]
    lines = byte_check.differences(ref, here)
    assert lines[0].startswith("b (manova") and lines[0].endswith("exit, stdout differ")
    assert lines[1:3] == ["  REF:  'm=1\\n'", "  here: 'm=2\\n'"]
    assert lines[3].startswith("c (") and lines[3].endswith("sha256 differ")
    assert len(lines) == 4


def test_a_changed_job_count_is_a_difference():
    assert byte_check.differences([record("a")], []) == ["job count: 1 at REF, 0 here"]

"""tools/byte_check.py's comparison of two runs' job records."""

import importlib.util
import time
from pathlib import Path

from ewb.cli import main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "byte_check.py"
spec = importlib.util.spec_from_file_location("byte_check", TOOL)
byte_check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(byte_check)


def record(job, **changes):
    return {"job": job, "argv": "manova --gamma 0.5 --p 0.5 --out law_0.csv", "exit": 0,
            "sha256": "ab", "stdout": "", "stderr": "", **changes}


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


def test_a_changed_stderr_is_a_difference():
    ref = [record("a", stderr="warning: x\n")]
    lines = byte_check.differences(ref, [record("a", stderr="warning: y\n")])
    assert lines == ["a (manova --gamma 0.5 --p 0.5 --out law_0.csv): stderr differ",
                     "  REF stderr:  'warning: x\\n'", "  here stderr: 'warning: y\\n'"]


def test_a_manifest_line_alone_is_no_difference(tmp_path, capsys):
    # two runs of one job differ in the manifest line's timestamp alone
    argv = ["manova", "--gamma", "0.5", "--p", "0.5", "--out", str(tmp_path / "law.csv")]
    raw, runs = [], []
    for _ in range(2):
        assert main(argv) == 0
        raw.append(capsys.readouterr().err + "note\n")
        runs.append([record("a", stderr=byte_check.without_manifest(raw[-1]))])
        time.sleep(0.002)
    assert raw[0] != raw[1] and raw[0].startswith("manifest: ")
    assert runs[0][0]["stderr"] == "note\n"
    assert byte_check.differences(*runs) == []

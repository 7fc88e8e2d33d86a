import tracemalloc

import numpy as np
import pytest

import ewb

# One pass/fail line per acceptance criterion, re-emitted after the test
# summary so they are visible without -s.
ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def peak_bytes(fn, *args) -> int:
    """The tracemalloc peak, in bytes, of one call fn(*args); tracing stops
    after it, also when it raises."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def mercedes_benz() -> ewb.Frame:
    """Three planar unit vectors at 90, 210 and 330 degrees (the smallest
    real ETF: m=2, n=3, all off-diagonal correlations -1/2)."""
    ang = np.deg2rad([90.0, 210.0, 330.0])
    return ewb.Frame(field="real", entries=np.vstack([np.cos(ang), np.sin(ang)]))


@pytest.fixture(params=["extra key", "data", "nested objects"])
def deep_frame_file(request, tmp_path):
    """A real 1 x 1 frame file whose extra key, data value or nested objects
    go 100 000 levels deep, past Python's recursion limit."""
    arrays = "[" * 100_000 + "]" * 100_000
    objects = '{"a": ' * 100_000 + "1" + "}" * 100_000
    deep = {
        "extra key": '"data": [[1.0]], "x": ' + arrays,
        "data": '"data": ' + arrays,
        "nested objects": '"data": [[1.0]], "x": ' + objects,
    }[request.param]
    path = tmp_path / "deep.json"
    path.write_text('{"field": "real", "m": 1, "n": 1, ' + deep + "}")
    return path

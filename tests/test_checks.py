import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ewb import _checks
from ewb._checks import integer, probability, within

_LIMITS = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(sorted)


@given(st.floats(allow_nan=True, allow_infinity=True), _LIMITS)
def test_within_returns_the_value_or_names_everything(v, limits):
    lo, hi = limits
    if lo <= v <= hi:
        assert within(v, "knob", lo, hi) is v
        return
    with pytest.raises(ValueError) as exc:
        within(v, "knob", lo, hi)
    assert str(exc.value) == f"knob must be in {lo}..{hi}, got {v}"


@given(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-2, 2),
    st.floats(width=32).map(np.float32), st.floats(width=16).map(np.float16),
))
def test_probability_is_within_returning_a_python_float(v):
    if 0.0 <= v <= 1.0:
        got = probability(v)
        assert type(got) is float and got == v
        return
    with pytest.raises(ValueError) as exc:
        probability(v)
    assert str(exc.value) == f"keep probability must be in 0.0..1.0, got {v}"


@given(
    st.one_of(st.floats(-10, 10), st.integers(-10, 10).map(float),
              st.sampled_from([math.nan, math.inf, -math.inf])),
    st.one_of(_LIMITS, st.tuples(st.integers(-5, 5), st.just(math.inf))),
)
def test_integer_takes_only_integral_values_in_range(v, limits):
    lo, hi = limits
    if lo <= v <= hi and math.isfinite(v) and v == round(v):
        got = integer(v, "order", lo, hi)
        assert type(got) is int and got == v
        return
    with pytest.raises(ValueError) as exc:
        integer(v, "order", lo, hi)
    assert str(exc.value) == f"order must be an integer in {lo}..{hi}, got {v}"


def test_integer_defaults_to_positive_integers():
    assert integer(2.0, "order") == 2
    assert integer(10**400, "order") == 10**400  # past the float range, exactly
    for bad in (0, -1, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"order must be an integer in 1\.\.inf"):
            integer(bad, "order")


# a chained range test against 0 and 1, the form a keep-probability check takes
_UNIT_RANGE = re.compile(r"\b0(\.0*)?\s*<=\s*[\w.]+\s*<=\s*1(\.0*)?\b")


def test_argument_checks_live_only_in_checks_module():
    src = pathlib.Path(_checks.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "_checks.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if ".is_integer(" in line or _UNIT_RANGE.search(line):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert offenders == []

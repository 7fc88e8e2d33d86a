"""The one range test behind every order, keep probability, count, seed and
frame size that a public entry point receives, with one message form:
"<what> must be in <lo>..<hi>, got <v>" ("an integer in" for integer())."""

from __future__ import annotations

import math


def within(v, what: str, lo, hi):
    """v, after checking lo <= v <= hi; NaN fails the test."""
    if not lo <= v <= hi:
        raise ValueError(f"{what} must be in {lo}..{hi}, got {v}")
    return v


def probability(p) -> float:
    """float(p), after within(p, "keep probability", 0.0, 1.0): no numpy precision leaks."""
    return float(within(p, "keep probability", 0.0, 1.0))


def integer(v, what: str, lo=1, hi=math.inf) -> int:
    """int(v), after checking that v is an integer in lo..hi: NaN, infinities,
    2.5 and True raise ValueError, 2.0 gives 2.  inf % 1 is NaN, so infinities
    fail the integrality test; ints past the float range pass it exactly."""
    if isinstance(v, bool) or not (lo <= v <= hi and v % 1 == 0):
        raise ValueError(f"{what} must be an integer in {lo}..{hi}, got {v}")
    return int(v)


def sizes(m, n) -> tuple[int, int]:
    """(int(m), int(n)), after checking that both are integers with n >= m >= 1."""
    m, n = integer(m, "m"), integer(n, "n")
    if n < m:
        raise ValueError(f"need n >= m >= 1, got m={m}, n={n}")
    return m, n

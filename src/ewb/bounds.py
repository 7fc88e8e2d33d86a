"""Lower bounds on erased-frame moments with equality classification.

The erasure Welch bound of order d is the MANOVA(m/n, p) d-th moment plus
the finite-size correction from manova.delta_correction; it lower-bounds the
expected erased moment m_d of every unit-norm frame.  Equality holds for
d = 2, 3 exactly on uniform tight frames and for d = 4 exactly on
equiangular tight frames (at finite n; asymptotically the order-4 equality
is known to hold under weaker conditions, which is reported here only as
documentation, never as a classification).

The p = 1 specialization bounds the full-frame trace moment:
(1/n) tr((FF')^d) >= (n/m)^(d-1), with equality exactly on UTFs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .erasure_moments import expected_moment, trace_moment
from .frames import Frame, is_etf, is_utf
from .manova import ManovaParams, delta_correction, moment_closed

ETF_EQUALITY = "ETF-equality"
UTF_EQUALITY = "UTF-equality"
STRICT = "strict"
VIOLATION = "violation"

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class BoundParams:
    m: int
    n: int
    p: float
    d: int


@dataclass(frozen=True)
class BoundReport:
    """One moment-versus-bound comparison.

    equality_class is "violation" iff slack < -tol (an implementation bug or
    an invalid frame -- never expected); "ETF-equality"/"UTF-equality" iff
    |slack| <= tol and the corresponding frame predicate holds (ETF checked
    first, being the stronger); otherwise "strict".  A non-finite slack is
    never classified: building the report raises ValueError.
    """

    moment: float
    bound: float
    slack: float
    equality_class: str
    params: BoundParams

    def to_dict(self) -> dict:
        out = asdict(self.params)
        out.update(
            moment=self.moment,
            bound=self.bound,
            slack=self.slack,
            equality_class=self.equality_class,
        )
        return out


def erasure_welch_bound(m: int, n: int, p: float, d: int) -> float:
    """Lower bound on m_d for any m-by-n unit-norm frame at keep probability p.

    At p = 1 this is (n/m)^(d-1); at n = m it is p for every order.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need n >= m >= 1, got m={m}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"keep probability must be in [0, 1], got {p}")
    if d not in (2, 3, 4):
        raise ValueError("order must be 2..4")
    params = ManovaParams(gamma=m / n, p=p)
    extra = delta_correction(params, d, n) if n >= 2 else 0.0
    return moment_closed(params, d) + extra


def _classify(frame: Frame, slack: float, equality_tol: float, violation_tol: float) -> str:
    if not math.isfinite(slack):
        raise ValueError(f"slack must be finite, got {slack}")
    # frame predicates are evaluated lazily: only near-equality cases pay
    # for the is_etf / is_utf checks
    if slack < -violation_tol:
        return VIOLATION
    if abs(slack) <= equality_tol:
        if is_etf(frame):
            return ETF_EQUALITY
        if is_utf(frame):
            return UTF_EQUALITY
    return STRICT


def _report(frame, moment, bound, p, d, tol, equality_tol, violation_tol) -> BoundReport:
    """Classify moment - bound; tol sets both tolerances unless overridden."""
    eq = tol if equality_tol is None else equality_tol
    vi = tol if violation_tol is None else violation_tol
    if not all(math.isfinite(t) and t >= 0.0 for t in (eq, vi)):
        raise ValueError(f"tolerances must be finite and >= 0, got {eq} and {vi}")
    slack = moment - bound
    return BoundReport(
        moment=moment,
        bound=bound,
        slack=slack,
        equality_class=_classify(frame, slack, eq, vi),
        params=BoundParams(m=frame.m, n=frame.n, p=float(p), d=d),
    )


def check_theorem(
    frame: Frame,
    p: float,
    d: int,
    tol: float = DEFAULT_TOL,
    equality_tol: float | None = None,
    violation_tol: float | None = None,
) -> BoundReport:
    """Compare the exact erased moment against the erasure Welch bound.

    tol sets both tolerances; equality_tol / violation_tol override them
    separately (near-ETF numerical frames should classify as strict, so the
    equality tolerance stays tight even when the violation one is loosened).
    Order 1 is excluded: m_1 = p identically, there is nothing to bound.
    """
    moment = expected_moment(frame, p, d)
    bound = erasure_welch_bound(frame.m, frame.n, p, d)
    return _report(frame, moment, bound, p, d, tol, equality_tol, violation_tol)


def lemma1_check(
    frame: Frame,
    d: int,
    tol: float = DEFAULT_TOL,
    equality_tol: float | None = None,
    violation_tol: float | None = None,
) -> BoundReport:
    """Full-frame trace-moment bound: (1/n) tr((FF')^d) >= (n/m)^(d-1).

    This is the p = 1 case of check_theorem but admits any positive integer
    order (d = 1 is degenerate: both sides are 1 for every unit-norm frame).
    """
    if d < 1:
        raise ValueError("moment order must be a positive integer")
    moment = trace_moment(frame, d)
    bound = (frame.n / frame.m) ** (d - 1)
    return _report(frame, moment, bound, 1.0, d, tol, equality_tol, violation_tol)


def subset_rms_bound(k: float, m: int, n: int) -> float:
    """(k/m - k/n)/(k - 1): floor for subset_rms at expected subset size k = p n.

    At k = n this is the classical Welch floor (n - m)/((n - 1) m); at fixed
    k and m it increases with n toward k/((k - 1) m).
    """
    if not 1 <= m <= n:
        raise ValueError(f"need n >= m >= 1, got m={m}, n={n}")
    if not 1.0 < k <= n:
        raise ValueError(f"expected subset size must satisfy 1 < k <= n, got {k}")
    return (k / m - k / n) / (k - 1.0)

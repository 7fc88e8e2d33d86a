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
from dataclasses import dataclass

from ._checks import integer, sizes, subset_size
from .erasure_moments import expected_moment, trace_moment
from .frames import Frame, is_etf, is_utf
from .manova import ManovaParams, delta_correction, moment_closed

ETF_EQUALITY = "ETF-equality"
UTF_EQUALITY = "UTF-equality"
STRICT = "strict"
VIOLATION = "violation"

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """One moment-versus-bound comparison for an m-by-n frame at keep
    probability p and order d; to_dict() is its flat field dict.

    equality_class is "violation" iff slack < -tol (an implementation bug or
    an invalid frame -- never expected); "ETF-equality"/"UTF-equality" iff
    |slack| <= tol and the corresponding frame predicate holds (ETF checked
    first, being the stronger; "UTF-equality" not at d = 4 with 0 < p < 1,
    where only ETFs attain the bound); otherwise "strict".  A non-finite slack is
    never classified: building the report raises ValueError.
    """

    m: int
    n: int
    p: float
    d: int
    moment: float
    bound: float
    slack: float
    equality_class: str

    def to_dict(self) -> dict:
        # the fields are flat scalars, so a shallow copy is dataclasses.asdict
        # without its deep copy of each value
        return dict(vars(self))


def erasure_welch_bound(m: int, n: int, p: float, d: int) -> float:
    """Lower bound on m_d for any m-by-n unit-norm frame at keep probability p.

    At p = 1 this is (n/m)^(d-1); at n = m it is p for every order.
    """
    m, n = sizes(m, n)
    d = integer(d, "bound order", 2, 4)
    params = ManovaParams(gamma=m / n, p=p)  # checks p
    extra = delta_correction(params, d, n) if n >= 2 else 0.0
    return moment_closed(params, d) + extra


def _report(frame, moment, bound, p, d, tol) -> BoundReport:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    slack = moment - bound
    if not math.isfinite(slack):
        raise ValueError(f"slack must be finite, got {slack}")
    cls = VIOLATION if slack < -tol else STRICT
    # the frame predicates run only for a slack within tol of 0; at d = 4 and
    # 0 < p < 1 the bound is attained by ETFs alone, so a UTF there is strict
    if abs(slack) <= tol:
        utf = (d < 4 or p in (0.0, 1.0)) and is_utf(frame)
        cls = ETF_EQUALITY if is_etf(frame) else UTF_EQUALITY if utf else STRICT
    return BoundReport(m=frame.m, n=frame.n, p=float(p), d=d, moment=moment, bound=bound,
                       slack=slack, equality_class=cls)


def check_theorem(frame: Frame, p: float, d: int, tol: float = DEFAULT_TOL) -> BoundReport:
    """Compare the exact erased moment against the erasure Welch bound.

    tol is both the equality tolerance (|slack| <= tol is checked against
    the ETF and UTF predicates) and the violation one (slack < -tol).
    Order 1 is excluded: m_1 = p identically, there is nothing to bound.
    """
    d = integer(d, "bound order", 2, 4)
    moment = expected_moment(frame, p, d)
    bound = erasure_welch_bound(frame.m, frame.n, p, d)
    return _report(frame, moment, bound, p, d, tol)


def lemma1_check(frame: Frame, d: int, tol: float = DEFAULT_TOL) -> BoundReport:
    """Full-frame trace-moment bound: (1/n) tr((FF')^d) >= (n/m)^(d-1).

    This is the p = 1 case of check_theorem but admits any positive integer
    order (d = 1 is degenerate: both sides are 1 for every unit-norm frame).
    """
    d = integer(d, "moment order")
    moment = trace_moment(frame, d)
    bound = (frame.n / frame.m) ** (d - 1)
    return _report(frame, moment, bound, 1.0, d, tol)


def subset_rms_bound(k: float, m: int, n: int) -> float:
    """(k/m - k/n)/(k - 1): floor for subset_rms at expected subset size k = p n.

    At k = n this is the classical Welch floor (n - m)/((n - 1) m); at fixed
    k and m it increases with n toward k/((k - 1) m).  k is used as given:
    k = np.float32(p) * n is already rounded to float32, which moves the
    floor of the m = 5 simplex ETF by up to 4e-9 over 70 p in 0.3..0.99 and
    by 1.6e-6 at p = 0.17.
    """
    m, n = sizes(m, n)
    k = subset_size(k, n)
    return (k / m - k / n) / (k - 1.0)

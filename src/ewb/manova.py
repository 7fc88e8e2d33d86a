"""Wachter's MANOVA limit law for erased-frame spectra.

MANOVA(gamma, p), with aspect ratio gamma = m/n and keep probability p, has
a continuous bulk

    rho(t) = gamma sqrt((t - r-)(r+ - t)) / (2 pi t (1 - gamma t) min(p, gamma))

on [r-, r+] with r+- = (A +- B)^2, plus a point mass at 1/gamma of weight
(p + gamma - 1)^+ / min(p, gamma); A, B, C, D = sqrt((p/gamma)(1-gamma)),
sqrt(1-p), sqrt((1-p)(1-gamma)), sqrt(p gamma) and 1 - gamma r+- = (C -+ D)^2.
With mu = min(p, gamma, 1-p, 1-gamma), lo = t - r-, hi = r+ - t and
theta = atan2(sqrt(lo), sqrt(hi)), the bulk CDF is elementary:

    pi min(p, gamma) F(t) = 2 mu theta
        - |p - gamma| atan2(2 min(A, B) sqrt(lo hi), |A - B| hi + (A + B) lo)
        + |1 - p - gamma| atan2(2 min(C, D) sqrt(lo hi), (C + D) hi + |C - D| lo)

(the partial-fraction antiderivative of rho, each arctangent difference
folded into one atan2).  Both arctangents vanish at r+, so the bulk carries
mu / min(p, gamma) and bulk and atom together carry 1.  The two arctangents
still cancel to O(sqrt(min(p, gamma))), so F carries round-off of about
1e-16 / sqrt(min(p, gamma)): the scale at which round-off in r+- moves it.

Moments are reported in the same normalization as the erased-frame moments
(divide by the full frame size n): the d-th moment is min(p, gamma) times
the law's raw d-th moment, which makes the first moment exactly p.

MANOVA(gamma, p) is the law of PQP for free projections with traces p and
gamma (Haikin, Zamir & Gavish, PNAS 2017): multiplying their S-transforms
and inverting by Lagrange gives moment_closed one exact series for every
order.  moment_numeric is its independent quadrature oracle: _bulk_integrand
writes t^d rho(t) dt in t = r- + w sin^2(theta), smooth on [0, pi/2] even
when the bulk touches 0 or 1/gamma, and _refine, which serves only
moment_numeric, doubles composite Gauss-Legendre panels until two
refinements agree.

support() alone decides the law's shape: whether it has a continuous bulk
(has_bulk) and where its CDF jumps (jumps); density, bulk_mass,
moment_numeric, cdf_many, quantile_many and spectral.ks_distance read those
two fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import integer, within

_NODES = _WEIGHTS = None  # the 20-point Gauss-Legendre rule, built by _refine's first call
_HALF_PI = math.pi / 2.0
_DEGENERATE_WIDTH = 1e-14
_MAX_PANELS = 1 << 13


class AtomicOnlyError(ValueError):
    """The continuous bulk is empty; the law is purely atomic."""


class QuadratureError(RuntimeError):
    """Panel doubling stopped before reaching the requested tolerance."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


@dataclass(frozen=True)
class ManovaParams:
    """Aspect ratio gamma = m/n in (0, 1] and keep probability p in [0, 1]."""

    gamma: float
    p: float

    def __post_init__(self):
        # gamma below about 5.6e-309 overflows x to inf
        if not (0.0 < self.gamma <= 1.0 and math.isfinite(self.x)):
            raise ValueError(f"gamma must be in (0, 1] with 1/gamma - 1 finite, got {self.gamma}")
        within(self.p, "p", 0.0, 1.0)

    @property
    def x(self) -> float:
        """1/gamma - 1 = n/m - 1, the large-n Welch floor scale."""
        return 1.0 / self.gamma - 1.0


@dataclass(frozen=True)
class ManovaSupport:
    """Bulk endpoints, the atom at 1/gamma, and the law's shape.

    has_bulk is false when p is 0 or 1 or the bulk is no wider than
    _DEGENERATE_WIDTH (gamma = 1).  jumps holds the (location, weight) of
    each point mass of the CDF: a unit mass at 0 when p = 0, the atom when
    there is a bulk, and otherwise mass 1 - atom_weight at r- plus the atom.
    """

    r_minus: float
    r_plus: float
    atom_location: float
    atom_weight: float
    has_bulk: bool
    jumps: tuple


def support(params: ManovaParams) -> ManovaSupport:
    """Bulk endpoints, the atom at 1/gamma with its weight, and the law's
    shape (ManovaSupport.has_bulk and jumps)."""
    g, p = params.gamma, params.p
    a = math.sqrt((p / g) * (1.0 - g))
    b = math.sqrt(1.0 - p)
    r_minus = (a - b) ** 2
    r_plus = (a + b) ** 2
    loc = 1.0 / g
    # p + g - 1 cancels badly at the boundaries (1.0 + 0.4 - 1.0 != 0.4);
    # the purely-atomic cases must carry weight exactly 1
    if p == 1.0:
        excess = g
    elif g == 1.0:
        excess = p
    else:
        excess = p + g - 1.0
    weight = min(1.0, excess / min(p, g)) if excess > 0.0 else 0.0
    # 1 - g r+ = (sqrt((1-p)(1-g)) - sqrt(p g))^2 >= 0, so the bulk can touch
    # the atom location (iff p + g = 1) but never cross it.  Guard anyway.
    if r_plus > loc * (1.0 + 1e-12):
        raise ValueError("bulk support exceeds the atom location; invalid parameters")
    has_bulk = 0.0 < p < 1.0 and r_plus - r_minus > _DEGENERATE_WIDTH
    if p == 0.0:
        jumps = ((0.0, 1.0),)
    elif has_bulk:
        jumps = ((loc, weight),)
    else:
        jumps = ((r_minus, 1.0 - weight), (loc, weight))
    return ManovaSupport(r_minus=r_minus, r_plus=r_plus, atom_location=loc,
                         atom_weight=weight, has_bulk=has_bulk, jumps=jumps)


def density(t, params: ManovaParams):
    """Continuous bulk density at t; 0 outside the open interval (r-, r+)
    and from 1/gamma up, which r+ can exceed by round-off when p + gamma = 1.

    Elementwise over an array t, returning an array of its shape; a scalar t
    gives a float.  NaN gives NaN.  Each value is rounded as the scalar
    formula in the module docstring, evaluated left to right, would round it.
    The atom is reported separately through support().  Parameter sets with
    an empty bulk (p in {0, 1}, or gamma = 1) raise AtomicOnlyError.
    """
    sup = support(params)
    if not sup.has_bulk:
        raise AtomicOnlyError("no continuous bulk for these parameters")
    t = np.asarray(t, dtype=float)
    g = params.gamma
    # points outside the bulk may give sqrt of a negative, 0/0 or overflow;
    # np.where drops them
    with np.errstate(all="ignore"):
        num = g * np.sqrt((t - sup.r_minus) * (sup.r_plus - t))
        val = num / (2.0 * math.pi * t * (1.0 - g * t) * min(params.p, g))
    out = np.where((t <= sup.r_minus) | (t >= min(sup.r_plus, sup.atom_location)), 0.0, val)
    return out if out.ndim else float(out)


def _bulk_integrand(params: ManovaParams, sup: ManovaSupport):
    """theta-integrand of t^d times the bulk law over [0, pi/2], vectorized
    over a theta array: fn(theta, d=0).

    With t = r- + w sin^2(theta): rho(t) dt = gamma w^2 sin^2 cos^2 /
    (pi t (1 - gamma t) min(p, gamma)) dtheta.  sin^2/t stays finite when
    r- = 0 and cos^2/(1 - gamma t) stays finite when r+ = 1/gamma, provided
    theta is evaluated strictly inside (0, pi/2) -- Gauss nodes are.
    """
    g, p = params.gamma, params.p
    w = sup.r_plus - sup.r_minus
    edge_plus = (math.sqrt((1.0 - p) * (1.0 - g)) - math.sqrt(p * g)) ** 2
    scale = g * w * w / (math.pi * min(p, g))

    def fn(theta, d=0):
        s2, c2 = np.sin(theta) ** 2, np.cos(theta) ** 2
        t = sup.r_minus + w * s2
        # theta = 0 with r- = 0 gives t = 0 and a zero numerator; clamp
        # the denominator so the 0/0 resolves to the correct limit 0
        val = scale * s2 * c2 / (np.maximum(t, 1e-300) * (edge_plus + g * w * c2))
        return val * t**d

    return fn


def _refine(fn, tol: float) -> float:
    """Composite Gauss-Legendre integral over [0, pi/2], doubling the panels
    from 8 until two refinements agree to tol."""
    global _NODES, _WEIGHTS
    if _NODES is None:  # so that importing ewb does not import numpy.polynomial
        from numpy.polynomial.legendre import leggauss

        _NODES, _WEIGHTS = leggauss(20)
    prev, panels = None, 8
    while True:
        edges = np.linspace(0.0, _HALF_PI, panels + 1)
        half = 0.5 * (edges[1] - edges[0])
        pts = (edges[:-1] + half)[:, None] + half * _NODES[None, :]
        raw = fn(pts.reshape(-1)).reshape(panels, -1) @ _WEIGHTS
        total = half * float(raw.sum())
        est = math.inf if prev is None else abs(total - prev)
        if est <= tol:
            return total
        if panels >= _MAX_PANELS:
            raise QuadratureError("quadrature did not reach the requested tolerance", est)
        prev, panels = total, 2 * panels


def bulk_mass(params: ManovaParams) -> float:
    """Probability carried by the continuous bulk, mu / min(p, gamma) (1 -
    atom_weight in exact arithmetic); 0 when the bulk is empty.  cdf_many at
    the atom from the left is min(1, bulk_mass)."""
    return _bulk_law(params)[0] if support(params).has_bulk else 0.0


def moment_closed(params: ManovaParams, d: int) -> float:
    """d-th moment for every d >= 1, normalized by full dimension n:
    m_d = (1/d) [z^(d-1)] ((p + z)(1 + (1 + x) z) / (1 + z))^d, x = 1/gamma - 1,
    evaluated in integers at the floats p and x and rounded once, so d <= 4
    gives the paper's four polynomials correctly rounded.  The cost grows
    like d^3; a moment beyond the float range raises ValueError."""
    d = integer(d, "moment order")
    try:
        P, a = params.p.as_integer_ratio()
        X, c = params.x.as_integer_ratio()
        # z^i coefficients, i < d, of (P + a z)^d, (c + (c + X) z)^d and (1 + z)^-d
        u = [math.comb(d, i) * P ** (d - i) * a**i for i in range(d)]
        v = [math.comb(d, i) * c ** (d - i) * (c + X) ** i for i in range(d)]
        r = [(-1) ** i * math.comb(d - 1 + i, i) for i in range(d)]
        vr = [sum(r[k] * v[j - k] for k in range(j + 1)) for j in range(d)]
        return sum(u[i] * vr[d - 1 - i] for i in range(d)) / (d * (a * c) ** d)
    except OverflowError:
        raise ValueError(f"the order-{d} moment at {params} overflows a float") from None


def moment_numeric(params: ManovaParams, d: int, tol: float = 1e-8) -> float:
    """Quadrature oracle for the d-th moment of the law support() describes:
    min(p, gamma) * (integral of t^d rho(t) dt + sum of w loc^d over its jumps).
    A bulk with 2^-52 r+ > tol (r+ - r-), too narrow for doubles to resolve at
    its location, raises QuadratureError.  Where a jump's loc^d overflows a
    float, as it can while the moment itself does not, it raises a ValueError,
    as moment_closed does on overflow."""
    d = integer(d, "moment order")
    sup = support(params)
    total = 0.0
    if sup.has_bulk:
        resolution = 2.0**-52 * sup.r_plus
        if resolution > tol * (sup.r_plus - sup.r_minus):
            raise QuadratureError("the bulk is too narrow for double precision at its location",
                                  resolution / (sup.r_plus - sup.r_minus))
        fn = _bulk_integrand(params, sup)
        total = _refine(lambda th: fn(th, d), tol)
    try:
        for loc, w in sup.jumps:
            total += w * loc**d
        return float(min(params.p, params.gamma) * total)
    except OverflowError:
        raise ValueError(f"the order-{d} moment at {params} overflows a float "
                         "in its quadrature") from None


def delta_correction(params: ManovaParams, d: int, n: int) -> float:
    """Finite-size bound correction: 0 for d = 2, 3 and
    p^2 (1-p)^2 x^2 / (n - 1) for d = 4; vanishes as n grows."""
    n = integer(n, "n", 2)
    d = integer(d, "bound order", 2, 4)
    if d < 4:
        return 0.0
    p, x = params.p, params.x
    return (p * (1.0 - p)) ** 2 * x * x / (n - 1.0)


# closed-form bulk CDF coefficients keyed by (gamma, p)
_TABLE_CACHE: dict = {}


def _bulk_law(params: ManovaParams) -> tuple:
    """Cached (bulk mass, terms) of a law with a bulk: each term (weight, k,
    u, v) is weight * atan2(k sqrt(lo hi), u hi + v lo) / (pi min(p, gamma)),
    and the first writes 2 mu theta as mu atan2(2 sqrt(lo hi), hi - lo)."""
    g, p = params.gamma, params.p
    law = _TABLE_CACHE.get((g, p))
    if law is None:
        a, b = math.sqrt((p / g) * (1.0 - g)), math.sqrt(1.0 - p)
        c, d = math.sqrt((1.0 - p) * (1.0 - g)), math.sqrt(p * g)
        mu, scale = min(p, g, 1.0 - p, 1.0 - g), math.pi * min(p, g)
        terms = ((mu / scale, 2.0, 1.0, -1.0),
                 (-abs(p - g) / scale, 2.0 * min(a, b), abs(a - b), a + b),
                 (abs(1.0 - p - g) / scale, 2.0 * min(c, d), c + d, abs(c - d)))
        if len(_TABLE_CACHE) > 64:
            _TABLE_CACHE.clear()
        law = _TABLE_CACHE[g, p] = (mu / min(p, g), terms)
    return law


def _bulk_cdf(terms: tuple, s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Bulk CDF at the points whose sqrt(t - r-) : sqrt(r+ - t) is s : c."""
    sc, c2, s2 = s * c, c * c, s * s
    return sum(w * np.arctan2(k * sc, u * c2 + v * s2) for w, k, u, v in terms)


def cdf_many(ts, params: ManovaParams, left: bool = False) -> np.ndarray:
    """Full-law CDF (closed-form bulk plus a step at each jump) at each t, vectorized.

    left=True returns the left limit P(X < t) instead of P(X <= t); the two
    differ only at point masses.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    step = np.greater if left else np.greater_equal
    sup = support(params)
    out = np.zeros(ts.shape)
    if sup.has_bulk:
        mass, terms = _bulk_law(params)
        w = sup.r_plus - sup.r_minus
        # exactly 0 at and below r-; clipping keeps t = +-inf finite
        out = _bulk_cdf(terms, np.sqrt(np.clip(ts - sup.r_minus, 0.0, w)),
                        np.sqrt(np.clip(sup.r_plus - ts, 0.0, w)))
        # the whole bulk lies below 1/gamma, which r+ can exceed by round-off
        out[ts >= min(sup.r_plus, sup.atom_location)] = mass
    for loc, weight in sup.jumps:
        out = out + weight * step(ts, loc)
    # the whole mass lies at or below the last jump, whatever the round-off
    out[step(ts, sup.jumps[-1][0])] = 1.0
    return np.clip(out, 0.0, 1.0)


def cdf(t: float, params: ManovaParams) -> float:
    """Scalar convenience wrapper over cdf_many."""
    return float(cdf_many(np.array([float(t)]), params)[0])


def quantile_many(qs, params: ManovaParams) -> np.ndarray:
    """Generalized inverse of cdf (for inverse-transform sampling).

    Probability levels falling in the atom's mass map to 1/gamma.  The bulk
    CDF rises with theta, t = r- + w sin^2(theta), so bulk levels bisect
    theta on [0, pi/2] until the bracket stops shrinking.
    """
    qs = np.atleast_1d(np.asarray(qs, dtype=float))
    if not np.all((qs >= 0.0) & (qs <= 1.0)):
        raise ValueError("probability levels must lie in [0, 1]")
    sup = support(params)
    if not sup.has_bulk:
        # at most two jumps: levels up to the first one's weight map to it
        (first, weight), (last, _) = sup.jumps[0], sup.jumps[-1]
        return np.where(qs <= weight, first, last)
    mass, terms = _bulk_law(params)
    # level 0 sits at r-, and levels above the bulk need no search
    lo, hi = np.zeros(qs.shape), np.where((qs > 0.0) & (qs <= mass), _HALF_PI, 0.0)
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        below = _bulk_cdf(terms, np.sin(mid), np.cos(mid)) < qs
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        mid = 0.5 * (lo + hi)
    t = sup.r_minus + (sup.r_plus - sup.r_minus) * np.sin(hi) ** 2
    return np.where(qs <= mass, t, sup.atom_location)

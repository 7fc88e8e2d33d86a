"""Wachter's MANOVA limit law for erased-frame spectra.

MANOVA(gamma, p), with aspect ratio gamma = m/n and keep probability p, has
a continuous bulk

    rho(t) = gamma sqrt((t - r-)(r+ - t)) / (2 pi t (1 - gamma t) min(p, gamma))

on [r-, r+] with r+- = (sqrt((p/gamma)(1 - gamma)) +- sqrt(1 - p))^2, plus a
point mass at 1/gamma of weight (p + gamma - 1)^+ / min(p, gamma).  Bulk and
atom together carry probability 1.

Moments are reported in the same normalization as the erased-frame moments
(divide by the full frame size n): the d-th moment is min(p, gamma) times
the law's raw d-th moment, which makes the first moment exactly p.

Quadrature substitutes t = r- + w sin^2(theta): the square-root edge factors
become w sin(theta) cos(theta) and the 1 - gamma t factor becomes
(1 - gamma r+) + gamma w cos^2(theta) with the cancellation-free identity
1 - gamma r+ = (sqrt((1-p)(1-gamma)) - sqrt(p gamma))^2, so the transformed
integrand is smooth on [0, pi/2] even when the bulk touches 0 or 1/gamma.
Every bulk integral (moments, bulk mass, the cached CDF tables) runs through
one loop, _refine, that doubles composite Gauss-Legendre panels until two
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

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)
_HALF_PI = math.pi / 2.0
_DEGENERATE_WIDTH = 1e-14
_MAX_PANELS = 1 << 13
_TABLE_MIN_PANELS = 256
# points per block of the bulk integrand: its few block-sized temporaries
# stay in cache however many points a call evaluates
_INTEGRAND_BLOCK = 2048


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
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")

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


def density(t: float, params: ManovaParams) -> float:
    """Continuous bulk density at t; 0 outside the open interval (r-, r+).

    The atom is reported separately through support().  Parameter sets with
    an empty bulk (p in {0, 1}, or gamma = 1) raise AtomicOnlyError.
    """
    sup = support(params)
    if not sup.has_bulk:
        raise AtomicOnlyError("no continuous bulk for these parameters")
    t = float(t)
    if t <= sup.r_minus or t >= sup.r_plus:
        return 0.0
    g = params.gamma
    num = g * math.sqrt((t - sup.r_minus) * (sup.r_plus - t))
    return num / (2.0 * math.pi * t * (1.0 - g * t) * min(params.p, g))


def _bulk_integrand(params: ManovaParams, sup: ManovaSupport):
    """theta-integrand of the bulk law over [0, pi/2], vectorized over a 1-D
    theta array in blocks of _INTEGRAND_BLOCK points.

    With t = r- + w sin^2(theta): rho(t) dt = gamma w^2 sin^2 cos^2 /
    (pi t (1 - gamma t) min(p, gamma)) dtheta.  sin^2/t stays finite when
    r- = 0 and cos^2/(1 - gamma t) stays finite when r+ = 1/gamma, provided
    theta is evaluated strictly inside (0, pi/2) -- Gauss nodes are.
    """
    g, p = params.gamma, params.p
    w = sup.r_plus - sup.r_minus
    edge_plus = (math.sqrt((1.0 - p) * (1.0 - g)) - math.sqrt(p * g)) ** 2
    scale = g * w * w / (math.pi * min(p, g))
    gw = g * w

    def fn(theta, f=None):
        # scale s2 c2 / (max(t, 1e-300) (edge_plus + gw c2)) [* f(t)], one
        # block at a time in place, in the operation order of that one-shot
        # expression, so every value is bit-identical to it
        out = np.empty(theta.shape)
        size = min(theta.size, _INTEGRAND_BLOCK)
        s2, c2, t = np.empty(size), np.empty(size), np.empty(size)
        for lo in range(0, theta.size, _INTEGRAND_BLOCK):
            th = theta[lo : lo + _INTEGRAND_BLOCK]
            k = th.size
            s, c, tk, val = s2[:k], c2[:k], t[:k], out[lo : lo + k]
            np.sin(th, out=s)
            np.multiply(s, s, out=s)
            np.cos(th, out=c)
            np.multiply(c, c, out=c)
            np.multiply(s, w, out=tk)
            np.add(tk, sup.r_minus, out=tk)
            np.multiply(s, scale, out=val)
            np.multiply(val, c, out=val)
            # theta = 0 with r- = 0 gives t = 0 and a zero numerator; clamp
            # the denominator so the 0/0 resolves to the correct limit 0
            np.maximum(tk, 1e-300, out=s)
            np.multiply(c, gw, out=c)
            np.add(c, edge_plus, out=c)
            np.multiply(s, c, out=s)
            np.divide(val, s, out=val)
            if f is not None:
                np.multiply(val, f(tk), out=val)
        return out

    return fn


def _refine(fn, panels: int, tol: float) -> tuple:
    """Composite Gauss-Legendre over [0, pi/2], doubling the panels from the
    given count until two refinements agree to tol.

    Returns (panel edges, panel half-width, unscaled per-panel sums, total);
    a panel's integral is the half-width times its sum.
    """
    prev = None
    while True:
        edges = np.linspace(0.0, _HALF_PI, panels + 1)
        half = 0.5 * (edges[1] - edges[0])
        pts = (edges[:-1] + half)[:, None] + half * _NODES[None, :]
        raw = fn(pts.reshape(-1)).reshape(panels, -1) @ _WEIGHTS
        total = half * float(raw.sum())
        est = math.inf if prev is None else abs(total - prev)
        if est <= tol:
            return edges, half, raw, total
        if panels >= _MAX_PANELS:
            raise QuadratureError("quadrature did not reach the requested tolerance", est)
        prev, panels = total, 2 * panels


def bulk_mass(params: ManovaParams) -> float:
    """Probability carried by the continuous bulk (1 - atom_weight in exact
    arithmetic); 0 when the bulk is empty."""
    sup = support(params)
    if not sup.has_bulk:
        return 0.0
    return _refine(_bulk_integrand(params, sup), 8, 1e-9)[3]


def moment_closed(params: ManovaParams, d: int) -> float:
    """Closed-form d-th moment (d <= 4), normalized by full dimension n.

    At p = 1 these collapse to (x + 1)^(d-1) = (n/m)^(d-1); at gamma = 1
    (x = 0) every order equals p.
    """
    x, p = params.x, params.p
    if d == 1:
        return p
    if d == 2:
        return p + p * p * x
    if d == 3:
        return p + 3.0 * p**2 * x + p**3 * (x * x - x)
    if d == 4:
        return (
            p
            + 6.0 * p**2 * x
            + p**3 * (6.0 * x * x - 4.0 * x)
            + p**4 * (x**3 - 3.0 * x * x + x)
        )
    raise ValueError("moment order must be 1..4 (no closed form shipped above 4)")


def moment_numeric(params: ManovaParams, d: int, tol: float = 1e-8) -> float:
    """Quadrature oracle for the d-th moment:
    min(p, gamma) * (integral of t^d rho(t) dt + atom_weight / gamma^d)."""
    if d < 1:
        raise ValueError("moment order must be a positive integer")
    sup = support(params)
    bulk = 0.0
    if sup.has_bulk:
        fn = _bulk_integrand(params, sup)
        bulk = _refine(lambda th: fn(th, lambda t: t**d), 8, tol)[3]
    return min(params.p, params.gamma) * (bulk + sup.atom_weight * sup.atom_location**d)


def delta_correction(params: ManovaParams, d: int, n: int) -> float:
    """Finite-size bound correction: 0 for d = 2, 3 and
    p^2 (1-p)^2 x^2 / (n - 1) for d = 4; vanishes as n grows."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if d not in (2, 3, 4):
        raise ValueError("order must be 2..4")
    if d < 4:
        return 0.0
    p, x = params.p, params.x
    return (p * (1.0 - p)) ** 2 * x * x / (n - 1.0)


# Cached cumulative bulk tables keyed by (gamma, p): the integrand, panel
# edges in theta and prefix sums of per-panel integrals, refined until the
# total stabilizes.
_TABLE_CACHE: dict = {}


def _bulk_table(params: ManovaParams):
    key = (params.gamma, params.p)
    tab = _TABLE_CACHE.get(key)
    if tab is not None:
        return tab
    fn = _bulk_integrand(params, support(params))
    edges, half, raw, _ = _refine(fn, _TABLE_MIN_PANELS, 1e-9)
    if len(_TABLE_CACHE) > 64:
        _TABLE_CACHE.clear()
    tab = (fn, edges, np.concatenate([[0.0], np.cumsum(half * raw)]))
    _TABLE_CACHE[key] = tab
    return tab


def cdf_many(ts, params: ManovaParams, left: bool = False) -> np.ndarray:
    """Full-law CDF (bulk quadrature plus a step at each jump) at each t, vectorized.

    left=True returns the left limit P(X < t) instead of P(X <= t); the two
    differ only at point masses.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    step = np.greater if left else np.greater_equal
    sup = support(params)
    out = np.zeros(ts.shape)
    if sup.has_bulk:
        fn, edges, prefix = _bulk_table(params)
        ratio = np.clip((ts - sup.r_minus) / (sup.r_plus - sup.r_minus), 0.0, 1.0)
        theta = np.arcsin(np.sqrt(ratio))
        j = np.clip(np.searchsorted(edges, theta, side="right") - 1, 0, len(edges) - 2)
        lo = edges[j]
        half = 0.5 * (theta - lo)
        pts = (lo + half)[:, None] + half[:, None] * _NODES[None, :]
        out = prefix[j] + (fn(pts.reshape(-1)).reshape(ts.size, -1) @ _WEIGHTS) * half
        out[ts <= sup.r_minus] = 0.0
        # the whole bulk lies below 1/gamma, which r+ can exceed by round-off
        out[ts >= min(sup.r_plus, sup.atom_location)] = prefix[-1]
    for loc, weight in sup.jumps:
        out = out + weight * step(ts, loc)
    return np.clip(out, 0.0, 1.0)


def cdf(t: float, params: ManovaParams) -> float:
    """Scalar convenience wrapper over cdf_many."""
    return float(cdf_many(np.array([float(t)]), params)[0])


def quantile_many(qs, params: ManovaParams) -> np.ndarray:
    """Generalized inverse of cdf (for inverse-transform sampling).

    Probability levels falling in the atom's mass map to 1/gamma; bulk
    levels are inverted on the cached cumulative table (piecewise-linear in
    theta, resolution well below any sampling noise at desk scale).
    """
    qs = np.atleast_1d(np.asarray(qs, dtype=float))
    if np.any((qs < 0.0) | (qs > 1.0)):
        raise ValueError("probability levels must lie in [0, 1]")
    sup = support(params)
    if not sup.has_bulk:
        # at most two jumps: levels up to the first one's weight map to it
        (first, weight), (last, _) = sup.jumps[0], sup.jumps[-1]
        return np.where(qs <= weight, first, last)
    _, edges, prefix = _bulk_table(params)
    theta = np.interp(qs, prefix, edges)
    t = sup.r_minus + (sup.r_plus - sup.r_minus) * np.sin(theta) ** 2
    return np.where(qs <= prefix[-1], t, sup.atom_location)

"""Structural constants and the chemotactic sensitivity threshold.

Everything here is deterministic: the envelope constant C0 and the
constant kappa of the functional inequality, both in closed form and
scalar, the derived constants C1/C2/C3 and the admissibility exponent r_p,
the per-point sensitivity bound chi_{theta,alpha,gamma} (bisection on a
strictly increasing map) and the optimized threshold chi*_{theta,p}
(nested grid search over the open (gamma, alpha) box). The search bisects
each grid's points as arrays, in lockstep; a point's bound has the same
bits in any batch, `chi_for`'s batch of one included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

CHI_REL_TOL = 1e-8    # chi_for's bisection stops at this relative width
SEARCH_MARGIN = 1e-4  # chi_star's gap to the box edges, as a fraction of each range
SEARCH_COARSE = 60        # chi_star's coarse grid: gammas, and alphas per gamma
SEARCH_REFINE_ROUNDS = 4  # shrinking refinement rounds around the incumbent
SEARCH_REFINE_POINTS = 15  # gammas, and alphas per gamma, in each round


def c0_const(beta: float) -> float:
    """Envelope constant: sup over u >= 0 of h(u) = sqrt(u) (1 + beta*u)^(3/2) e^(-u).

    d/du log h = 1/(2u) + 3 beta/(2(1 + beta*u)) - 1 vanishes exactly where
    2 beta u^2 + (2 - 4 beta) u - 1 = 0. For beta > 0 that quadratic is
    -1 at u = 0 and opens upward, so it has exactly one positive root; for
    beta = 0 the root is u = 1/2. h vanishes at u = 0 and as u -> inf, so
    that root is the unique maximiser u*. With b = 2 - 4 beta and
    s = sqrt(b^2 + 8 beta), u* = 2/(b + s) for b >= 0 and (s - b)/(4 beta)
    otherwise: the two forms are equal, and each avoids cancellation on its
    side.
    """
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    b = 2.0 - 4.0 * beta
    s = math.sqrt(b * b + 8.0 * beta)
    u = 2.0 / (b + s) if b >= 0.0 else (s - b) / (4.0 * beta)
    return math.sqrt(u) * (1.0 + beta * u) ** 1.5 * math.exp(-u)


def kappa(a: float, b: float) -> float:
    """Optimal constant of the functional inequality: ((a+1)/a) (b/(b+1))^(a/b)."""
    if not 0.0 < a < b:
        raise ValueError(f"require 0 < a < b, got a={a}, b={b}")
    return (a + 1.0) / a * (b / (b + 1.0)) ** (a / b)


def check_gamma_alpha(gamma: float, alpha: float) -> None:
    """ValueError unless gamma lies in (3/2, 2) and alpha in (0, 1/(4(gamma-1)))."""
    if not 1.5 < gamma < 2.0:
        raise ValueError(f"gamma must lie in (3/2, 2), got {gamma}")
    a_max = 1.0 / (4.0 * (gamma - 1.0))
    if not 0.0 < alpha < a_max:
        raise ValueError(f"alpha must lie in (0, {a_max:.6g}) for gamma={gamma}, "
                         f"got {alpha}")


@dataclass(frozen=True)
class StructuralParams:
    """One admissible (gamma, alpha) point at a given (theta, p).

    gamma lies in the open interval (3/2, 2) and alpha in
    (0, 1/(4(gamma-1))), which makes C1 > 0. The tighter restriction
    gamma < (2p+2)/(p+2) is enforced only where the threshold search
    needs it; r_p is positive exactly there.
    """

    gamma: float
    alpha: float
    theta: float
    p: float = 4.0

    def __post_init__(self) -> None:
        check_gamma_alpha(self.gamma, self.alpha)
        if not 0.0 < self.theta < math.inf:
            raise ValueError(f"theta must be finite and > 0, got {self.theta}")
        if not 2.0 < self.p < math.inf:
            raise ValueError(f"p must be finite and > 2, got {self.p}")

    @property
    def r_p(self) -> float:
        return 1.0 - (self.gamma - 1.0) * (1.0 + 2.0 / self.p)


class StructuralConstants(NamedTuple):
    c1: float
    c2: float
    c3: float
    r_p: float


def gamma_upper(p: float) -> float:
    """Upper end (2p+2)/(p+2) of the admissible gamma interval."""
    if not 2.0 < p < math.inf:
        raise ValueError(f"p must be finite and > 2, got {p}")
    return (2.0 * p + 2.0) / (p + 2.0)


def _c123(g, a, th, c0, k_half, k_low):
    """C1, C2, C3 from gamma g, alpha a, theta th, C0(4 a/th),
    kappa(1/2, g - 1) and kappa(g - 3/2, g - 1): the formula, written once.

    Floats, or arrays of one shape (th a float): only IEEE arithmetic and
    square roots, each correctly rounded, so an array gives each point's
    scalar bits. C0 and kappa, which need exp and pow, come from the scalar
    functions, whose libm bits numpy's exp and power do not always match.
    """
    c1 = (g - 1.0) * (1.0 - 4.0 * a * (g - 1.0))
    c2 = np.sqrt(a * th) * (g - 1.0) / (2.0 * math.pi) * c0 * k_half * k_low
    c3 = math.sqrt(th) * c0 * k_half / (4.0 * math.pi * np.sqrt(a) * (4.0 - 2.0 * g))
    return c1, c2, c3


def structural_constants(sp: StructuralParams) -> StructuralConstants:
    """C1, C2, C3 and r_p at one parameter point."""
    g, a, th = sp.gamma, sp.alpha, sp.theta
    c123 = _c123(g, a, th, c0_const(4.0 * a / th), kappa(0.5, g - 1.0),
                 kappa(g - 1.5, g - 1.0))
    return StructuralConstants(*map(float, c123), sp.r_p)


def _gap_positive(chi, c1, c2, c3, expo) -> np.ndarray:
    """Whether C1 - (chi C2 + (chi C3)^expo) > 0, expo = 2(gamma - 1),
    elementwise over equal-shape arrays, with the sign the scalar form
    gets from libm's pow.

    numpy's power is within an ulp or two of libm's but not equal to it;
    only the sign is used, so a point whose gap is within 2^-40 of its
    terms' size, or not finite, is evaluated again with math.pow (which,
    like the scalar form, raises OverflowError where the power overflows).
    """
    with np.errstate(over="ignore"):
        lhs = chi * c2 + np.power(chi * c3, expo)
    gap = c1 - lhs
    out = gap > 0.0
    unsure = ~(np.abs(gap) > 2.0 ** -40 * (c1 + lhs))
    for k in np.flatnonzero(unsure):
        power = math.pow(float(chi[k] * c3[k]), float(expo[k]))
        out[k] = c1[k] - (chi[k] * c2[k] + power) > 0.0
    return out


def _chi_roots(c1, c2, c3, gamma) -> np.ndarray:
    """Largest admissible chi (see chi_for) at each point of equal-shape
    arrays. Every point is bracketed by doubling from [0, 1] and then
    bisected to the relative width CHI_REL_TOL, all in lockstep: each point
    sees the brackets, midpoints and stop rule it would see alone, so its
    root has the same bits whatever else is in the batch.
    """
    c1, c2, c3, gamma = np.atleast_1d(c1, c2, c3, gamma)
    if np.any(c1 <= 0):
        raise ValueError(f"C1 must be > 0, got {c1[c1 <= 0][0]}")
    expo = 2.0 * (gamma - 1.0)
    lo, hi = np.zeros_like(c1), np.ones_like(c1)
    grow = _gap_positive(hi, c1, c2, c3, expo)
    while grow.any():
        lo[grow] = hi[grow]
        hi[grow] *= 2.0
        if np.any(hi > 1e300):
            raise RuntimeError("failed to bracket the admissibility root")
        grow[grow] = _gap_positive(hi[grow], c1[grow], c2[grow], c3[grow],
                                   expo[grow])
    live = hi - lo > CHI_REL_TOL * hi
    while live.any():
        mid = 0.5 * (lo + hi)
        up = _gap_positive(mid, c1, c2, c3, expo)
        np.copyto(lo, mid, where=live & up)
        np.copyto(hi, mid, where=live & ~up)
        live = hi - lo > CHI_REL_TOL * hi
    return 0.5 * (lo + hi)


def chi_for(sp: StructuralParams) -> float:
    """Largest admissible chi at one (theta, alpha, gamma) point.

    The admissibility left side is continuous, strictly increasing, zero at
    chi=0 and unbounded, so the supremum is the unique root of
    chi*C2 + (chi*C3)^(2(gamma-1)) = C1, bracketed by doubling and then
    bisected to the relative tolerance CHI_REL_TOL: the one-point case of
    the lockstep bisection (`_chi_roots`) that chi_star runs over its grids.
    """
    sc = structural_constants(sp)
    return float(_chi_roots(sc.c1, sc.c2, sc.c3, sp.gamma)[0])


@dataclass
class ThresholdResult:
    """Optimized threshold with the winning point and the full audit trail."""

    chi_star: float
    best_gamma: float
    best_alpha: float
    audit: list[tuple[float, float, float]] = field(default_factory=list)


def _alpha_grid(gamma: float, lo_frac: float, hi_frac: float, n: int) -> np.ndarray:
    """Log-spaced alpha samples strictly inside (0, 1/(4(gamma-1)))."""
    a_max = 1.0 / (4.0 * (gamma - 1.0))
    lo = max(lo_frac, SEARCH_MARGIN) * a_max
    hi = min(hi_frac, 1.0 - SEARCH_MARGIN) * a_max
    if hi <= lo:
        hi = lo * (1.0 + 1e-12)
    return np.geomspace(lo, hi, n)


def chi_star(theta: float, p: float) -> ThresholdResult:
    """Maximize chi_for over the open feasible (gamma, alpha) box.

    Deterministic coarse grid (linear in gamma, log in alpha) followed by
    shrinking local refinement around the incumbent; ties broken
    lexicographically on (gamma, alpha). The coarse grid and each
    refinement round are one batch: its admissible points are bisected in
    lockstep (`_chi_roots`), with the bits `chi_for` gives each alone, and
    appended to the audit trail in grid order. Points outside the box,
    which a refinement round's alpha grid can hold, are skipped. A coarse
    grid with no point inside the box, as when p is within about 1e-15
    of 2, is a ValueError naming theta and p.
    """
    if not 0.0 < theta < math.inf:
        raise ValueError(f"theta must be finite and > 0, got {theta}")
    g_lo, g_hi = 1.5, min(2.0, gamma_upper(p))
    g_span = g_hi - g_lo
    g_first, g_last = g_lo + SEARCH_MARGIN * g_span, g_hi - SEARCH_MARGIN * g_span
    audit: list[tuple[float, float, float]] = []
    best = (-math.inf, math.inf, math.inf)  # (chi, gamma, alpha) with chi negated ordering

    def consider(gammas: list[float], alphas: list[np.ndarray]) -> None:
        """Bisect one batch: alphas[k] is gamma k's alpha grid."""
        nonlocal best
        g = np.repeat(gammas, [len(a) for a in alphas])
        a = np.concatenate(alphas)
        ok = (1.5 < g) & (g < 2.0) & (0.0 < a) & (a < 1.0 / (4.0 * (g - 1.0)))
        g, a = g[ok], a[ok]
        if not g.size:
            return
        kap = {x: (kappa(0.5, x - 1.0), kappa(x - 1.5, x - 1.0))
               for x in set(g.tolist())}
        k_half, k_low = np.array([kap[x] for x in g.tolist()]).T
        c0 = np.array([c0_const(b) for b in (4.0 * a / theta).tolist()])
        chi = _chi_roots(*_c123(g, a, theta, c0, k_half, k_low), g)
        audit.extend(zip(g.tolist(), a.tolist(), chi.tolist()))
        for k in np.flatnonzero(chi == chi.max()):  # the batch's best, in grid order
            top = (float(chi[k]), float(g[k]), float(a[k]))
            if top[0] > best[0] or (top[0] == best[0] and top[1:] < best[1:]):
                best = top

    gammas = np.linspace(g_first, g_last, SEARCH_COARSE).tolist()
    consider(gammas, [_alpha_grid(g, SEARCH_MARGIN, 1.0, SEARCH_COARSE)
                      for g in gammas])
    if not audit:
        # p so close to 2 that the margin puts every gamma at or below 3/2
        raise ValueError(f"no admissible (gamma, alpha) point on the coarse "
                         f"grid at theta = {theta!r}, p = {p!r}")

    dg = g_span / (SEARCH_COARSE - 1)
    # adjacent-point ratio of the coarse log-spaced alpha grid
    da_ratio = ((1.0 - SEARCH_MARGIN) / SEARCH_MARGIN) ** (1.0 / (SEARCH_COARSE - 1))
    for _ in range(SEARCH_REFINE_ROUNDS):
        chi_b, g_b, a_b = best
        g_min = max(g_first, g_b - dg)
        g_max = min(g_last, g_b + dg)
        gammas = np.linspace(g_min, g_max, SEARCH_REFINE_POINTS).tolist()
        alphas = []
        for g in gammas:
            a_max_g = 1.0 / (4.0 * (g - 1.0))
            lo_frac = a_b / da_ratio / a_max_g
            hi_frac = a_b * da_ratio / a_max_g
            alphas.append(_alpha_grid(g, lo_frac, hi_frac, SEARCH_REFINE_POINTS))
        consider(gammas, alphas)
        dg = (g_max - g_min) / (SEARCH_REFINE_POINTS - 1)
        da_ratio = da_ratio ** (2.0 / (SEARCH_REFINE_POINTS - 1))

    chi_b, g_b, a_b = best
    return ThresholdResult(chi_star=chi_b, best_gamma=g_b, best_alpha=a_b, audit=audit)

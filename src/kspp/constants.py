"""Structural constants and the chemotactic sensitivity threshold.

Everything here is deterministic scalar computation: the envelope constant
C0 and the constant kappa of the functional inequality, both in closed
form, the derived constants C1/C2/C3 and the admissibility exponent r_p, the
per-point sensitivity bound chi_{theta,alpha,gamma} (bisection on a
strictly increasing map) and the optimized threshold chi*_{theta,p}
(nested grid search over the open (gamma, alpha) box).
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


def structural_constants(sp: StructuralParams) -> StructuralConstants:
    """C1, C2, C3 and r_p at one parameter point."""
    g, a, th = sp.gamma, sp.alpha, sp.theta
    c0 = c0_const(4.0 * a / th)
    k_half = kappa(0.5, g - 1.0)
    k_low = kappa(g - 1.5, g - 1.0)
    c1 = (g - 1.0) * (1.0 - 4.0 * a * (g - 1.0))
    c2 = math.sqrt(a * th) * (g - 1.0) / (2.0 * math.pi) * c0 * k_half * k_low
    c3 = math.sqrt(th) * c0 * k_half / (4.0 * math.pi * math.sqrt(a) * (4.0 - 2.0 * g))
    return StructuralConstants(c1, c2, c3, sp.r_p)


def _admissibility_gap(chi: float, sc: StructuralConstants, gamma: float) -> float:
    """C1 minus the left side; positive iff chi is admissible."""
    lhs = chi * sc.c2 + (chi * sc.c3) ** (2.0 * (gamma - 1.0))
    return sc.c1 - lhs


def admissible(chi: float, sp: StructuralParams) -> bool:
    """Whether chi*C2 + (chi*C3)^(2(gamma-1)) < C1 holds strictly."""
    if chi <= 0:
        raise ValueError(f"chi must be > 0, got {chi}")
    return _admissibility_gap(chi, structural_constants(sp), sp.gamma) > 0.0


def chi_for(sp: StructuralParams) -> float:
    """Largest admissible chi at one (theta, alpha, gamma) point.

    The admissibility left side is continuous, strictly increasing, zero at
    chi=0 and unbounded, so the supremum is the unique root of
    chi*C2 + (chi*C3)^(2(gamma-1)) = C1, bracketed by doubling and then
    bisected to the relative tolerance CHI_REL_TOL.
    """
    sc = structural_constants(sp)
    if sc.c1 <= 0:
        raise ValueError(f"C1 must be > 0, got {sc.c1}")
    lo, hi = 0.0, 1.0
    while _admissibility_gap(hi, sc, sp.gamma) > 0.0:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise RuntimeError("failed to bracket the admissibility root")
    while hi - lo > CHI_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if _admissibility_gap(mid, sc, sp.gamma) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    lexicographically on (gamma, alpha). Every evaluated point is appended
    to the audit trail.
    """
    if not 0.0 < theta < math.inf:
        raise ValueError(f"theta must be finite and > 0, got {theta}")
    g_lo, g_hi = 1.5, min(2.0, gamma_upper(p))
    g_span = g_hi - g_lo
    g_first, g_last = g_lo + SEARCH_MARGIN * g_span, g_hi - SEARCH_MARGIN * g_span
    audit: list[tuple[float, float, float]] = []
    best = (-math.inf, math.inf, math.inf)  # (chi, gamma, alpha) with chi negated ordering

    def consider(gamma: float, alpha: float) -> None:
        nonlocal best
        try:
            sp = StructuralParams(gamma=gamma, alpha=alpha, theta=theta, p=p)
        except ValueError:
            return
        chi = chi_for(sp)
        audit.append((gamma, alpha, chi))
        if chi > best[0] or (chi == best[0] and (gamma, alpha) < best[1:]):
            best = (chi, gamma, alpha)

    for g in np.linspace(g_first, g_last, SEARCH_COARSE):
        for a in _alpha_grid(float(g), SEARCH_MARGIN, 1.0, SEARCH_COARSE):
            consider(float(g), float(a))

    dg = g_span / (SEARCH_COARSE - 1)
    # adjacent-point ratio of the coarse log-spaced alpha grid
    da_ratio = ((1.0 - SEARCH_MARGIN) / SEARCH_MARGIN) ** (1.0 / (SEARCH_COARSE - 1))
    for _ in range(SEARCH_REFINE_ROUNDS):
        chi_b, g_b, a_b = best
        g_min = max(g_first, g_b - dg)
        g_max = min(g_last, g_b + dg)
        gammas = np.linspace(g_min, g_max, SEARCH_REFINE_POINTS)
        for g in gammas:
            a_max_g = 1.0 / (4.0 * (float(g) - 1.0))
            lo_frac = a_b / da_ratio / a_max_g
            hi_frac = a_b * da_ratio / a_max_g
            for a in _alpha_grid(float(g), lo_frac, hi_frac, SEARCH_REFINE_POINTS):
                consider(float(g), float(a))
        dg = (g_max - g_min) / (SEARCH_REFINE_POINTS - 1)
        da_ratio = da_ratio ** (2.0 / (SEARCH_REFINE_POINTS - 1))

    chi_b, g_b, a_b = best
    return ThresholdResult(chi_star=chi_b, best_gamma=g_b, best_alpha=a_b, audit=audit)

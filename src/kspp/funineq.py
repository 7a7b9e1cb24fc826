"""Verification suite for the weighted-integral comparison inequality.

For measurable f >= 0 on [0, t] and 0 < a < b,

    int_0^t (s + f(s))^(-(1+a)) ds  <=  kappa(a,b) * (int_0^t (s + f(s))^(-(1+b)) ds)^(a/b).

The test family is piecewise-constant f, for which both integrals are exact
closed forms, so a violation can never be blamed on quadrature error. The
extremal profile g(s) = min(k, 1/s) attains the constant, and the hinge
family f(s) = (eps - s)_+ drives the ratio to 1 as eps -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import kappa

SWEEP_MAX_PIECES = 32   # pieces per random_sweep step function, at most
SWEEP_REL_TOL = 1e-12   # random_sweep's violation threshold: ratio > 1 + this


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant f on [0, horizon].

    `breakpoints` are the interior cut points (strictly increasing, inside
    (0, horizon)); `values` holds one nonnegative level per piece, so
    len(values) == len(breakpoints) + 1.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    horizon: float

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if len(self.values) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one value per piece "
                             f"({len(self.breakpoints) + 1} pieces, "
                             f"{len(self.values)} values)")
        prev = 0.0
        for bp in self.breakpoints:
            if not prev < bp < self.horizon:
                raise ValueError("breakpoints must be strictly increasing "
                                 f"inside (0, {self.horizon})")
            prev = bp
        if any(v < 0 for v in self.values):
            raise ValueError("values must be nonnegative")

    def edges(self) -> np.ndarray:
        return np.asarray((0.0, *self.breakpoints, self.horizon))


@dataclass(frozen=True)
class InequalityResult:
    lhs: float
    rhs: float
    ratio: float
    divergent: bool


def _piece_integral(lo: float, hi: float, c: float, q: float) -> float:
    """Exact int_lo^hi (s + c)^(-(1+q)) ds for constant c >= 0, q > 0."""
    if lo + c == 0.0:
        return math.inf
    return ((lo + c) ** (-q) - (hi + c) ** (-q)) / q


def evaluate_inequality(f: StepFunction, a: float, b: float) -> InequalityResult:
    """Both sides of the inequality for a piecewise-constant f, exactly.

    A piece with value 0 starting at s = 0 makes both integrals diverge;
    the case is reported with the `divergent` flag (the inequality is
    vacuous there) and ratio = nan.
    """
    if not 0.0 < a < b:
        raise ValueError(f"require 0 < a < b, got a={a}, b={b}")
    edges = f.edges()
    lhs = 0.0
    ib = 0.0
    for lo, hi, v in zip(edges[:-1], edges[1:], f.values):
        lhs += _piece_integral(lo, hi, v, a)
        ib += _piece_integral(lo, hi, v, b)
    if math.isinf(lhs) or math.isinf(ib):
        return InequalityResult(math.inf, math.inf, math.nan, True)
    rhs = kappa(a, b) * ib ** (a / b)
    return InequalityResult(lhs, rhs, lhs / rhs, False)


def extremal_profile(k: float, a: float, b: float) -> tuple[float, float, float]:
    """Integrals I_a, I_b of g(s) = min(k, 1/s) on [0, inf) and their ratio.

    I_q = k^q (1 + 1/q); the ratio I_a / I_b^(a/b) equals kappa(a, b) for
    every k > 0 (scaling invariance of the extremizer family).
    """
    if k <= 0:
        raise ValueError(f"k must be > 0, got {k}")
    if not 0.0 < a < b:
        raise ValueError(f"require 0 < a < b, got a={a}, b={b}")
    i_a = k ** a * (1.0 + 1.0 / a)
    i_b = k ** b * (1.0 + 1.0 / b)
    return i_a, i_b, i_a / i_b ** (a / b)


def _hinge_integral(eps: float, t: float, q: float) -> float:
    """Exact int_0^t (s + (eps - s)_+)^(-(1+q)) ds.

    s + f(s) equals eps on [0, eps] and s on [eps, t], so the integral is
    eps^(-q) + (eps^(-q) - t^(-q)) / q.
    """
    return eps ** (-q) + (eps ** (-q) - t ** (-q)) / q


def tightness_scan(eps_list: list[float] | np.ndarray, a: float, b: float,
                   t: float) -> list[float]:
    """Inequality ratios for f(s) = (eps - s)_+, one per eps.

    The ratios increase toward 1 as eps decreases, which is how the
    optimality of kappa(a, b) shows up at finite eps.
    """
    if not 0.0 < a < b:
        raise ValueError(f"require 0 < a < b, got a={a}, b={b}")
    k = kappa(a, b)
    ratios = []
    for eps in eps_list:
        if not 0.0 < eps < t:
            raise ValueError(f"eps must lie in (0, t) = (0, {t}), got {eps}")
        lhs = _hinge_integral(eps, t, a)
        rhs = k * _hinge_integral(eps, t, b) ** (a / b)
        ratios.append(lhs / rhs)
    return ratios


@dataclass
class SweepResult:
    cases: int
    evaluated: int
    divergent: int
    violations: int
    worst_ratio: float


def random_sweep(n_cases: int, seed: int) -> SweepResult:
    """Property sweep: random step functions and exponents, exact integrals.

    Values are log-uniform in [1e-4, 1e2], horizons log-uniform in
    [1e-2, 1e2], 0 < a < b <= 3. A case counts as a violation when
    ratio > 1 + SWEEP_REL_TOL.
    """
    rng = np.random.default_rng(seed)
    evaluated = divergent = violations = 0
    worst = 0.0
    for _ in range(n_cases):
        t = 10.0 ** rng.uniform(-2.0, 2.0)
        n_pieces = int(rng.integers(1, SWEEP_MAX_PIECES + 1))
        bps = np.sort(rng.uniform(0.0, t, size=n_pieces - 1))
        vals = 10.0 ** rng.uniform(-4.0, 2.0, size=n_pieces)
        b = rng.uniform(0.0, 3.0)
        while b == 0.0:  # pragma: no cover - measure zero
            b = rng.uniform(0.0, 3.0)
        a = rng.uniform(0.0, b)
        while a == 0.0 or a == b:  # pragma: no cover - measure zero
            a = rng.uniform(0.0, b)
        f = StepFunction(tuple(float(x) for x in bps),
                         tuple(float(v) for v in vals), t)
        res = evaluate_inequality(f, a, b)
        if res.divergent:
            divergent += 1
            continue
        evaluated += 1
        worst = max(worst, res.ratio)
        if res.ratio > 1.0 + SWEEP_REL_TOL:
            violations += 1
    return SweepResult(n_cases, evaluated, divergent, violations, worst)

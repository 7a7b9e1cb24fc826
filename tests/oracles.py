"""Reference implementations that only the tests use.

The i-major pair list, explicit-pair drifts, the frozen-pair drift
integral, the Lp norms of the heat-kernel gradient and of a
Gaussian-mixture source, the background field with its concentration
(from the package's mixture terms, and summed one component at a time),
the strict admissibility test of one chi, and the scalar chi bisection
with the threshold search built on it. The package runs without them;
the quadrature oracles are the only users of scipy.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from kspp import constants as C
from kspp.kernels import (EXP_CLAMP, KernelParams, SourceSpec, _clamped_exp,
                          _mixture_terms, _sqnorm, smoothed_weight)
from kspp.simulator import (SimConfig, _gauss_factor, _history_sums,
                            _history_start, _pair_geometry, _split_history)


def conv_weights(m: int, config: SimConfig):
    """History start l0, lags (m - l) dt and kernel weights of the history
    rows l0 <= l < m, formed for step m alone: the reference for the
    simulator's lag table slices (`_lag_table`, `_conv_weights`)."""
    l0 = _history_start(m, config)
    lags = (m - np.arange(l0, m)) * config.dt
    return l0, lags, smoothed_weight(lags, config.params)


def ordered_pairs(n: int) -> list[tuple[int, int]]:
    """The ordered pairs (i, j != i) of n particles, i-major: the order of
    the reference loops, which compare pair by pair."""
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def pair_drifts(positions: np.ndarray, config: SimConfig, m: int,
                i_idx, j_idx) -> np.ndarray:
    """Discrete pair drifts D^{i,j}_m of every replica, shape (R, K, 2).

    `positions` is (R, T, N, 2) with T > m; pair k is (i_idx[k], j_idx[k]).
    Uses exactly the simulator's convolution rule, so values agree with
    what the integrator fed into the paths (positions are the single
    source of truth; D is a pure function of them).
    """
    positions = np.asarray(positions, dtype=float)
    i_idx, j_idx = np.asarray(i_idx, dtype=int), np.asarray(j_idx, dtype=int)
    if m == 0:
        return np.zeros((positions.shape[0], len(i_idx), 2))
    l0, lags, w = conv_weights(m, config)
    h = _split_history(positions[:, : m + 1]).swapaxes(0, 1)
    # the simulator's helpers run in their caller's error state
    with np.errstate(over="ignore", invalid="ignore"):
        dx, dy, sq = _pair_geometry(h[:, :, i_idx, m, None],
                                    h[:, :, j_idx, l0:m])
        g = _gauss_factor(sq, lags, config, out=sq)
        return -config.dt * np.stack(_history_sums(dx, dy, g, w), axis=-1)


def frozen_drift_oracle(displacement, t: float, params: KernelParams) -> np.ndarray:
    """Drift integral int_0^t H_u(R) du for a constant displacement R.

    For lam = 0, eps = 0 this is the closed form
    -R e^(-theta|R|^2 / 4t) / (2 pi |R|^2); otherwise the radial weight is
    integrated by adaptive quadrature to absolute tolerance 1e-8.
    """
    r = np.asarray(displacement, dtype=float)
    sq = float(r @ r)
    if sq == 0.0:
        raise ValueError("displacement must be nonzero")
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    th, lam, eps = params.theta, params.lam, params.epsilon
    if lam == 0.0 and eps == 0.0:
        return -r * math.exp(-th * sq / (4.0 * t)) / (2.0 * math.pi * sq)

    def weight(u: float) -> float:
        if u == 0.0:
            return 0.0
        arg = th * sq / (4.0 * u)
        if arg > EXP_CLAMP:
            return 0.0
        return (th / (8.0 * math.pi * (u + eps) ** 2)
                * math.exp(-lam * u / th) * math.exp(-arg))

    total, _ = quad(weight, 0.0, t, epsabs=1e-8, limit=300)
    return -r * total


def heat_grad_lp_norm(t: float, q: float, params: KernelParams) -> float:
    """||grad g_t||_Lq by radial quadrature (the gradient field is radial)."""
    if t <= 0 or q < 1:
        raise ValueError("require t > 0 and q >= 1")
    th = params.theta

    def profile(r: float) -> float:
        mag = th / (4.0 * math.pi * t) * (th * r / (2.0 * t)) \
            * math.exp(-min(th * r * r / (4.0 * t), EXP_CLAMP))
        return 2.0 * math.pi * r * mag ** q

    upper = 30.0 * math.sqrt(t / th)
    val, _ = quad(profile, 0.0, upper, limit=200)
    return val ** (1.0 / q)


def source_density(source: SourceSpec, x) -> np.ndarray:
    """The mixture density of `source` itself at x (..., 2)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    for w, center, var in source.components:
        sq = _sqnorm(x - np.asarray(center))
        out = out + w / (2.0 * math.pi * var) * _clamped_exp(sq / (2.0 * var))
    return out


def background_field(t, x, source: SourceSpec, params: KernelParams):
    """Background concentration and its gradient at (t, x), (b, grad b)
    with shapes (...,) and (..., 2); an empty source yields zeros. Both
    sums start from zeros and add the package's terms
    (`kernels._mixture_terms`) one at a time, in order, as
    `kernels.background_grad` adds grad b's: the same bits."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise ValueError("background_field requires t > 0")
    x = np.asarray(x, dtype=float)
    b = np.zeros(np.broadcast_shapes(t.shape, x.shape[:-1]))
    grad = np.zeros(b.shape + (2,))
    for b_k, grad_k in zip(*_mixture_terms(t, x, source, params)):
        b = b + b_k   # a scalar for scalar t and one point
        grad += grad_k
    return b, grad


def background_reference(t, x, source: SourceSpec, params: KernelParams):
    """(b, grad b) of `background_field`, one component at a time:
    each component's terms formed alone (a float time as a float), then
    added to zeros in the order of `source.components`."""
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    b = np.zeros(np.broadcast_shapes(t.shape, x.shape[:-1]))
    grad = np.zeros(b.shape + (2,))
    if t.size == 1:
        t = t.item()
    decay = np.exp(-params.lam * t / params.theta)
    spread = 2.0 * t / params.theta
    for w, center, var in source.components:
        v_t = var + spread
        d = x - np.asarray(center)
        b_k = decay * (w / (2.0 * math.pi * v_t)
                       * _clamped_exp(_sqnorm(d) / (2.0 * v_t)))
        b = b + b_k
        grad += (-(b_k / v_t))[..., None] * d
    return b, grad


def source_lp_norm(source: SourceSpec, p: float, n_quad: int = 400) -> float:
    """||c0||_Lp of `source` by tensor Gauss-Legendre quadrature over a
    covering box."""
    if source.is_zero:
        return 0.0
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    half = max(abs(c[0]) + abs(c[1]) + 12.0 * math.sqrt(v)
               for _, c, v in source.components)
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    u = half * nodes
    w2 = np.outer(weights, weights) * half * half
    grid = np.stack(np.meshgrid(u, u, indexing="ij"), axis=-1)
    return float(np.sum(source_density(source, grid) ** p * w2)) ** (1.0 / p)


def admissible(chi: float, sp: C.StructuralParams) -> bool:
    """Whether chi*C2 + (chi*C3)^(2(gamma-1)) < C1 holds strictly, by the
    package's sign test (`constants._gap_positive`)."""
    if chi <= 0:
        raise ValueError(f"chi must be > 0, got {chi}")
    sc = C.structural_constants(sp)
    return bool(C._gap_positive(*np.atleast_1d(
        chi, sc.c1, sc.c2, sc.c3, 2.0 * (sp.gamma - 1.0)))[0])


def bisect_reference(c1: float, c2: float, c3: float, gamma: float) -> float:
    """The root of chi C2 + (chi C3)^(2(gamma - 1)) = C1 by one scalar
    bisection: doubling from [0, 1], then halving to the relative width
    CHI_REL_TOL, with Python's float pow (libm)."""
    def gap(chi):
        return c1 - (chi * c2 + (chi * c3) ** (2.0 * (gamma - 1.0)))

    if c1 <= 0:
        raise ValueError(f"C1 must be > 0, got {c1}")
    lo, hi = 0.0, 1.0
    while gap(hi) > 0.0:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise RuntimeError("failed to bracket the admissibility root")
    while hi - lo > C.CHI_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chi_for_reference(sp: C.StructuralParams) -> float:
    """chi_for at one point, by the scalar bisection."""
    sc = C.structural_constants(sp)
    return bisect_reference(sc.c1, sc.c2, sc.c3, sp.gamma)


def chi_star_reference(theta: float, p: float) -> C.ThresholdResult:
    """chi_star point by point: every grid point in turn is validated by
    StructuralParams (invalid ones skipped), bisected by
    `chi_for_reference`, audited, and compared with the incumbent."""
    if not 0.0 < theta < math.inf:
        raise ValueError(f"theta must be finite and > 0, got {theta}")
    g_lo, g_hi = 1.5, min(2.0, C.gamma_upper(p))
    g_span = g_hi - g_lo
    g_first = g_lo + C.SEARCH_MARGIN * g_span
    g_last = g_hi - C.SEARCH_MARGIN * g_span
    audit = []
    best = (-math.inf, math.inf, math.inf)

    def consider(gamma, alpha):
        nonlocal best
        try:
            sp = C.StructuralParams(gamma=gamma, alpha=alpha, theta=theta, p=p)
        except ValueError:
            return
        chi = chi_for_reference(sp)
        audit.append((gamma, alpha, chi))
        if chi > best[0] or (chi == best[0] and (gamma, alpha) < best[1:]):
            best = (chi, gamma, alpha)

    for g in np.linspace(g_first, g_last, C.SEARCH_COARSE):
        for a in C._alpha_grid(float(g), C.SEARCH_MARGIN, 1.0, C.SEARCH_COARSE):
            consider(float(g), float(a))
    dg = g_span / (C.SEARCH_COARSE - 1)
    da_ratio = ((1.0 - C.SEARCH_MARGIN) / C.SEARCH_MARGIN) ** (
        1.0 / (C.SEARCH_COARSE - 1))
    for _ in range(C.SEARCH_REFINE_ROUNDS):
        _, g_b, a_b = best
        g_min, g_max = max(g_first, g_b - dg), min(g_last, g_b + dg)
        for g in np.linspace(g_min, g_max, C.SEARCH_REFINE_POINTS):
            a_max_g = 1.0 / (4.0 * (float(g) - 1.0))
            lo_frac, hi_frac = a_b / da_ratio / a_max_g, a_b * da_ratio / a_max_g
            for a in C._alpha_grid(float(g), lo_frac, hi_frac,
                                   C.SEARCH_REFINE_POINTS):
                consider(float(g), float(a))
        dg = (g_max - g_min) / (C.SEARCH_REFINE_POINTS - 1)
        da_ratio = da_ratio ** (2.0 / (C.SEARCH_REFINE_POINTS - 1))
    return C.ThresholdResult(*best, audit=audit)

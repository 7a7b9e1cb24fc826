"""Monte Carlo estimators for the bounded moment functionals.

Given a simulated TrajectoryEnsemble, this module estimates the pairwise
moment functionals (inverse-distance integral E1, space-time double
integrals E2/E3, drift-power integral E4, the Markovianization integrals
S and their offset variant), checks the drift-domination and Hoelder
modulus inequalities in their exact discrete form, and evaluates the
Ito-balance identity and the empirical martingale residual for built-in
test-function families.

Conventions shared with the simulator: double time sums use the
u-exclusive left-endpoint rule in the inner (history) variable where the
integrand is singular on the diagonal, trapezoid weights elsewhere; pair
reductions use exact summation (math.fsum) so every estimator is invariant
under particle relabeling bit for bit.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, asdict, replace
from typing import Sequence

import numpy as np

from .constants import c0_const, kappa
from .kernels import EXP_CLAMP, smoothed_weight
from .simulator import (DRIFT_BUDGET_BYTES, SimConfig, TrajectoryEnsemble,
                        _conv_weights, _history_sums, _pair_geometry, pair_drifts,
                        replica_blocks, step_drifts)

TEST_FUNCTION_VERSIONS = {
    "gaussian-bump": "gaussian-bump-v1",
    "pair-potential": "pair-potential-v1",
    "compact-bump": "compact-bump-v1",
}


@dataclass(frozen=True)
class EstimatorParams:
    """Exponents and weights for the moment functionals.

    gamma in (3/2, 2), alpha in (0, 1/(4(gamma-1))), delta >= 0 is the
    offset of the S-bar variant, horizon (model time, grid-aligned) defaults
    to the full simulated window.
    """

    gamma: float
    alpha: float
    delta: float = 0.0
    horizon: float | None = None

    def __post_init__(self) -> None:
        if not 1.5 < self.gamma < 2.0:
            raise ValueError(f"gamma must lie in (3/2, 2), got {self.gamma}")
        a_max = 1.0 / (4.0 * (self.gamma - 1.0))
        if not 0.0 < self.alpha < a_max:
            raise ValueError(f"alpha must lie in (0, {a_max:.6g}), got {self.alpha}")
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
        if self.horizon is not None and not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")


@dataclass
class FunctionalEstimate:
    value: float
    stderr: float
    n_replicas: int
    per_replica: np.ndarray


@dataclass
class EstimateReport:
    estimates: dict[str, FunctionalEstimate]
    divergent_terms: int
    config_echo: dict
    replicas: np.ndarray     # indices of the replicas behind per_replica
    excluded: int            # replicas left out for non-finite positions
    notes: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "estimates": {
                name: {
                    "value": est.value,
                    "stderr": est.stderr,
                    "n_replicas": est.n_replicas,
                    "per_replica": [float(v) for v in est.per_replica],
                }
                for name, est in self.estimates.items()
            },
            "divergent_terms": self.divergent_terms,
            "replicas": [int(r) for r in self.replicas],
            "excluded": self.excluded,
            "config": self.config_echo,
            "notes": self.notes,
        }


def ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def _pair_index(pairs: Sequence[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([i for i, _ in pairs], dtype=int),
            np.array([j for _, j in pairs], dtype=int))


def _finite_replicas(ensemble: TrajectoryEnsemble, m_t: int) -> np.ndarray:
    """Indices of the replicas whose positions are finite on rows 0..m_t."""
    rows = ensemble.positions[:, : m_t + 1]
    return np.flatnonzero(np.isfinite(rows).all(axis=(1, 2, 3)))


def _horizon_index(ensemble: TrajectoryEnsemble, horizon: float | None) -> int:
    dt = ensemble.config.dt
    if horizon is None:
        m_t = ensemble.n_steps
    else:
        m_t = int(round(horizon / dt))
        if abs(m_t * dt - horizon) > 1e-9 * max(1.0, horizon):
            raise ValueError(f"horizon {horizon} is not on the dt={dt} grid")
    if not 1 <= m_t <= ensemble.n_steps:
        raise ValueError(f"horizon index {m_t} outside the simulated window")
    return m_t


def _trap_weights(m_t: int, dt: float) -> np.ndarray:
    w = np.full(m_t + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def _grad_k_mag(lag: np.ndarray, sq: np.ndarray, config: SimConfig) -> np.ndarray:
    """|grad K_lag| at squared distance sq (unsmoothed kernel)."""
    p = config.params
    arg = np.minimum(p.theta * sq / (4.0 * lag), EXP_CLAMP)
    return (smoothed_weight(lag, replace(p, epsilon=0.0)) * np.exp(-arg)
            * np.sqrt(sq))


def _fsum_mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def _row_dot(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w @ row for every row along the last axis of `rows`.

    One matmul per row, so each result has the bits of `w @ row` alone;
    `rows @ w` and einsum sum in another order.
    """
    return np.matmul(rows[..., None, :], w)[..., 0]


def _stderr(values: np.ndarray) -> float:
    return (float(values.std(ddof=1) / math.sqrt(len(values)))
            if len(values) > 1 else 0.0)


def paper_moments(ensemble: TrajectoryEnsemble, ep: EstimatorParams) -> EstimateReport:
    """Estimates of E1-E4 and the S functionals by replica averaging.

    E1 integrates the inverse pair distance to the power 2(gamma-1); E2 and
    E3 are the double time sums with the u-exclusive inner rule; E4
    integrates |D|^(2(gamma-1)) using the simulator's discrete pair drift;
    S/S-bar are reported at the horizon. Exact on-grid coincidences are
    excluded from E1 and counted as divergent terms. Replicas with
    non-finite positions up to the horizon are excluded and counted in
    `excluded`; the estimates and `replicas` cover the others.

    One pass over the steps m: each step builds the pair geometry
    X^i_m - X^j_l on the full (i, l, j) grid once and feeds E2, E3, E4 and,
    at the horizon, S and S-bar from it; the self pairs i = j are dropped
    before the pair reductions.
    """
    if ensemble.n_particles < 2:
        raise ValueError("need at least 2 particles")
    if ensemble.n_replicas < 1 or ensemble.positions.size == 0:
        raise ValueError("empty ensemble")
    cfg = ensemble.config
    dt = cfg.dt
    n = ensemble.n_particles
    m_t = _horizon_index(ensemble, ep.horizon)
    pairs = ordered_pairs(n)
    i_idx, j_idx = _pair_index(pairs)
    off = ~np.eye(n, dtype=bool)   # selects the pairs in ordered_pairs order
    w_tr = _trap_weights(m_t, dt)
    q = 2.0 * (ep.gamma - 1.0)
    e3_pow = 2.0 * ep.gamma / 3.0
    names = ("E1", "E2", "E3", "E4", "S", "S_bar")
    kept = _finite_replicas(ensemble, m_t)
    per_rep = {name: np.zeros(len(kept)) for name in names}
    divergent = 0

    for block in replica_blocks(len(kept), n * n, m_t):
        pos = ensemble.positions[kept[block.start: block.stop], : m_t + 1]

        # E1: same-time inverse distances, trapezoid in time
        d_same = pos[:, :, i_idx] - pos[:, :, j_idx]
        dist = np.sqrt(np.einsum("bmkc,bmkc->bmk", d_same, d_same))
        zero_mask = dist == 0.0
        divergent += int(zero_mask.sum())
        with np.errstate(divide="ignore"):
            e1 = np.matmul(w_tr, np.where(zero_mask, 0.0, dist ** (-q)))

        e2 = np.zeros((len(block), n, n))
        e3 = np.zeros((len(block), n, n))
        d_mag = np.zeros((len(block), m_t + 1, len(pairs)))
        # a finite replica close to blowing up may overflow its kernel
        # terms; they then come out inf or 0
        with np.errstate(over="ignore"):
            for m in range(1, m_t + 1):
                # geometry over (B, i, l, j): X^i_m - X^j_l for l < m
                lag = ((m - np.arange(m)) * dt)[:, None]
                dx, dy, sq = _pair_geometry(pos[:, m, :, None, None],
                                            pos[:, None, :m])

                # E2 / E3: double sums, left-endpoint (u-exclusive) inner rule
                e2 += w_tr[m] * dt * np.sum((lag + sq) ** (-ep.gamma), axis=2)
                e3 += w_tr[m] * dt * np.sum(
                    _grad_k_mag(lag, sq, cfg) ** e3_pow, axis=2)

                # E4: the simulator's discrete pair drift on rows [l0, m)
                l0, lags, w = _conv_weights(m, cfg)
                sx, sy = _history_sums(dx[:, :, l0:], dy[:, :, l0:],
                                       sq[:, :, l0:], lags, w, cfg)
                d_x, d_y = -dt * sx[:, off], -dt * sy[:, off]
                d_mag[:, m] = np.sqrt(d_x * d_x + d_y * d_y)

            # S and S-bar at the horizon (right-endpoint sum, diagonal
            # excluded): the last step's geometry, m = m_t
            s_full = dt * np.sum((lag + ep.alpha * sq) ** (-ep.gamma), axis=2)
            sbar_full = dt * np.sum(
                (lag + ep.delta + ep.alpha * sq) ** (-ep.gamma), axis=2)

        for b, r in enumerate(block):
            per_rep["E1"][r] = _fsum_mean(e1[b])
            per_rep["E2"][r] = _fsum_mean(e2[b][off])
            per_rep["E3"][r] = _fsum_mean(e3[b][off])
            per_rep["E4"][r] = _fsum_mean(w_tr @ d_mag[b] ** q)
            per_rep["S"][r] = _fsum_mean(s_full[b][off])
            per_rep["S_bar"][r] = _fsum_mean(sbar_full[b][off])

    estimates = {}
    for name in names:
        vals = per_rep[name]
        value = err = math.nan     # no finite replica: nothing to estimate
        if len(vals):
            value, err = float(vals.mean()), _stderr(vals)
        estimates[name] = FunctionalEstimate(value, err, len(vals), vals)
    return EstimateReport(
        estimates=estimates,
        divergent_terms=divergent,
        config_echo=asdict(cfg),
        replicas=kept,
        excluded=ensemble.n_replicas - len(kept),
        notes={"gamma": ep.gamma, "alpha": ep.alpha, "delta": ep.delta,
               "horizon": m_t * dt, "pairs": len(pairs)},
    )


@dataclass
class DominationStats:
    checked: int
    violations: int
    worst_margin: float  # max over checks of |D| / bound (<= 1 means clean)
    slack: float
    excluded: int = 0    # replicas left out for non-finite positions


def drift_domination_check(ensemble: TrajectoryEnsemble, ep: EstimatorParams,
                           slack: float = 1.05) -> DominationStats:
    """Discrete drift-domination inequality per (replica, ordered pair, step).

    Checks |D^{i,j}_m| <= slack * C * (S^{i,j}_m)^(1/(2(gamma-1))) with
    C = sqrt(theta) C0(4 alpha/theta) kappa(1/2, gamma-1) / (4 pi), where D
    and S are the simulator-grid discrete sums. Replicas with non-finite
    positions up to the horizon are excluded and counted in `excluded`;
    `checked` counts the checks of the others.
    """
    cfg = ensemble.config
    p = cfg.params
    dt = cfg.dt
    m_t = _horizon_index(ensemble, ep.horizon)
    pairs = ordered_pairs(ensemble.n_particles)
    i_idx, j_idx = _pair_index(pairs)
    const = (math.sqrt(p.theta) * c0_const(4.0 * ep.alpha / p.theta)
             * kappa(0.5, ep.gamma - 1.0) / (4.0 * math.pi))
    expo = 1.0 / (2.0 * (ep.gamma - 1.0))
    kept = _finite_replicas(ensemble, m_t)
    violations = 0
    worst = 0.0
    for block in replica_blocks(len(kept), len(pairs), m_t):
        pos = ensemble.positions[kept[block.start: block.stop], : m_t + 1]
        for m in range(1, m_t + 1):
            # geometry over (B, l, k): X^i_m - X^j_l for l < m, pair k; D on
            # its rows [l0, m) as in pair_drifts, S on all of them
            dx, dy, sq = _pair_geometry(pos[:, m, i_idx][:, None],
                                        pos[:, :m].take(j_idx, axis=2))
            l0, lags, w = _conv_weights(m, cfg)
            sx, sy = _history_sums(dx[:, l0:], dy[:, l0:], sq[:, l0:],
                                   lags, w, cfg)
            d_x, d_y = -dt * sx, -dt * sy
            d_mag = np.sqrt(d_x * d_x + d_y * d_y)
            lag = (m - np.arange(m)) * dt
            s_vals = dt * np.sum((lag[:, None] + ep.alpha * sq) ** (-ep.gamma),
                                 axis=1)
            bound = const * s_vals ** expo
            ratio = d_mag / (slack * bound)
            violations += int(np.sum(ratio > 1.0))
            worst = max(worst, float(np.max(d_mag / bound)))
    checked = len(kept) * len(pairs) * m_t
    return DominationStats(checked, violations, worst, slack,
                           excluded=ensemble.n_replicas - len(kept))


def holder_ratio_max(path: np.ndarray, times: np.ndarray, beta: float) -> float:
    """max over grid pairs s < t of |path_t - path_s| / (t - s)^beta."""
    diff = path[None, :, :] - path[:, None, :]
    gaps = times[None, :] - times[:, None]
    mag = np.sqrt(np.einsum("stc,stc->st", diff, diff))
    upper = gaps > 0
    return float(np.max(mag[upper] / gaps[upper] ** beta))


@dataclass
class HolderStats:
    beta: float
    z_hat: np.ndarray        # per checked replica
    bound: np.ndarray        # per checked replica
    slack: float
    excluded: int = 0        # replicas left out for non-finite positions

    @property
    def ok(self) -> bool:
        """The slackened inequality holds on every checked replica, and at
        least one replica was checked."""
        return bool(self.z_hat.size
                    and np.all(self.z_hat <= self.slack * self.bound))


def holder_modulus(ensemble: TrajectoryEnsemble, ep: EstimatorParams,
                   slack: float = 1.05) -> HolderStats:
    """Hoelder modulus of the integrated interaction drift of particle 1.

    Gamma_t = chi * int_0^t (1/(N-1)) sum_j D^{1,j}_s ds (left-endpoint in
    time), beta = (2 gamma - 3) / (2(gamma - 1)). The empirical modulus is
    compared against chi/(N-1) * sum_j [1 + sum |D|^(2(gamma-1)) dt], which
    dominates it by the exact discrete Hoelder inequality. Replicas with
    non-finite positions up to the horizon are excluded and counted in
    `excluded`; z_hat and bound hold the others, in replica order.
    """
    cfg = ensemble.config
    chi, dt = cfg.params.chi, cfg.dt
    m_t = _horizon_index(ensemble, ep.horizon)
    n = ensemble.n_particles
    i_idx, j_idx = _pair_index([(0, j) for j in range(1, n)])
    beta = (2.0 * ep.gamma - 3.0) / (2.0 * (ep.gamma - 1.0))
    q = 2.0 * (ep.gamma - 1.0)
    times = ensemble.times[: m_t + 1]
    kept = _finite_replicas(ensemble, m_t)
    z_hat = np.zeros(len(kept))
    bound = np.zeros(len(kept))
    for block in replica_blocks(len(kept), n - 1, m_t):
        pos = ensemble.positions[kept[block.start: block.stop], : m_t + 1]
        d_series = np.zeros((len(block), m_t + 1, n - 1, 2))  # D_0 = 0
        for m in range(1, m_t + 1):
            d_series[:, m] = pair_drifts(pos, cfg, m, i_idx, j_idx)
        mean_d = d_series.mean(axis=2)
        gamma_paths = np.zeros((len(block), m_t + 1, 2))
        gamma_paths[:, 1:] = chi * dt * np.cumsum(mean_d[:, :-1], axis=1)
        d_mag = np.sqrt(np.einsum("rmkc,rmkc->rmk", d_series, d_series))
        tails = dt * np.sum(d_mag[:, :-1] ** q, axis=1)
        for b, tail in zip(block, tails):
            z_hat[b] = holder_ratio_max(gamma_paths[b - block.start], times, beta)
            bound[b] = chi / (n - 1) * math.fsum(1.0 + t for t in tail)
    return HolderStats(beta, z_hat, bound, slack,
                       excluded=ensemble.n_replicas - len(kept))


# ---------------------------------------------------------------------------
# Built-in test-function families (fixed and versioned)
# ---------------------------------------------------------------------------


class GaussianBump:
    """F(u, x) = exp(-u - |x|^2) with exact time-plus-Laplace and gradient."""

    name = TEST_FUNCTION_VERSIONS["gaussian-bump"]

    @staticmethod
    def value(u, x):
        sq = np.einsum("...c,...c->...", x, x)
        return np.exp(-np.minimum(u + sq, EXP_CLAMP))

    @staticmethod
    def heat(u, x, out=None):
        """(d/dt + Laplacian) F = (4|x|^2 - 5) F, written into `out` if given."""
        sq = np.einsum("...c,...c->...", x, x)
        f = np.minimum(np.add(u, sq, out=out), EXP_CLAMP, out=out)
        f = np.exp(np.negative(f, out=out), out=out)
        return np.multiply(4.0 * sq - 5.0, f, out=out)

    @staticmethod
    def grad(u, x):
        return -2.0 * x * GaussianBump.value(u, x)[..., None]


class PairPotential:
    """psi(x, y) = phi(|x-y|^2) with phi(r) = r^(nu/2) / (1 + r^(nu/2)).

    nu = 4 - 2 gamma in (0, 1). The gradient and Laplacian in x are closed
    forms; the Laplacian diverges to +inf as x -> y.
    """

    name = TEST_FUNCTION_VERSIONS["pair-potential"]

    def __init__(self, gamma: float):
        if not 1.5 < gamma < 2.0:
            raise ValueError(f"gamma must lie in (3/2, 2), got {gamma}")
        self.gamma = gamma
        self.nu = 4.0 - 2.0 * gamma

    def psi(self, x, y):
        d = np.asarray(x, float) - np.asarray(y, float)
        # np.power, not **: the ufunc gives the same bits for a single
        # point as for an array of points; ** on a scalar calls libm pow
        rr = np.power(np.einsum("...c,...c->...", d, d), self.nu / 2.0)
        return rr / (1.0 + rr)

    def grad_x(self, x, y):
        d = np.asarray(x, float) - np.asarray(y, float)
        dist = np.sqrt(np.einsum("...c,...c->...", d, d))
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = self.nu * dist ** (self.nu - 2.0) / (1.0 + dist ** self.nu) ** 2
        return np.where(dist[..., None] == 0.0, 0.0, coef[..., None] * d)

    def lap_x(self, x, y):
        d = np.asarray(x, float) - np.asarray(y, float)
        dist = np.sqrt(np.einsum("...c,...c->...", d, d))
        with np.errstate(divide="ignore"):
            rnu = dist ** self.nu
            return (self.nu ** 2 * dist ** (self.nu - 2.0) / (1.0 + rnu) ** 2
                    * (1.0 - 2.0 * rnu / (1.0 + rnu)))


class CompactBump:
    """C-infinity bump exp(1 - 1/(1 - |x|^2/R^2)) on |x| < R, zero outside."""

    name = TEST_FUNCTION_VERSIONS["compact-bump"]

    def __init__(self, radius: float = 3.0):
        if radius <= 0:
            raise ValueError(f"radius must be > 0, got {radius}")
        self.radius = radius

    def _terms(self, x):
        """x as floats, |x|^2, the mask rho < 1 (rho = |x|^2 / R^2), 1 - rho
        (1 outside) and the bump itself: what value, grad and lap share."""
        x = np.asarray(x, float)
        sq = np.einsum("...c,...c->...", x, x)
        rho = sq / self.radius ** 2
        inside = rho < 1.0
        one_m = np.where(inside, 1.0 - rho, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            val = np.where(inside, np.exp(1.0 - 1.0 / one_m), 0.0)
        return x, sq, inside, one_m, val

    def value(self, x):
        return self._terms(x)[-1]

    def grad(self, x):
        x, _, inside, one_m, val = self._terms(x)
        gp = -one_m ** -2.0  # d/drho of the exponent 1 - 1/(1 - rho)
        coef = np.where(inside, val * gp * 2.0 / self.radius ** 2, 0.0)
        return coef[..., None] * x

    def lap(self, x):
        _, sq, inside, one_m, val = self._terms(x)
        gp = -one_m ** -2.0
        gpp = -2.0 * one_m ** -3.0
        r2 = self.radius ** 2
        return np.where(inside,
                        val * ((gp ** 2 + gpp) * 4.0 * sq / r2 ** 2 + 4.0 * gp / r2),
                        0.0)


# ---------------------------------------------------------------------------
# Ito balance and martingale residual
# ---------------------------------------------------------------------------


@dataclass
class ResidualReport:
    mean: float
    stderr: float
    ci_low: float
    ci_high: float
    passes: bool
    per_replica: np.ndarray  # the kept replicas, in replica order
    level: float
    excluded: int = 0        # replicas left out for non-finite positions

    @property
    def variance(self) -> float:
        return float(self.per_replica.var(ddof=1))


def bootstrap_mean_ci(values: np.ndarray, level: float = 0.99,
                      n_boot: int = 2000, seed: int = 0) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for the mean.

    The (n_boot, R) resample indices and their row means are drawn in row
    chunks whose indices and gathered values fit DRIFT_BUDGET_BYTES; the
    chunks consume the generator as one (n_boot, R) draw would.
    """
    rng = np.random.default_rng(seed)
    values = np.asarray(values, float)
    r_n = len(values)
    rows = max(1, DRIFT_BUDGET_BYTES // (16 * max(r_n, 1)))
    means = np.empty(n_boot)
    for lo in range(0, n_boot, rows):
        hi = min(lo + rows, n_boot)
        idx = rng.integers(0, r_n, size=(hi - lo, r_n))
        means[lo:hi] = values[idx].mean(axis=1)
    lo, hi = np.quantile(means, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
    return float(lo), float(hi)


def _residual_report(values: np.ndarray, ci, level: float,
                     excluded: int) -> ResidualReport:
    """Residual statistics, `ci(values, mean, stderr)` giving the interval;
    with no replica left they are NaN and the check fails."""
    mean = err = lo = hi = math.nan
    if len(values):
        mean, err = float(values.mean()), _stderr(values)
        lo, hi = ci(values, mean, err)
    return ResidualReport(mean, err, lo, hi, passes=lo <= 0.0 <= hi,
                          per_replica=values, level=level, excluded=excluded)


def ito_balance_check(ensemble: TrajectoryEnsemble, ep: EstimatorParams,
                      f_spec: str = "gaussian-bump", level: float = 0.99,
                      n_boot: int = 2000, boot_seed: int = 0) -> ResidualReport:
    """Monte Carlo residual of the pathwise Ito-balance identity.

    f_spec "gaussian-bump": four-term identity for the time-lagged pair
    displacement functional of F(u, x) = e^(-u - |x|^2), trapezoid rules on
    both time axes (the integrands are smooth on the diagonal).
    f_spec "pair-potential": the symmetrized same-time identity for
    psi(x, y) built from gamma; its Laplacian integrand is singular at
    coincidence, which Brownian paths avoid almost surely.

    The drift is the integrator's own (`step_drifts`). Replicas run in
    blocks (`replica_blocks`); those non-finite up to the horizon are
    excluded and counted in `excluded`. Passes when 0 lies in the
    bootstrap confidence interval of the mean.
    """
    if f_spec not in ("gaussian-bump", "pair-potential"):
        raise ValueError(f"unknown test function spec {f_spec!r}")
    cfg = ensemble.config
    chi, dt = cfg.params.chi, cfg.dt
    m_t = _horizon_index(ensemble, ep.horizon)
    n = ensemble.n_particles
    w_tr = _trap_weights(m_t, dt)
    i_idx, j_idx = _pair_index(ordered_pairs(n))
    kept = _finite_replicas(ensemble, m_t)
    gaussian = f_spec == "gaussian-bump"
    if gaussian:
        times = np.arange(m_t + 1) * dt
        # inner trapezoid weights over s in [0, u], one row per u (zero above diagonal)
        w_inner = np.zeros((m_t + 1, m_t + 1))
        for m in range(1, m_t + 1):
            w_inner[m, : m + 1] = _trap_weights(m, dt)
        lag_mat = times[:, None] - times[None, :]  # u - s, valid on s <= u
        lag_ut = times[m_t] - times                # t - s
        # the (u, s) pair grid dominates the interaction drift's geometry
        blocks = replica_blocks(len(kept), len(i_idx), (m_t + 1) ** 2)
        # the block grids are allocated once per call: fresh ones in every
        # block made glibc's malloc trim and refault its heap (about 80 000
        # page faults at R = 500, M = 128) unless an earlier large free had
        # raised its mmap threshold
        grid = (len(blocks[0]) if blocks else 0, len(i_idx), m_t + 1, m_t + 1)
        diff_buf, heat_buf = np.empty(grid + (2,)), np.empty(grid)
    else:
        pot = PairPotential(ep.gamma)
        blocks = replica_blocks(len(kept), n * n, m_t + 1)
    res = np.zeros(len(kept))

    for block in blocks:
        pos = ensemble.positions[kept[block.start: block.stop], : m_t + 1]
        # (B, K, T, 2) paths of the first and the second particle of each pair
        paths = np.ascontiguousarray(pos.transpose(0, 2, 1, 3))
        xi, xj = paths[:, i_idx], paths[:, j_idx]
        if chi != 0.0:   # (B, K, T, 2) total drift on each pair's first particle
            drift = step_drifts(pos, range(m_t + 1), cfg)
            drift = np.ascontiguousarray(drift.transpose(0, 2, 1, 3))[:, i_idx]
        if gaussian:
            lhs = _row_dot(GaussianBump.value(lag_ut, xi[:, :, m_t:] - xj), w_tr)
            t1 = _row_dot(GaussianBump.value(0.0, xi - xj), w_tr)
            b = len(block)
            diff = np.subtract(xi[:, :, :, None], xj[:, :, None],
                               out=diff_buf[:b])  # (B, K, u, s, 2)
            heat = GaussianBump.heat(lag_mat, diff, out=heat_buf[:b])
            heat *= w_inner
            t2 = _row_dot(np.sum(heat, axis=-1), w_tr)
            per_pair = lhs - t1 - t2
            if chi != 0.0:
                grad_int = np.einsum("us,...usc->...uc", w_inner,
                                     GaussianBump.grad(lag_mat, diff))
                per_pair -= chi * _row_dot(
                    np.einsum("...uc,...uc->...u", grad_int, drift), w_tr)
        else:
            j1 = (pot.psi(xi[:, :, m_t], xj[:, :, m_t])
                  - pot.psi(xi[:, :, 0], xj[:, :, 0]))
            lap = pot.lap_x(xi, xj)
            per_pair = j1 - 2.0 * _row_dot(np.where(np.isfinite(lap), lap, 0.0),
                                           w_tr)
            if chi != 0.0:
                per_pair -= 2.0 * chi * _row_dot(
                    np.einsum("...mc,...mc->...m", pot.grad_x(xi, xj), drift),
                    w_tr)
        res[block.start: block.stop] = [_fsum_mean(row) for row in per_pair]

    return _residual_report(
        res, lambda v, mean, err: bootstrap_mean_ci(v, level=level,
                                                    n_boot=n_boot, seed=boot_seed),
        level, ensemble.n_replicas - len(kept))


def martingale_residual(ensemble: TrajectoryEnsemble,
                        phi: CompactBump | None,
                        phi_path_spec: tuple,
                        s: float, t: float,
                        level: float = 0.99) -> ResidualReport:
    """Empirical martingale-problem residual between times s and t.

    Replaces the limit law by the empirical path measure and the
    interaction by the pairwise empirical sum with the simulated (smoothed)
    kernel, through the integrator's own drift (`step_drifts`). phi is a
    compactly supported C^2 test function; phi_path_spec selects the
    bounded path functional: ("const",) or ("window", tau, lo, hi) which
    is the indicator that both coordinates at time tau lie in [lo, hi].
    tau <= s keeps the functional adapted; larger tau is a deliberate
    misuse that breaks the martingale property. Replicas run in blocks;
    those non-finite up to t are excluded.
    """
    if phi is None:
        phi = CompactBump()
    cfg = ensemble.config
    dt, chi = cfg.dt, cfg.params.chi
    if not 0 < s < t:
        raise ValueError(f"need 0 < s < t, got s={s}, t={t}")
    m_s = int(round(s / dt))
    m_e = _horizon_index(ensemble, t)
    if not 0 < m_s < m_e:
        raise ValueError(f"need grid indices 0 < {m_s} < {m_e}")

    n = ensemble.n_particles
    kept = _finite_replicas(ensemble, m_e)
    kind = phi_path_spec[0]
    if kind == "const":
        path_mask = np.ones((len(kept), n))
    elif kind == "window":
        _, tau, lo_w, hi_w = phi_path_spec
        m_tau = int(round(tau / dt))
        if not 0 <= m_tau <= m_e:
            raise ValueError(f"window time {tau} outside the simulated grid")
        pt = ensemble.positions[kept, m_tau]
        path_mask = ((lo_w <= pt) & (pt <= hi_w)).all(axis=-1).astype(float)
    else:
        raise ValueError(f"unknown path functional spec {phi_path_spec!r}")

    w_in = _trap_weights(m_e - m_s, dt)
    theta_vals = np.zeros(len(kept))
    for block in replica_blocks(len(kept), n * n if chi != 0.0 else n, m_e + 1):
        pos = ensemble.positions[kept[block.start: block.stop], : m_e + 1]
        window = pos[:, m_s:]
        gen = phi.lap(window)                       # (B, w, N)
        if chi != 0.0:
            drift = step_drifts(pos, range(m_s, m_e + 1), cfg)
            gen = gen + chi * np.einsum("bwnc,bwnc->bwn", phi.grad(window), drift)
        integral = np.matmul(w_in, gen)             # (B, N)
        vals = path_mask[block.start: block.stop] * (
            (phi.value(pos[:, m_e]) - phi.value(pos[:, m_s])) - integral)
        theta_vals[block.start: block.stop] = [_fsum_mean(row) for row in vals]

    z = statistics.NormalDist().inv_cdf(0.5 + level / 2.0)
    return _residual_report(theta_vals,
                            lambda v, mean, err: (mean - z * err, mean + z * err),
                            level, ensemble.n_replicas - len(kept))


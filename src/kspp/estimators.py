"""Monte Carlo estimators for the bounded moment functionals.

Given a simulated TrajectoryEnsemble, this module estimates the pairwise
moment functionals (inverse-distance integral E1, space-time double
integrals E2/E3, drift-power integral E4, the Markovianization integrals
S and their offset variant), checks the drift-domination and Hoelder
modulus inequalities in their exact discrete form, and evaluates the
Ito-balance identity (Gaussian bump) and the empirical martingale residual
(compact bump).

Conventions shared with the simulator: double time sums use the
u-exclusive left-endpoint rule in the inner (history) variable where the
integrand is singular on the diagonal, trapezoid weights elsewhere; pair
reductions use exact summation (math.fsum) so every estimator is invariant
under particle relabeling bit for bit.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass, field, asdict, replace
from typing import Sequence

import numpy as np

from .constants import c0_const, check_gamma_alpha, kappa
from .kernels import EXP_CLAMP, smoothed_weight
from .simulator import (TrajectoryEnsemble, _conv_weights, _gauss_factor,
                        _history_sums, _others, _pair_drifts, _pair_geometry,
                        _split_history, _views, budget_blocks, step_drifts)


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
        check_gamma_alpha(self.gamma, self.alpha)
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
    """Indices of the replicas whose positions are finite on rows 0..m_t.

    Tested over replica blocks whose boolean temporary, one byte per
    coordinate, fits DRIFT_BUDGET_BYTES (never fewer than one replica).
    """
    rows = ensemble.positions[:, : m_t + 1]
    finite = np.empty(len(rows), dtype=bool)
    for block in budget_blocks(len(rows), math.prod(rows.shape[1:])):
        part = slice(block.start, block.stop)
        np.isfinite(rows[part]).all(axis=(1, 2, 3), out=finite[part])
    return np.flatnonzero(finite)


def _grid_index(t: float, dt: float, what: str) -> int:
    """The index m of the grid time m * dt that equals `t` to within 1e-9
    (relative past 1); ValueError, naming `t` as `what`, if there is none."""
    m = int(round(t / dt))
    if abs(m * dt - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"{what} {t} is not on the dt={dt} grid")
    return m


def _horizon_index(ensemble: TrajectoryEnsemble, horizon: float | None) -> int:
    m_t = (ensemble.n_steps if horizon is None
           else _grid_index(horizon, ensemble.config.dt, "horizon"))
    if not 1 <= m_t <= ensemble.n_steps:
        raise ValueError(f"horizon index {m_t} outside the simulated window")
    return m_t


def _trap_weights(m_t: int, dt: float) -> np.ndarray:
    w = np.full(m_t + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


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
    X^i_m - X^j_l once, on the simulator's (i, k, l) grid of the N - 1
    other particles j = (i + 1 + k) mod N (`simulator._others`), the
    history rows l last, and feeds E2, E3, E4 and, at the horizon, S and
    S-bar from it; E3 and E4 share its Gaussian factor. The per-pair sums
    are reduced by math.fsum, which is exact and so does not depend on the
    pairs' order; E4's |D| columns are put back in ordered_pairs order
    before the trapezoid product, which does.

    Memory: replicas run in blocks and each block's grid in i-tiles of
    target particles, both sized by `budget_blocks` so that a tile's five
    grids and its share of the doubled history window fit
    DRIFT_BUDGET_BYTES (one tile whenever a block fits; a single i row
    above the budget is one tile). Every tile keeps whole history rows, so
    no sum depends on the tiles. E1 takes a pass of its own before the
    grids' workspace is allocated, its inverse distances formed in tiles
    of pairs whose temporaries fit the budget. `notes` records the
    tile rows (`i_tile_rows`) and the workspace's bytes
    (`workspace_bytes`).
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
    # column i (N - 1) + k of a step grid's flattened (i, k) axes is the pair
    # (i, (i + 1 + k) mod N): these columns give ordered_pairs' order, in
    # which E4's trapezoid product w_tr @ |D|^q keeps its bits
    in_order = i_idx * (n - 1) + (j_idx - i_idx - 1) % n
    w_tr = _trap_weights(m_t, dt)
    q = 2.0 * (ep.gamma - 1.0)
    e3_pow = 2.0 * ep.gamma / 3.0
    unsmoothed = replace(cfg.params, epsilon=0.0)
    names = ("E1", "E2", "E3", "E4", "S", "S_bar")
    kept = _finite_replicas(ensemble, m_t)
    per_rep = {name: np.zeros(len(kept)) for name in names}
    divergent = 0
    # the bytes of one target particle i of one replica at the horizon: five
    # (i, k, l) grid rows and, near enough, its share of the doubled window
    row_bytes = 8 * (5 * (n - 1) + 4) * m_t
    blocks = budget_blocks(len(kept), row_bytes * n)
    b_max = len(blocks[0]) if blocks else 0
    tiles = budget_blocks(n, row_bytes * b_max)

    # E1: same-time inverse distances, trapezoid in time, in a pass of its
    # own before the grids' workspace is allocated. They are formed in tiles
    # of pairs whose d, |d| and mask fit the budget, and the product takes
    # them whole: over a tile of pairs, BLAS's gemv sums the columns past a
    # multiple of four in another order. They are laid out as the pair
    # gather lays out d, pairs outermost: gemv's order of summation also
    # follows the layout
    for block in blocks:
        b = len(block)
        pos = ensemble.positions[kept[block.start: block.stop], : m_t + 1]
        inv = np.empty((len(pairs), b, m_t + 1)).transpose(1, 2, 0)
        for kr in budget_blocks(len(pairs), 48 * b * (m_t + 1)):
            k = slice(kr.start, kr.stop)
            d_same = pos[:, :, i_idx[k]] - pos[:, :, j_idx[k]]
            dist = np.sqrt(np.einsum("bmkc,bmkc->bmk", d_same, d_same))
            zero_mask = dist == 0.0
            divergent += int(zero_mask.sum())
            with np.errstate(divide="ignore"):
                np.power(dist, -q, out=inv[:, :, k])
            inv[:, :, k][zero_mask] = 0.0
            del d_same, dist, zero_mask   # freed before the next tile
        e1 = np.matmul(w_tr, inv)
        del inv   # freed before the next block, and before the grids
        for r, row in zip(block, e1):
            per_rep["E1"][r] = _fsum_mean(row)

    # the (2, B, 2N - 1, l) doubled history window (see
    # simulator._mean_drifts), then five (B, i, k, l) grids of one i-tile,
    # allocated once per call for the largest block and tile at the horizon
    # and sliced at every step: dx, dy, |d|^2 (then |d|), the Gaussian
    # factor (then E4's coefficients) and the E2, S and E3 terms
    work = np.empty((2 * (2 * n - 1) + 5 * len(tiles[0]) * (n - 1))
                    * b_max * m_t)

    for block in blocks:
        b = len(block)
        pos = ensemble.positions[kept[block.start: block.stop], : m_t + 1]
        h = _split_history(pos).swapaxes(0, 1)   # (2, B, N, T)

        e2 = np.zeros((b, n, n - 1))
        e3 = np.zeros((b, n, n - 1))
        s_full = np.empty((b, n, n - 1))
        sbar_full = np.empty((b, n, n - 1))
        d_mag = np.zeros((b, m_t + 1, len(pairs)))
        # one step's E2 and E3 row sums and D by coordinate, from all tiles
        e2_m, e3_m, sx, sy = np.empty((4, b, n, n - 1))
        # a finite replica close to blowing up may overflow its kernel
        # terms; they then come out inf or 0
        with np.errstate(over="ignore"):
            for m in range(1, m_t + 1):
                # geometry over (B, i, k, l): X^i_m - X^j_l for l < m and
                # j = (i + 1 + k) mod N
                lag = (m - np.arange(m)) * dt
                time_factor = smoothed_weight(lag, unsmoothed)
                l0, _, w = _conv_weights(m, cfg)
                window_shape = (2, b, 2 * n - 1, m)
                window, = _views(work, window_shape)
                others = _others(h, 0, m, window)
                for tile in tiles:
                    i = slice(tile.start, tile.stop)
                    shape = (b, len(tile), n - 1, m)
                    _, d, sq, g, term = _views(work, window_shape,
                                               (2, *shape), *[shape] * 3)
                    dx, dy, _ = _pair_geometry(h[:, :, i, None, m, None],
                                               others[:, :, i], out=(d, sq))

                    # E2 / E3: double sums, left-endpoint (u-exclusive)
                    # inner rule
                    np.add(lag, sq, out=term)
                    np.sum(np.power(term, -ep.gamma, out=term), axis=-1,
                           out=e2_m[:, i])
                    if m == m_t:
                        # S and S-bar at the horizon (right-endpoint sum,
                        # diagonal excluded), while sq still holds |d|^2
                        for shift, s_out in ((lag, s_full),
                                             (lag + ep.delta, sbar_full)):
                            np.multiply(sq, ep.alpha, out=term)
                            np.add(shift, term, out=term)
                            s_out[:, i] = dt * np.sum(
                                np.power(term, -ep.gamma, out=term), axis=-1)
                    # |grad K_u| (unsmoothed): time factor, Gaussian factor,
                    # |d|
                    _gauss_factor(sq, lag, cfg, out=g)
                    np.multiply(time_factor, g, out=term)
                    term *= np.sqrt(sq, out=sq)
                    np.sum(np.power(term, e3_pow, out=term), axis=-1,
                           out=e3_m[:, i])

                    # E4: the simulator's discrete pair drift on rows
                    # [l0, m)
                    sx[:, i], sy[:, i] = _history_sums(
                        dx[..., l0:], dy[..., l0:], g[..., l0:], w)
                e2 += w_tr[m] * dt * e2_m
                e3 += w_tr[m] * dt * e3_m
                d_x, d_y = -dt * sx, -dt * sy
                d_mag[:, m] = np.sqrt(d_x * d_x + d_y * d_y).reshape(
                    b, -1)[:, in_order]
        np.power(d_mag, q, out=d_mag)   # |D|^q, E4's integrand

        for row, r in enumerate(block):
            per_rep["E2"][r] = _fsum_mean(e2[row].ravel())
            per_rep["E3"][r] = _fsum_mean(e3[row].ravel())
            per_rep["E4"][r] = _fsum_mean(w_tr @ d_mag[row])
            per_rep["S"][r] = _fsum_mean(s_full[row].ravel())
            per_rep["S_bar"][r] = _fsum_mean(sbar_full[row].ravel())

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
               "horizon": m_t * dt, "pairs": len(pairs),
               "i_tile_rows": len(tiles[0]) if blocks else 0,
               "workspace_bytes": work.nbytes},
    )


@dataclass
class DominationStats:
    checked: int
    violations: int
    worst_margin: float  # max over checks of |D| / bound; NaN if none ran
    slack: float
    excluded: int = 0    # replicas left out for non-finite positions

    @property
    def ok(self) -> bool:
        """No check violated the slackened inequality, and at least one
        check ran."""
        return self.violations == 0 and self.checked > 0


def _check_slack(slack: float) -> None:
    # a negative or NaN slack would pass every check, and 0 divide by 0
    if not 0.0 < slack < math.inf:
        raise ValueError(f"slack must be finite and > 0, got {slack}")


def drift_domination_check(ensemble: TrajectoryEnsemble, ep: EstimatorParams,
                           slack: float = 1.05) -> DominationStats:
    """Discrete drift-domination inequality per (replica, ordered pair, step).

    Checks |D^{i,j}_m| <= slack * C * (S^{i,j}_m)^(1/(2(gamma-1))) with
    C = sqrt(theta) C0(4 alpha/theta) kappa(1/2, gamma-1) / (4 pi), where D
    and S are the simulator-grid discrete sums. Replicas with non-finite
    positions up to the horizon are excluded and counted in `excluded`;
    `checked` counts the checks of the others. With none left, nothing is
    checked: `worst_margin` is NaN and the stats are not `ok`. slack must be
    finite and > 0.
    """
    _check_slack(slack)
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
    checked = len(kept) * len(pairs) * m_t
    worst = 0.0 if checked else math.nan
    blocks = budget_blocks(len(kept), 16 * len(pairs) * m_t)
    b_max = len(blocks[0]) if blocks else 0
    # tiles of the pairs, which are i-major, whose dx and dy fit the budget
    # for the largest block: one whenever a block fits
    tiles = budget_blocks(len(pairs), 16 * m_t * b_max)
    for block in blocks:
        pos = ensemble.positions[kept[block.start: block.stop], : m_t + 1]
        h = _split_history(pos).swapaxes(0, 1)   # (2, B, N, T)
        for m in range(1, m_t + 1):
            l0, lags, w = _conv_weights(m, cfg)
            lag = (m - np.arange(m)) * dt
            for tile in tiles:
                k = slice(tile.start, tile.stop)
                # geometry over (B, k, l): X^i_m - X^j_l for pair k and
                # l < m; D on its rows [l0, m) as in pair_drifts, S on all
                # of them
                dx, dy, sq = _pair_geometry(h[:, :, i_idx[k], m, None],
                                            h[:, :, j_idx[k], :m])
                sx, sy = _history_sums(dx[..., l0:], dy[..., l0:],
                                       _gauss_factor(sq[..., l0:], lags, cfg),
                                       w)
                d_x, d_y = -dt * sx, -dt * sy
                d_mag = np.sqrt(d_x * d_x + d_y * d_y)
                s_vals = dt * np.sum((lag + ep.alpha * sq) ** (-ep.gamma),
                                     axis=-1)
                bound = const * s_vals ** expo
                ratio = d_mag / (slack * bound)
                violations += int(np.sum(ratio > 1.0))
                worst = max(worst, float(np.max(d_mag / bound)))
    return DominationStats(checked, violations, worst, slack,
                           excluded=ensemble.n_replicas - len(kept))


def _holder_max(paths: np.ndarray, times: np.ndarray,
                beta: float) -> np.ndarray:
    """max over grid pairs s < t of |path_t - path_s| / (t - s)^beta for
    each of the (P, T, 2) `paths`, taken along the diagonals t - s = k,
    one lag k at a time for a block of paths whose three diagonal arrays
    fit DRIFT_BUDGET_BYTES together; the max does not depend on the order or
    the blocks."""
    n_t = len(times)
    best = np.full(len(paths), -math.inf)
    xy = np.moveaxis(paths, -1, 0)   # (2, P, T)
    blocks = budget_blocks(len(paths), 24 * n_t)
    # the geometry's three arrays (dx and dy, then |.|^2), allocated once
    # per call for the largest block and lag 1
    work = np.empty(3 * (len(blocks[0]) if blocks else 0) * n_t)
    for block in blocks:
        part = xy[:, block.start: block.stop]
        rows = best[block.start: block.stop]
        for k in range(1, n_t):
            shape = (len(block), n_t - k)
            d, ratio = _views(work, (2, *shape), shape)
            _pair_geometry(part[..., k:], part[..., :-k], out=(d, ratio))
            np.sqrt(ratio, out=ratio)
            ratio /= (times[k:] - times[:-k]) ** beta
            np.maximum(rows, np.max(ratio, axis=1), out=rows)
    return best


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
    `excluded`; z_hat and bound hold the others, in replica order. slack
    must be finite and > 0.
    """
    _check_slack(slack)
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
    blocks = budget_blocks(len(kept), 16 * (n - 1) * m_t)
    b_max = len(blocks[0]) if blocks else 0
    # tiles of the pairs (0, j) whose dx and dy fit the budget for the
    # largest block: one whenever a block fits
    tiles = budget_blocks(n - 1, 16 * m_t * b_max)
    for block in blocks:
        pos = ensemble.positions[kept[block.start: block.stop], : m_t + 1]
        hist = _split_history(pos)
        d_series = np.zeros((len(block), m_t + 1, n - 1, 2))  # D_0 = 0
        for m in range(1, m_t + 1):
            for tile in tiles:
                k = slice(tile.start, tile.stop)
                d_series[:, m, k] = _pair_drifts(hist, cfg, m, i_idx[k],
                                                 j_idx[k])
        mean_d = d_series.mean(axis=2)
        gamma_paths = np.zeros((len(block), m_t + 1, 2))
        gamma_paths[:, 1:] = chi * dt * np.cumsum(mean_d[:, :-1], axis=1)
        d_mag = np.sqrt(np.einsum("rmkc,rmkc->rmk", d_series, d_series))
        tails = dt * np.sum(d_mag[:, :-1] ** q, axis=1)
        z_hat[block.start: block.stop] = _holder_max(gamma_paths, times, beta)
        for b, tail in zip(block, tails):
            bound[b] = chi / (n - 1) * math.fsum(1.0 + t for t in tail)
    return HolderStats(beta, z_hat, bound, slack,
                       excluded=ensemble.n_replicas - len(kept))


# ---------------------------------------------------------------------------
# Built-in test functions
# ---------------------------------------------------------------------------


class GaussianBump:
    """F(u, x) = exp(-u - |x|^2) and its exact time-plus-Laplace operator,
    both from the squared length |x|^2."""

    @staticmethod
    def value_sq(u, sq, out=None):
        """F at squared length `sq` of x, written into `out` if given."""
        f = np.minimum(np.add(u, sq, out=out), EXP_CLAMP, out=out)
        return np.exp(np.negative(f, out=out), out=out)

    @staticmethod
    def heat_sq(sq, f, out=None):
        """(d/dt + Laplacian) F = (4|x|^2 - 5) F from sq = |x|^2 and
        f = value_sq(u, sq), written into `out` if given (`out` may be sq)."""
        h = np.subtract(np.multiply(sq, 4.0, out=out), 5.0, out=out)
        return np.multiply(h, f, out=out)


class CompactBump:
    """C-infinity bump exp(1 - 1/(1 - |x|^2/R^2)) on |x| < R, zero outside."""

    def __init__(self, radius: float = 3.0):
        if not 0 < radius < math.inf:  # also rejects NaN
            raise ValueError(f"radius must be finite and > 0, got {radius}")
        self.radius = radius

    def _terms(self, x):
        """x as floats, |x|^2, the mask rho < 1 (rho = |x|^2 / R^2), 1 - rho
        (1 outside) and the bump itself: what value, grad and lap share.
        1 - rho and the bump are formed in place, one array each."""
        x = np.asarray(x, float)
        sq = np.einsum("...c,...c->...", x, x)
        one_m = np.divide(sq, self.radius ** 2, out=np.empty_like(sq))  # rho
        inside = one_m < 1.0
        np.subtract(1.0, one_m, out=one_m)
        one_m[~inside] = 1.0
        with np.errstate(divide="ignore", over="ignore"):
            val = np.divide(1.0, one_m, out=np.empty_like(one_m))
            np.subtract(1.0, val, out=val)
            np.exp(val, out=val)
        val[~inside] = 0.0
        return x, sq, inside, one_m, val

    def value(self, x):
        return self._terms(x)[-1]

    def grad(self, x):
        x, _, inside, one_m, val = self._terms(x)
        gp = -one_m ** -2.0  # d/drho of the exponent 1 - 1/(1 - rho)
        coef = np.where(inside, val * gp * 2.0 / self.radius ** 2, 0.0)
        return coef[..., None] * x

    def lap(self, x):
        """val ((gp^2 + gpp) 4|x|^2 / R^4 + 4 gp / R^2) inside, 0 outside,
        with gp = -(1 - rho)^-2 and gpp = -2 (1 - rho)^-3: each operation
        in place, in val, 1 - rho (which becomes gpp) and two arrays more."""
        _, sq, inside, one_m, val = self._terms(x)
        r2 = self.radius ** 2
        gp = np.negative(np.power(one_m, -2.0), out=np.empty_like(one_m))
        gpp = np.multiply(np.power(one_m, -3.0, out=one_m), -2.0, out=one_m)
        h = np.multiply(gp, gp, out=np.empty_like(gp))
        h += gpp
        h *= 4.0
        h *= sq
        h /= r2 ** 2
        gp *= 4.0
        gp /= r2
        h += gp
        val *= h
        val[~inside] = 0.0
        return val


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


def _check_bootstrap(level: float, n_boot: int) -> None:
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"level must lie in [0, 1], got {level}")
    if n_boot < 1:
        raise ValueError(f"n_boot must be >= 1, got {n_boot}")


def bootstrap_mean_ci(values: np.ndarray, level: float = 0.99,
                      n_boot: int = 2000, seed: int = 0) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for the mean.

    The (n_boot, R) resample indices and their row means are drawn in row
    chunks whose indices and gathered values fit DRIFT_BUDGET_BYTES; the
    chunks consume the generator as one (n_boot, R) draw would. The two
    percentiles are np.quantile's default (linear) ones, taken from order
    statistics: the first np.quantile call imports numpy.ma. level lies in
    [0, 1] and n_boot >= 1.
    """
    _check_bootstrap(level, n_boot)
    rng = np.random.default_rng(seed)
    values = np.asarray(values, float)
    r_n = len(values)
    means = np.empty(n_boot)
    for chunk in budget_blocks(n_boot, 16 * max(r_n, 1)):
        lo, hi = chunk.start, chunk.stop
        idx = rng.integers(0, r_n, size=(hi - lo, r_n))
        means[lo:hi] = values[idx].mean(axis=1)
    # np.quantile's linear rule: the virtual index v = (n - 1) q lies
    # between the order statistics floor(v) and floor(v) + 1 (both the last
    # one, index -1, when v reaches it), interpolated as numpy's _lerp does
    last = n_boot - 1
    virt = [last * q for q in ((1.0 - level) / 2.0, (1.0 + level) / 2.0)]
    nbrs = [(math.floor(v), math.floor(v) + 1) if v < last else (-1, -1)
            for v in virt]
    if np.isnan(means).any():
        return math.nan, math.nan
    means.partition(sorted({k % n_boot for pair in nbrs for k in pair}))
    ends = []
    for v, (k, k1) in zip(virt, nbrs):
        a, b, t = means[k], means[k1], v - k
        ends.append(float(b - (b - a) * (1.0 - t) if t >= 0.5
                          else a + (b - a) * t))
    return ends[0], ends[1]


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


# Rows of a u tile of the Ito-balance (u, s) grid. A tile holds only the
# columns s < u1 that its inner trapezoid weights can reach, so thinner tiles
# skip more of the grid above the diagonal and pay more per-tile overhead.
# One call at 500 replicas, N = 2, T = 129, chi = 0 took 0.101 s with 4 rows,
# 0.107 s with 8, 0.114 s with 16 and 0.117 s with 32, against 0.170 s with
# every row over all T columns (medians of 10 alternating in-process runs,
# BENCH_15.json; 2-core Xeon VM with AVX-512, numpy 2.4.6). 4 and 8 rows lie
# within each other's quartiles; 8 builds half as many tiles.
ITO_TILE_ROWS = 8


def _inner_tables(m_t: int, dt: float, u0: int, u1: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Rows u0..u1-1 of the (u, s) grid tables: the lag u - s on the
    columns s < u1, and the inner trapezoid weights over s in [0, u]
    (`_trap_weights(u, dt)`; row 0 is all 0) on all m_t + 1 columns, zero
    above the diagonal.

    Above the diagonal the lag is 0, not u - s < 0: F = e^(s - u - |x|^2)
    overflowed there once t passed about 709, and inf times the zero
    weight made the residual NaN."""
    times = np.arange(m_t + 1) * dt
    u = np.arange(max(u0, 1), u1)
    w_inner = np.where(np.arange(m_t + 1) < np.arange(u0, u1)[:, None],
                       dt, 0.0)
    w_inner[u - u0, 0] = w_inner[u - u0, u] = 0.5 * dt
    lag = np.subtract(times[u0:u1, None], times[None, :u1])
    return np.maximum(lag, 0.0, out=lag), w_inner


def ito_balance_check(ensemble: TrajectoryEnsemble, ep: EstimatorParams,
                      f_spec: str = "gaussian-bump", level: float = 0.99,
                      n_boot: int = 2000, boot_seed: int = 0) -> ResidualReport:
    """Monte Carlo residual of the pathwise Ito-balance identity.

    The four-term identity for the time-lagged pair displacement functional
    of F(u, x) = e^(-u - |x|^2), trapezoid rules on both time axes (the
    integrands are smooth on the diagonal). f_spec names that test
    function; "gaussian-bump" is the only one.

    The drift is the integrator's own (`step_drifts`). Replicas run in
    blocks (`budget_blocks`); those non-finite up to the horizon are
    excluded and counted in `excluded`. Passes when 0 lies in the
    bootstrap confidence interval of the mean; `level` and `n_boot` are
    checked as `bootstrap_mean_ci` checks them, before any work.
    """
    if f_spec != "gaussian-bump":
        raise ValueError(f"unknown test function spec {f_spec!r}")
    _check_bootstrap(level, n_boot)
    cfg = ensemble.config
    chi, dt = cfg.params.chi, cfg.dt
    m_t = _horizon_index(ensemble, ep.horizon)
    n = ensemble.n_particles
    w_tr = _trap_weights(m_t, dt)
    i_idx, j_idx = _pair_index(ordered_pairs(n))
    kept = _finite_replicas(ensemble, m_t)
    times = np.arange(m_t + 1) * dt
    lag_ut = times[m_t] - times                # t - s
    n_t, n_k = m_t + 1, len(i_idx)
    # the (u, s) grid in tiles of u rows u0 <= u < u1: ITO_TILE_ROWS rows, or
    # the most whose three arrays below fit DRIFT_BUDGET_BYTES for one
    # replica (never fewer than one). A tile evaluates F and its heat
    # operator on the columns s < u1 only: w_inner is 0 for s > u
    rows = min(ITO_TILE_ROWS, len(budget_blocks(n_t, 24 * n_k * n_t)[0]))
    tiles = [range(u0, min(u0 + rows, n_t)) for u0 in range(0, n_t, rows)]
    # each tile's lag and weight tables are built once per call while the
    # tables of all tiles fit DRIFT_BUDGET_BYTES, else once per block
    tables = functools.lru_cache(
        maxsize=len(budget_blocks(len(tiles), 16 * rows * n_t)[0]))(
        functools.partial(_inner_tables, m_t, dt))
    blocks = budget_blocks(len(kept), 24 * n_k * rows * n_t)
    # two grids, |x_u - y_s|^2 and F, over a tile's (u, s < u1) columns, and
    # the padded rows: each tile's weighted heat rows, zero past s = u1, so
    # that every row is summed over all T columns as a whole-grid row is and
    # its sum keeps those bits (a shorter row is summed in another order).
    # All three are allocated once per call: fresh ones in every block made
    # glibc's malloc trim and refault its heap (about 80 000 page faults at
    # R = 500, M = 128) unless an earlier large free had raised its mmap
    # threshold
    b_max = len(blocks[0]) if blocks else 0
    size = b_max * n_k * rows * n_t
    grid_a, grid_b = np.empty(size), np.empty(size)
    padded = np.zeros((b_max, n_k, rows, n_t))
    dirty = 0            # the columns past `dirty` of `padded` are all 0
    res = np.zeros(len(kept))

    for block in blocks:
        pos = ensemble.positions[kept[block.start: block.stop], : m_t + 1]
        b = len(block)
        # (2, B, K, T): the paths of each pair's first and second particle,
        # split by coordinate
        h = _split_history(pos).swapaxes(0, 1)
        xi, xj = h[:, :, i_idx], h[:, :, j_idx]
        if chi != 0.0:   # (B, K, T, 2) total drift on each pair's first particle
            drift = step_drifts(pos, range(m_t + 1), cfg)
            drift = np.ascontiguousarray(drift.transpose(0, 2, 1, 3))[:, i_idx]
        lhs = _row_dot(GaussianBump.value_sq(
            lag_ut, _pair_geometry(xi[..., m_t:], xj)[2]), w_tr)
        t1 = _row_dot(GaussianBump.value_sq(0.0, _pair_geometry(xi, xj)[2]),
                      w_tr)
        row_sums = np.empty((b, n_k, n_t))     # sum_s w_inner * heat F
        grad_int = np.empty((b, n_k, n_t, 2))  # sum_s w_inner * grad F
        for tile in tiles:
            u0, u1 = tile.start, tile.stop
            lag, w_in = tables(u0, u1)
            shape = (b, n_k, u1 - u0, u1)
            sq, f = (g[: math.prod(shape)].reshape(shape)
                     for g in (grid_a, grid_b))
            if dirty > u1:
                padded[..., u1:dirty] = 0.0
            dirty = u1
            pad = padded[:b, :, : u1 - u0]
            # |x_u - y_s|^2 in the first grid (dy^2 in the second on the
            # way: `_pair_geometry` would need a third for dx and dy), F in
            # the second and the weighted heat operator in the padded rows;
            # F is shared with grad F = -2 x F, formed in the padded rows
            # after their sums
            now, past = xi[..., u0:u1, None], xj[..., None, :u1]
            with np.errstate(over="ignore", invalid="ignore"):
                np.square(np.subtract(now[0], past[0], out=sq), out=sq)
                sq += np.square(np.subtract(now[1], past[1], out=f), out=f)
            GaussianBump.value_sq(lag, sq, out=f)
            heat = GaussianBump.heat_sq(sq, f, out=sq)
            np.multiply(heat, w_in[:, :u1], out=pad[..., :u1])
            row_sums[:, :, u0:u1] = np.sum(pad, axis=-1)
            if chi != 0.0:
                for c in range(2):
                    g = np.subtract(now[c], past[c], out=pad[..., :u1])
                    g *= -2.0
                    g *= f
                    grad_int[:, :, u0:u1, c] = np.einsum(
                        "us,...us->...u", w_in, pad)
        per_pair = lhs - t1 - _row_dot(row_sums, w_tr)
        if chi != 0.0:
            per_pair -= chi * _row_dot(
                np.einsum("...uc,...uc->...u", grad_int, drift), w_tr)
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
    is the indicator that both coordinates at time tau lie in [lo, hi]:
    finite bounds, lo <= hi, and some (kept replica, particle) inside.
    tau <= s keeps the functional adapted; larger tau is a deliberate
    misuse that breaks the martingale property. s, t and tau must lie on
    the dt grid, with tau in [0, t]. Replicas run in blocks; those
    non-finite up to t are excluded. level lies in [0, 1).
    """
    if not 0.0 <= level < 1.0:   # level 1 has no finite normal quantile
        raise ValueError(f"level must lie in [0, 1), got {level}")
    if phi is None:
        phi = CompactBump()
    cfg = ensemble.config
    dt, chi = cfg.dt, cfg.params.chi
    if not 0 < s < t:
        raise ValueError(f"need 0 < s < t, got s={s}, t={t}")
    m_s = _grid_index(s, dt, "s")
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
        if not (math.isfinite(lo_w) and math.isfinite(hi_w) and lo_w <= hi_w):
            raise ValueError(f"window bounds must be finite with lo <= hi, "
                             f"got [{lo_w}, {hi_w}]")
        m_tau = _grid_index(tau, dt, "window time")
        if not 0 <= m_tau <= m_e:
            raise ValueError(f"window time {tau} outside [0, t={t}]")
        pt = ensemble.positions[kept, m_tau]
        path_mask = ((lo_w <= pt) & (pt <= hi_w)).all(axis=-1).astype(float)
        # an empty window gives all-zero residuals, which pass vacuously;
        # with no replica kept the report already has no estimate
        if len(kept) and not path_mask.any():
            raise ValueError(f"window [{lo_w}, {hi_w}] at time {tau} holds "
                             f"no particle of a kept replica")
    else:
        raise ValueError(f"unknown path functional spec {phi_path_spec!r}")

    w_in = _trap_weights(m_e - m_s, dt)
    theta_vals = np.zeros(len(kept))
    # a replica holds N x T arrays: its path copy (two), lap's five and, at
    # chi != 0, the drift workspace: three grids over the N - 1 other
    # particles and the doubled history window, under 4
    arrays = 7 + (3 * (n - 1) + 4 if chi != 0.0 else 0)
    for block in budget_blocks(len(kept), 8 * arrays * n * (m_e + 1)):
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


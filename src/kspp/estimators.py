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
import time
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .constants import c0_const, check_gamma_alpha, kappa
from . import simulator
from .kernels import EXP_CLAMP, smoothed_weight
from .simulator import (TrajectoryEnsemble, _conv_weights, _cyclic_pairs,
                        _cyclic_view, _gauss_exponent, _gauss_factor,
                        _history_sums, _i_tiles, _lag_table, _map_blocks,
                        _others, _pair_geometry, _pair_tiles, _views,
                        budget_blocks, step_drifts)


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


class _ReplicaBlocks:
    """The replica pass under every estimator.

    `kept` holds the replicas whose positions are finite on the rows
    0..m_t (`_finite_replicas`), in replica order, and `excluded` counts
    the others. `blocks` split `kept` into consecutive slices of the most
    replicas whose `replica_bytes` each fit DRIFT_BUDGET_BYTES
    (`budget_blocks`); the first holds the most, `largest`, for which an
    estimator sizes its workspace. An estimator maps a body over the
    slices `part` of the blocks with `run`'s replica-block driver,
    `simulator._map_blocks(body, plan.blocks, workspace)`, which returns
    [body(part, work) for each block] in block order: threads
    (KSPP_THREADS, default 1) take whole blocks, each worker makes one
    `workspace()` and sets one error state. A finite replica close to
    blowing up may overflow its kernel terms, which then come out inf, 0
    or NaN, as the simulator's helpers expect (see
    simulator._pair_geometry), and an estimator keeps them. A body writes
    only its block's slices of the call's arrays and returns its counts
    and maxima, which the estimator reduces in block order. It gathers its
    block (`history`) and keeps no reference to it, so that a block's
    arrays are freed before the worker's next block is gathered.
    """

    def __init__(self, ensemble: TrajectoryEnsemble, m_t: int,
                 replica_bytes: int):
        self.positions, self.m_t = ensemble.positions, m_t
        self.kept = _finite_replicas(ensemble, m_t)
        self.excluded = ensemble.n_replicas - len(self.kept)
        self.blocks = [slice(block.start, block.stop) for block in
                       budget_blocks(len(self.kept), replica_bytes)]
        self.largest = self.blocks[0].stop if self.blocks else 0

    def index(self, part: slice) -> slice | np.ndarray:
        """The replicas kept[part] as an index: a basic slice when they are
        consecutive, so that indexing by it copies nothing, else the
        array of them."""
        rows = self.kept[part]
        consecutive = len(rows) and rows[-1] - rows[0] == len(rows) - 1
        return slice(rows[0], rows[-1] + 1) if consecutive else rows

    def history(self, part: slice, targets: int = 1) -> np.ndarray:
        """The positions of the replicas kept[part] on the rows 0..m_t,
        split by coordinate, (2, B, N + targets - 1, m_t + 1): the layout
        every pair pass reads (a `_split_history` array's swapaxes(0, 1)),
        with the particles 0..N-1 and then 0..targets-2 again, the rows
        that `simulator._cyclic_view` of the target particles i < `targets`
        reads (the N rows alone by default). Gathered one coordinate at a
        time straight into it: the one temporary is one coordinate's rows,
        and none when the replicas are consecutive (`index`), where a
        gathered block and its split copy took four times that."""
        n = self.positions.shape[2]
        idx = self.index(part)
        h = np.empty((2, len(self.kept[part]), n + targets - 1, self.m_t + 1))
        for c in range(2):
            rows = self.positions[idx, : self.m_t + 1, :, c].transpose(0, 2, 1)
            h[c, :, :n] = rows
            h[c, :, n:] = rows[:, : targets - 1]
        return h


def _grid_index(t: float, dt: float, what: str) -> int:
    """The index m of the grid time m * dt that equals `t` to within 1e-9
    (relative past 1); ValueError, naming `t` as `what`, if there is none,
    as for an infinite or NaN `t`."""
    if not math.isfinite(t):
        raise ValueError(f"{what} {t} is not finite")
    m = int(round(t / dt))
    if abs(m * dt - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"{what} {t} is not on the dt={dt} grid")
    return m


def _horizon_index(ensemble: TrajectoryEnsemble, horizon: float | None,
                   what: str = "horizon") -> int:
    m_t = (ensemble.n_steps if horizon is None
           else _grid_index(horizon, ensemble.config.dt, what))
    if not 1 <= m_t <= ensemble.n_steps:
        raise ValueError(f"{what} index {m_t} outside the simulated window")
    return m_t


def _trap_weights(m_t: int, dt: float) -> np.ndarray:
    w = np.full(m_t + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def _replica_means(sums: np.ndarray) -> np.ndarray:
    """The mean of each row along the last axis of `sums`, summed exactly
    (math.fsum), so that it depends on neither the order of the row's
    terms nor the blocks."""
    rows = sums.reshape(-1, sums.shape[-1])
    return np.array([math.fsum(row) / len(row) for row in rows]
                    ).reshape(sums.shape[:-1])


def _row_dot(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w @ row for every row along the last axis of `rows`.

    One matmul per row, so each result has the bits of `w @ row` alone;
    `rows @ w` and einsum sum in another order.
    """
    return np.matmul(rows[..., None, :], w)[..., 0]


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """The mean of `values` and its standard error, 0 for one value; both
    NaN for none. An infinite value gives a NaN stderr, without a
    warning."""
    if not len(values):
        return math.nan, math.nan
    with np.errstate(invalid="ignore"):
        return float(values.mean()), (
            float(values.std(ddof=1) / math.sqrt(len(values)))
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

    One pass over the steps m, step 0 included: each step builds the pair
    geometry on the simulator's grid of the N - 1 other particles
    j = (i + 1 + k) mod N of each i (`simulator._others`), twice, through
    the kernel's helper (`simulator._pair_tiles`). E1 takes
    the same-time distances |X^i_m - X^j_m| from the step's row of the
    split history, doubled as `_others` doubles a window. The history
    geometry X^i_m - X^j_l (l < m) on the (i, k, l) grid, the history rows
    l last, feeds E2, E3, E4 and, at the horizon, S and S-bar; E3 and E4
    share the clamped Gaussian exponent a (`simulator._gauss_exponent`),
    whose exp is E4's Gaussian factor. E2 and E3 form their powers as the
    exp of a log, cheaper than np.power: E2's terms are
    e^(-gamma log(u + |d|^2)), E3's are tf_u^p e^x with
    x = a + ((p - 1) a + p log|d|), so that the large a is rounded once (a
    term's relative error is then about |x| 2^-53). Both sum each history
    row by one dot product (`_row_dot`), faster than np.sum along the row
    and with bits that do not depend on the tiles. All four functionals
    take their trapezoid over the steps per pair, in step order
    (e += w_m term_m), into (B, N, N - 1) arrays, and the per-pair sums
    are reduced by math.fsum, which is exact and so does not depend on
    the pairs' order.

    Memory: replicas run in the blocks of the replica pass
    (`_ReplicaBlocks`), sized so that a replica's five grids, its share of
    the doubled history window and its per-pair arrays fit
    DRIFT_BUDGET_BYTES, and each block's grid in the i-tiles of the one
    tile rule (`simulator._i_tiles`): the most target particles whose five
    grids fit the budget (one tile whenever they all do; a single i row
    above the budget is one tile). Every tile keeps whole history rows, so
    no sum depends on the tiles. Nothing else grows with the horizon: the
    per-pair accumulators and E1's same-time geometry are (B, N, N - 1)
    arrays, which the replica blocks count too. `notes` records the tile
    rows (`i_tile_rows`), the workspace's bytes (`workspace_bytes`), the
    (i, k, l) grid cells over all steps of the kept replicas
    (`pair_history_terms`, N(N - 1) m_t (m_t + 1) / 2 a replica) and the
    seconds of the pass (`timings`, key `grids`).
    """
    if ensemble.n_particles < 2:
        raise ValueError("need at least 2 particles")
    if ensemble.n_replicas < 1 or ensemble.positions.size == 0:
        raise ValueError("empty ensemble")
    cfg = ensemble.config
    dt = cfg.dt
    n = ensemble.n_particles
    m_t = _horizon_index(ensemble, ep.horizon)
    n_pairs = n * (n - 1)
    w_tr = _trap_weights(m_t, dt)
    q = 2.0 * (ep.gamma - 1.0)
    e3_pow = 2.0 * ep.gamma / 3.0
    unsmoothed = replace(cfg.params, epsilon=0.0)
    names = ("E1", "E2", "E3", "E4", "S", "S_bar")
    tri = m_t * (m_t + 1) // 2   # history rows l < m over the steps m <= m_t
    # a replica block counts, for each target particle i at the horizon,
    # five (i, k, l) grid rows and, near enough, its share of the doubled
    # window, and 16 arrays over its pairs: the per-pair sums, a step's,
    # E1's geometry and the steps' temporaries, which outweigh the grids at
    # short horizons. The i-tiles count the five grids (`_i_tiles`)
    row_bytes = 8 * (5 * (n - 1) + 4) * m_t
    plan = _ReplicaBlocks(ensemble, m_t, (row_bytes + 128 * (n - 1)) * n)
    tiles = _i_tiles(n, n, m_t, plan.largest, 5)
    per_rep = np.zeros((len(names), len(plan.kept)))

    # the (2, B, 2N - 1, l) doubled history window (see
    # simulator._mean_drifts), then five (B, i, k, l) grids of one i-tile,
    # allocated once per worker for the largest block and tile at the
    # horizon and sliced at every step: dx, dy, |d|^2 (then E3's exponents
    # and terms), the Gaussian exponent (then its factor, then E4's
    # coefficients) and the E2, S and (p - 1) a terms
    start = time.perf_counter()
    size = ((2 * (2 * n - 1) + 5 * len(tiles[0]) * (n - 1))
            * plan.largest * m_t)
    ones = np.ones(m_t)   # E2's row weights
    # the lags k dt for k = m_t..1, with the drift's weights (`_lag_table`)
    # and E3's tf_u^p: step m's rows l < m take the last m entries
    table = _lag_table(m_t, cfg)
    lags = table[0]
    tf_pows = np.power(smoothed_weight(lags, unsmoothed), e3_pow)

    def block(part: slice, work: np.ndarray) -> int:
        h = plan.history(part)
        b = h.shape[1]
        divergent = 0

        # the per-pair trapezoid sums over the steps, (B, i, k) for the
        # pairs (i, (i + 1 + k) mod N), and S and S-bar at the horizon
        sums = np.zeros((len(names), b, n, n - 1))
        e1, e2, e3, e4, s_full, sbar_full = sums
        # one step's E2 and E3 row sums and D by coordinate, from all tiles
        e2_m, e3_m, sx, sy = np.empty((4, b, n, n - 1))
        # E1's same-time geometry: the step's row doubled, then d and |d|^2
        # (then |d|, then its terms) over the pairs, one tile of every i
        row = np.empty((2, b, 2 * n - 1, 1))
        same_time = np.empty(3 * b * n * (n - 1))
        for m in range(m_t + 1):
            # E1: |X^i_m - X^j_m|^-q, an exact coincidence (|d| = 0)
            # counted as divergent and taken as 0
            *_, dist = next(_pair_tiles(h[..., m], _others(h, m, m + 1, row),
                                        same_time, [range(n)]))
            np.sqrt(dist, out=dist)
            zero = dist == 0.0
            divergent += int(zero.sum())
            np.power(dist, -q, out=dist)
            dist[zero] = 0.0
            e1 += w_tr[m] * dist[..., 0]
            if m == 0:
                continue   # no history rows, and D_0 = 0

            # geometry over (B, i, k, l): X^i_m - X^j_l for l < m and
            # j = (i + 1 + k) mod N
            lag, tf_pow = lags[m_t - m:], tf_pows[m_t - m:]
            l0, _, w = _conv_weights(m, cfg, table)
            window, = _views(work, (2, b, 2 * n - 1, m))
            for i, dx, dy, sq, g, term in _pair_tiles(
                    h[..., m], _others(h, 0, m, window), work[window.size:],
                    tiles, 2):
                # E2 / E3: double sums, left-endpoint (u-exclusive)
                # inner rule, one dot product a row. E2's terms are
                # e^(-gamma log(u + |d|^2))
                np.add(lag, sq, out=term)
                np.log(term, out=term)
                term *= -ep.gamma
                e2_m[:, i] = _row_dot(np.exp(term, out=term), ones[:m])
                if m == m_t:
                    # S and S-bar at the horizon (right-endpoint sum,
                    # diagonal excluded), while sq still holds |d|^2
                    for shift, s_out in ((lag, s_full),
                                         (lag + ep.delta, sbar_full)):
                        np.multiply(sq, ep.alpha, out=term)
                        np.add(shift, term, out=term)
                        s_out[:, i] = dt * np.sum(
                            np.power(term, -ep.gamma, out=term), axis=-1)
                # E3's terms |grad K_u|^p (unsmoothed) are tf_u^p e^x
                # with x = p (a + log|d|), a the clamped Gaussian
                # exponent, summed as a + ((p - 1) a + p log|d|) so
                # that the large a is rounded once (p - 1 is exact for
                # p in (1, 4/3)); |d| = 0 gives log 0 = -inf and a
                # term of 0
                _gauss_exponent(sq, lag, cfg, out=g)
                np.log(sq, out=sq)
                sq *= 0.5 * e3_pow
                sq += np.multiply(g, e3_pow - 1.0, out=term)
                sq += g
                e3_m[:, i] = _row_dot(np.exp(sq, out=sq), tf_pow)
                np.exp(g, out=g)   # _gauss_factor's bits

                # E4: the simulator's discrete pair drift on rows
                # [l0, m)
                sx[:, i], sy[:, i] = _history_sums(
                    dx[..., l0:], dy[..., l0:], g[..., l0:], w)
            e2 += w_tr[m] * dt * e2_m
            e3 += w_tr[m] * dt * e3_m
            # E4's terms |D|^q, D = -dt (sx, sy)
            sx *= -dt
            sy *= -dt
            d_mag = np.sqrt(sx * sx + sy * sy)
            e4 += w_tr[m] * np.power(d_mag, q, out=d_mag)

        per_rep[:, part] = _replica_means(sums.reshape(len(names), b, -1))
        return divergent

    divergent = sum(_map_blocks(block, plan.blocks, lambda: np.empty(size)))
    timings = {"grids": time.perf_counter() - start}

    # no finite replica: nothing to estimate, NaN
    estimates = {name: FunctionalEstimate(*_mean_stderr(vals), len(vals), vals)
                 for name, vals in zip(names, per_rep)}
    return EstimateReport(
        estimates=estimates,
        divergent_terms=divergent,
        config_echo=asdict(cfg),
        replicas=plan.kept,
        excluded=plan.excluded,
        notes={"gamma": ep.gamma, "alpha": ep.alpha, "delta": ep.delta,
               "horizon": m_t * dt, "pairs": n_pairs,
               "i_tile_rows": len(tiles[0]) if plan.largest else 0,
               "workspace_bytes": 8 * size,
               "pair_history_terms": len(plan.kept) * n_pairs * tri,
               "timings": timings},
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


def _drift_pass(ensemble: TrajectoryEnsemble, m_t: int, targets: int,
                memo: np.ndarray | None = None):
    """The checks' replica pass and their pair drifts D^{i,j}_m of the
    target particles i < `targets`, each with its N - 1 others j in cyclic
    order (`simulator._cyclic_view`), at the steps 1 <= m <= m_t.

    Returns the pass (`_ReplicaBlocks`), a generator function of a block's
    slice `part` and a worker's workspace `work`, and the function that
    makes that workspace (its buffer and a `_lag_table`). For each step m
    and i-tile the generator yields m, the squared distances
    |X^i_m - X^j_l|^2 (B, i, k, m) on the rows l < m, their lags
    t_m - t_l (m,) and D by coordinate, d_x and d_y (B, i, k). The squared
    distances are a view of the workspace, which the caller may
    overwrite: the next tile forms them anew.

    The geometry is the kernel's (`simulator._pair_tiles`), read in place
    from the block's history, gathered once per block and doubled only as
    far as the targets read (`_ReplicaBlocks.history`): the 2N - 1
    particle rows for every target, the N rows alone for i = 0 (Hoelder's
    miss path). The i-tiles are those of the one tile rule
    (`simulator._i_tiles`) for the largest block: the most target
    particles whose dx, dy, |d|^2 and, when D is formed, Gaussian factor
    fit DRIFT_BUDGET_BYTES, one tile whenever they all do. A block counts
    a replica's dx and dy over its pairs and N rows of its split
    positions, not the 2N - 1 of the doubled history: counted whole, they
    split pair_ensemble's 300 replicas into two blocks, and the
    domination check took about 10% longer. D is -dt times the drift
    kernel's history sums (`_gauss_factor` and `_history_sums` on the
    drift's rows [l0, m), with the lags and weights of one `_lag_table`
    per call). With `memo`, the sums of a matching drift memo
    (`_memo_sums`), D is read from there, a tile as memo[rows, m, i], and
    neither the Gaussian factor nor the history sums are formed. The
    workspace is made once per worker of the driver
    (`simulator._map_blocks`), and not at all by a call that forms no
    drift (Hoelder's hit path): fresh per-step arrays, one history row
    larger at each step, grew the heap (see simulator.DRIFT_BUDGET_BYTES).
    The simulator's helpers run in the driver's error state.
    """
    cfg, n = ensemble.config, ensemble.n_particles
    plan = _ReplicaBlocks(ensemble, m_t, 16 * (targets * (n - 1) * m_t
                                               + n * (m_t + 1)))
    grids = int(memo is None)   # the Gaussian factor
    tiles = _i_tiles(targets, n, m_t, plan.largest, 3 + grids)
    size = (3 + grids) * plan.largest * len(tiles[0]) * (n - 1) * m_t

    def drifts(part: slice, work):
        buf, table = work
        h = plan.history(part, targets=targets)
        rows = plan.index(part)
        for m in range(1, m_t + 1):
            l0, lags, w = _conv_weights(m, cfg, table)
            for i, dx, dy, sq, *g in _pair_tiles(
                    h[:, :, :n, m], _cyclic_view(h, 0, m, targets), buf,
                    tiles, grids):
                if memo is None:
                    sx, sy = _history_sums(
                        dx[..., l0:], dy[..., l0:],
                        _gauss_factor(sq[..., l0:], lags, cfg,
                                      out=g[0][..., l0:]), w)
                else:   # the tile's (B, i, k, 2) sums, by coordinate
                    sx, sy = memo[rows, m, i].transpose(3, 0, 1, 2)
                yield m, sq, table[0][m_t - m:], -cfg.dt * sx, -cfg.dt * sy

    return plan, drifts, lambda: (np.empty(size), _lag_table(m_t, cfg))


def _memo_sums(ensemble: TrajectoryEnsemble) -> np.ndarray | None:
    """The per-pair history sums that `run` kept in `ensemble.drift_memo`,
    (R, M + 1, N, N - 1, 2): sums[r, m, i, k] are those of replica r and
    the pair (i, (i + 1 + k) mod N). None unless the memo holds them under
    the ensemble's config and the SHA-256 fingerprint of its whole
    positions array, so that a swapped config or a write to the positions
    misses."""
    memo = ensemble.drift_memo
    if memo is None or memo.config != ensemble.config:
        return None
    if memo.fingerprint != simulator._fingerprint(ensemble.positions):
        return None
    return memo.sums


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

    S comes from the squared distances of the checks' pair-drift pass
    (`_drift_pass`) over every target particle i, the kernel's i-tiles. D
    comes from the ensemble's drift memo (`_memo_sums`) when it matches:
    the pass then forms only S's geometry, and D = -dt sums has the bits
    the pass would form. Otherwise the pass forms D too.
    """
    _check_slack(slack)
    cfg = ensemble.config
    p = cfg.params
    dt = cfg.dt
    n = ensemble.n_particles
    m_t = _horizon_index(ensemble, ep.horizon)
    const = (math.sqrt(p.theta) * c0_const(4.0 * ep.alpha / p.theta)
             * kappa(0.5, ep.gamma - 1.0) / (4.0 * math.pi))
    expo = 1.0 / (2.0 * (ep.gamma - 1.0))
    plan, drifts, workspace = _drift_pass(ensemble, m_t, n,
                                          _memo_sums(ensemble))
    checked = len(plan.kept) * n * (n - 1) * m_t

    def block(part: slice, work) -> tuple[int, float]:
        violations, worst = 0, 0.0
        for _, sq, lag, d_x, d_y in drifts(part, work):
            d_mag = np.sqrt(d_x * d_x + d_y * d_y)
            # S's terms (lag + alpha |d|^2)^-gamma, formed in place of |d|^2
            np.multiply(sq, ep.alpha, out=sq)
            np.add(lag, sq, out=sq)
            s_vals = dt * np.sum(np.power(sq, -ep.gamma, out=sq), axis=-1)
            # S may underflow to 0: the ratio is then inf, a violation
            bound = const * s_vals ** expo
            ratio = d_mag / (slack * bound)
            violations += int(np.sum(ratio > 1.0))
            worst = max(worst, float(np.max(d_mag / bound)))
        return violations, worst

    # a NaN ratio never replaces a running max from 0, so the blocks'
    # maxima reduce to the max of one run over all tiles; NaN without a
    # check (no block)
    counts = _map_blocks(block, plan.blocks, workspace)
    return DominationStats(checked, sum(v for v, _ in counts),
                           max((w for _, w in counts), default=math.nan),
                           slack, excluded=plan.excluded)


def _holder_max(paths: np.ndarray, times: np.ndarray,
                beta: float) -> np.ndarray:
    """max over grid pairs s < t of |path_t - path_s| / (t - s)^beta for
    each of the (P, T, 2) `paths`, taken along the diagonals t - s = k,
    one lag k at a time; the max does not depend on the order.

    Its one caller is holder_modulus' block body, in the driver's error
    state (see simulator._pair_geometry), and its 24 T bytes a path are
    fewer than the 16 ((N - 1) (T - 1) + N T) bytes a replica that sized
    the block (`_drift_pass`), so the block's paths fit
    DRIFT_BUDGET_BYTES together, or are a single path."""
    n_t = len(times)
    best = np.full(len(paths), -math.inf)
    xy = np.moveaxis(paths, -1, 0)   # (2, P, T)
    # the geometry's three arrays (dx and dy, then |.|^2), allocated once
    # per call for lag 1
    work = np.empty(3 * len(paths) * n_t)
    for k in range(1, n_t):
        shape = (len(paths), n_t - k)
        d, ratio = _views(work, (2, *shape), shape)
        _pair_geometry(xy[..., k:], xy[..., :-k], out=(d, ratio))
        np.sqrt(ratio, out=ratio)
        ratio /= (times[k:] - times[:-k]) ** beta
        np.maximum(best, np.max(ratio, axis=1), out=best)
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
    """Hoelder modulus of the integrated interaction drift of particle 0.

    Gamma_t = chi * int_0^t (1/(N-1)) sum_j D^{0,j}_s ds (left-endpoint in
    time), beta = (2 gamma - 3) / (2(gamma - 1)). The empirical modulus is
    compared against chi/(N-1) * sum_j [1 + sum |D|^(2(gamma-1)) dt], which
    dominates it by the exact discrete Hoelder inequality. Replicas with
    non-finite positions up to the horizon are excluded and counted in
    `excluded`; z_hat and bound hold the others, in replica order. slack
    must be finite and > 0.

    The series D^{0,j} is -dt times the history sums of the ensemble's
    drift memo (`_memo_sums`) when it matches, read for the block's
    replicas alone, else it comes from the checks' pair-drift pass
    (`_drift_pass`) on the one i-tile i = 0, without S. The series is
    bit-identical either way, so are z_hat and bound. It is formed and
    reduced one replica block at a time (the pass's `_ReplicaBlocks`), so
    neither path holds the series of every replica.
    """
    _check_slack(slack)
    chi, dt = ensemble.config.params.chi, ensemble.config.dt
    m_t = _horizon_index(ensemble, ep.horizon)
    n = ensemble.n_particles
    beta = (2.0 * ep.gamma - 3.0) / (2.0 * (ep.gamma - 1.0))
    plan, drifts, workspace = _drift_pass(ensemble, m_t, 1)
    sums = _memo_sums(ensemble)
    z_hat = np.zeros(len(plan.kept))
    bound = np.zeros(len(plan.kept))

    def block(part: slice, work) -> None:
        rows = plan.kept[part]
        # (B, m_t + 1, N - 1, 2): D^{0,j} = -dt sums, and D_0 = 0
        if sums is not None:
            d_series = sums[plan.index(part), : m_t + 1, 0] * -dt
            d_series[:, 0] = 0.0
        else:
            d_series = np.zeros((len(rows), m_t + 1, n - 1, 2))
            for m, _, _, d_x, d_y in drifts(part, work):   # the tile i = 0
                d_series[:, m] = np.stack((d_x[:, 0], d_y[:, 0]), axis=-1)
        # Gamma and |D|^q are formed in place and each array is freed once
        # read: the series, Gamma and one array more are the most held at a
        # time, and only Gamma when `_holder_max` allocates
        gamma_paths = np.zeros((len(rows), m_t + 1, 2))
        np.cumsum(d_series.mean(axis=2)[:, :-1], axis=1,
                  out=gamma_paths[:, 1:])
        gamma_paths[:, 1:] *= chi * dt
        d_mag = np.einsum("rmkc,rmkc->rmk", d_series, d_series)
        del d_series
        np.power(np.sqrt(d_mag, out=d_mag), 2.0 * (ep.gamma - 1.0), out=d_mag)
        tails = dt * np.sum(d_mag[:, :-1], axis=1)
        del d_mag
        bound[part] = [chi / (n - 1) * math.fsum(1.0 + t for t in tail)
                       for tail in tails]
        z_hat[part] = _holder_max(gamma_paths, ensemble.times[: m_t + 1], beta)

    _map_blocks(block, plan.blocks, workspace if sums is None else lambda: None)
    return HolderStats(beta, z_hat, bound, slack, excluded=plan.excluded)


# ---------------------------------------------------------------------------
# Built-in test functions
# ---------------------------------------------------------------------------


class GaussianBump:
    """F(u, x) = exp(-u - |x|^2) and its exact time-plus-Laplace operator,
    both from the squared length |x|^2."""

    @staticmethod
    def value_sq(u, sq, out=None):
        """F at squared length `sq` of x, written into `out` if given.

        e^max(-u - |x|^2, -EXP_CLAMP): three passes over the grid. It has
        the bits of e^-min(u + |x|^2, EXP_CLAMP), since negation is exact
        and rounding symmetric; only the sign bit of a NaN may differ."""
        f = np.subtract(np.negative(u), sq, out=out)
        return np.exp(np.maximum(f, -EXP_CLAMP, out=out), out=out)

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
        1 - rho and the bump are formed in place, one array each. |x|^2 is
        x0 x0 + x1 x1, the bits of the trailing-axis einsum and faster; unlike
        einsum, multiply warns when a square overflows to inf, which is then
        outside the support like any other large x; so does rho's division
        by a radius below 1."""
        x = np.asarray(x, float)
        with np.errstate(over="ignore"):
            sq = x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]
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
        in place, in val, 1 - rho (which becomes gpp) and two arrays more.
        |x|^2 and the bracket multiply in only inside the support, where
        they are finite; val is already 0 outside it."""
        _, sq, inside, one_m, val = self._terms(x)
        r2 = self.radius ** 2
        gp = np.negative(np.power(one_m, -2.0), out=np.empty_like(one_m))
        gpp = np.multiply(np.power(one_m, -3.0, out=one_m), -2.0, out=one_m)
        h = np.multiply(gp, gp, out=np.empty_like(gp))
        h += gpp
        h *= 4.0
        np.multiply(h, sq, out=h, where=inside)
        h /= r2 ** 2
        gp *= 4.0
        gp /= r2
        h += gp
        np.multiply(val, h, out=val, where=inside)
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
        """The sample variance of per_replica; NaN, without a warning, for
        fewer than two values."""
        if len(self.per_replica) < 2:
            return math.nan
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
    mean, err = _mean_stderr(values)
    lo = hi = math.nan
    if len(values):
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
    blocks (`_ReplicaBlocks`); those non-finite up to the horizon are
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
    i_idx, j_idx = _cyclic_pairs(n)
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
    plan = _ReplicaBlocks(ensemble, m_t, 24 * n_k * rows * n_t)
    # two grids, |x_u - y_s|^2 and F, over a tile's (u, s < u1) columns, and
    # the padded rows: each tile's weighted heat rows, zero past s = u1, so
    # that every row is summed over all T columns as a whole-grid row is and
    # its sum keeps those bits (a shorter row is summed in another order).
    # All three are allocated once per worker: fresh ones in every block
    # made glibc's malloc trim and refault its heap (about 80 000 page
    # faults at R = 500, M = 128) unless an earlier large free had raised
    # its mmap threshold
    size = plan.largest * n_k * rows * n_t
    res = np.zeros(len(plan.kept))

    def block(part: slice, work) -> None:
        grid_a, grid_b, padded = work
        h = plan.history(part)
        b = h.shape[1]
        # (2, B, K, T): the paths of each pair's first and second particle,
        # split by coordinate
        xi, xj = h[:, :, i_idx], h[:, :, j_idx]
        if chi != 0.0:   # (B, K, T, 2) total drift on each pair's first particle
            drift = step_drifts(h.transpose(1, 3, 2, 0), range(m_t + 1), cfg,
                                hist=h.swapaxes(0, 1))
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
            pad = padded[:b, :, : u1 - u0]
            # |x_u - y_s|^2 in the first grid (dy^2 in the second on the
            # way: `_pair_geometry` would need a third for dx and dy), F in
            # the second and the weighted heat operator in the padded rows;
            # F is shared with grad F = -2 x F, formed in the padded rows
            # after their sums
            now, past = xi[..., u0:u1, None], xj[..., None, :u1]
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
        res[part] = _replica_means(per_pair)
        # the padded rows past the first tile's columns back to 0, as the
        # next block's tiles read them: a tile writes only its s < u1
        padded[:b, ..., tiles[0].stop:] = 0.0

    _map_blocks(block, plan.blocks, lambda: (
        np.empty(size), np.empty(size), np.zeros((plan.largest, n_k, rows, n_t))))
    return _residual_report(
        res, lambda v, mean, err: bootstrap_mean_ci(v, level=level,
                                                    n_boot=n_boot, seed=boot_seed),
        level, plan.excluded)


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
    the dt grid, with tau in [0, t]. Replicas run in blocks
    (`_ReplicaBlocks`); those non-finite up to t are excluded. level lies in
    [0, 1).
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
    m_e = _horizon_index(ensemble, t, "t")
    if not 0 < m_s < m_e:
        raise ValueError(f"need grid indices 0 < {m_s} < {m_e}")

    n = ensemble.n_particles
    # a replica holds N x T arrays: its split positions (two), lap's five,
    # gen in C order and, at chi != 0, the drift workspace (three grids over
    # the N - 1 other particles and the doubled history window, under 4)
    arrays = 8 + (3 * (n - 1) + 4 if chi != 0.0 else 0)
    plan = _ReplicaBlocks(ensemble, m_e, 8 * arrays * n * (m_e + 1))
    kind = phi_path_spec[0]
    if kind == "const":
        path_mask = np.ones((len(plan.kept), n))
    elif kind == "window":
        _, tau, lo_w, hi_w = phi_path_spec
        if not (math.isfinite(lo_w) and math.isfinite(hi_w) and lo_w <= hi_w):
            raise ValueError(f"window bounds must be finite with lo <= hi, "
                             f"got [{lo_w}, {hi_w}]")
        m_tau = _grid_index(tau, dt, "window time")
        if not 0 <= m_tau <= m_e:
            raise ValueError(f"window time {tau} outside [0, t={t}]")
        pt = ensemble.positions[plan.kept, m_tau]
        path_mask = ((lo_w <= pt) & (pt <= hi_w)).all(axis=-1).astype(float)
        # an empty window gives all-zero residuals, which pass vacuously;
        # with no replica kept the report already has no estimate
        if len(plan.kept) and not path_mask.any():
            raise ValueError(f"window [{lo_w}, {hi_w}] at time {tau} holds "
                             f"no particle of a kept replica")
    else:
        raise ValueError(f"unknown path functional spec {phi_path_spec!r}")

    w_in = _trap_weights(m_e - m_s, dt)
    theta_vals = np.zeros(len(plan.kept))

    def block(part: slice, _) -> None:
        h = plan.history(part)
        pos = h.transpose(1, 3, 2, 0)               # (B, T, N, 2), a view
        window = pos[:, m_s:]
        gen = phi.lap(window)                       # (B, w, N)
        if chi != 0.0:
            drift = step_drifts(pos, range(m_s, m_e + 1), cfg,
                                hist=h.swapaxes(0, 1))
            gen = gen + chi * np.einsum("bwnc,bwnc->bwn", phi.grad(window), drift)
        # matmul's sums depend on the layout of gen; C order has the bits
        # of a block gathered as (B, T, N, 2)
        integral = np.matmul(w_in, np.ascontiguousarray(gen))   # (B, N)
        vals = path_mask[part] * (
            (phi.value(pos[:, m_e]) - phi.value(pos[:, m_s])) - integral)
        theta_vals[part] = _replica_means(vals)

    _map_blocks(block, plan.blocks, lambda: None)

    import statistics   # here: it imports fractions and decimal
    z = statistics.NormalDist().inv_cdf(0.5 + level / 2.0)
    return _residual_report(theta_vals,
                            lambda v, mean, err: (mean - z * err, mean + z * err),
                            level, plan.excluded)


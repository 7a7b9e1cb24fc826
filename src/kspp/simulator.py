"""Euler-Maruyama integration of the smoothed N-particle system.

The drift on particle i at grid time t_m is the discrete time convolution

    (1/(N-1)) * sum_{j != i} sum_{l < m} H_(t_m - t_l)(X^i_m - X^j_l) * dt

over the full stored history (left-endpoint rule in the history variable;
the l = m endpoint is excluded and would contribute zero anyway, since the
smoothed kernel vanishes there). Noise and initial positions come from
counter-based Philox streams keyed by (seed, replica, particle), so runs
are bit-reproducible, prefixes are stable when the replica count or the
step count grows, and streams can be permuted or reused across configurations
(the epsilon-refinement study relies on reusing one noise array).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .kernels import (EXP_CLAMP, KernelParams, SourceSpec, background_field,
                      smoothed_weight)

_VALID_INIT = ("point", "gaussian", "uniform_disk", "mirrored_pair")
_VALID_NOISE = ("standard", "zero", "mirrored")
RNG_SCHEME = "philox128/init0-noise1-v1"


@dataclass(frozen=True)
class InitSpec:
    """Initial-law specification.

    point:          all particles at `center`
    gaussian:       iid center + sigma * N(0, I) per particle
    uniform_disk:   iid uniform on the disk of radius `radius` around `center`
    mirrored_pair:  N = 2, particle 0 at `center`, particle 1 at -`center`
    """

    kind: str
    center: tuple[float, float] = (0.0, 0.0)
    sigma: float = 1.0
    radius: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _VALID_INIT:
            raise ValueError(f"unknown init kind {self.kind!r}, "
                             f"expected one of {_VALID_INIT}")
        if not all(map(math.isfinite, self.center)):
            raise ValueError(f"center must be finite, got {self.center}")
        # `not 0 < x < inf` also rejects NaN
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be finite and > 0, got {self.radius}")


@dataclass(frozen=True)
class SimConfig:
    params: KernelParams
    source: SourceSpec = SourceSpec()
    n_particles: int = 2
    dt: float = 1e-2
    n_steps: int = 100
    n_replicas: int = 1
    seed: int = 0
    init: InitSpec = InitSpec("point")
    history_cutoff: float | None = None
    noise_mode: str = "standard"

    def __post_init__(self) -> None:
        if self.n_particles < 2:
            raise ValueError(f"n_particles must be >= 2, got {self.n_particles}")
        if not 0 < self.dt < math.inf:  # also rejects NaN
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")
        if self.n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {self.n_replicas}")
        if self.noise_mode not in _VALID_NOISE:
            raise ValueError(f"unknown noise_mode {self.noise_mode!r}, "
                             f"expected one of {_VALID_NOISE}")
        if self.noise_mode == "mirrored" and self.n_particles != 2:
            raise ValueError("mirrored noise requires exactly 2 particles")
        if self.init.kind == "mirrored_pair" and self.n_particles != 2:
            raise ValueError("mirrored_pair init requires exactly 2 particles")
        if self.history_cutoff is not None and not 0 < self.history_cutoff < math.inf:
            raise ValueError("history_cutoff must be finite and positive when set, "
                             f"got {self.history_cutoff}")


@dataclass
class TrajectoryEnsemble:
    """Simulated paths: replica x time-grid x particle x 2 positions.

    Rows after a blow-up stay NaN; affected replicas are listed in
    `blowups` as (replica, step) with `step` the first non-finite row.
    """

    positions: np.ndarray
    config: SimConfig
    rng_provenance: dict
    blowups: list[tuple[int, int]] = field(default_factory=list)
    drift_seconds: float = 0.0
    # replica_blocks: the blocks stepped together; drift_workspace_bytes:
    # the drift kernel's workspace of the largest block, and
    # drift_tile_rows: the target particles i of its kernel call's first
    # i-tile (both 0 without drift)
    counters: dict[str, int] = field(default_factory=lambda: {
        "replica_blocks": 0, "drift_workspace_bytes": 0,
        "drift_tile_rows": 0})

    @property
    def n_replicas(self) -> int:
        return self.positions.shape[0]

    @property
    def n_steps(self) -> int:
        return self.positions.shape[1] - 1

    @property
    def n_particles(self) -> int:
        return self.positions.shape[2]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.positions.shape[1]) * self.config.dt


def _streams(seed: int, purpose: int):
    """Selector of the Philox streams keyed by (seed, replica, particle, purpose).

    `select(replica, particle)` returns one reused Generator rewound to the
    start of that stream: the key (seed mod 2^64, purpose<<62 | replica<<31
    | particle), a zero counter and an empty buffer are written into its
    Philox state. Its draws are those of a fresh
    Generator(Philox(key=...)), without the SeedSequence that constructing
    a Philox draws (about 21 us a stream). A stream must be drawn from
    before the next one is selected.
    """
    bit_gen = np.random.Philox()
    gen = np.random.Generator(bit_gen)
    key = [seed % 2 ** 64, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}

    def select(replica: int, particle: int) -> np.random.Generator:
        if not 0 <= replica < 2 ** 31 or not 0 <= particle < 2 ** 31:
            raise ValueError("replica/particle index out of the 31-bit key range")
        key[1] = (purpose << 62) | (replica << 31) | particle
        bit_gen.state = state
        return gen

    return select


def draw_initial(config: SimConfig) -> np.ndarray:
    """Step-0 positions, shape (n_replicas, n_particles, 2)."""
    r_n, n = config.n_replicas, config.n_particles
    spec = config.init
    center = np.asarray(spec.center, dtype=float)
    if spec.kind == "point":
        return np.broadcast_to(center, (r_n, n, 2)).copy()
    if spec.kind == "mirrored_pair":
        return np.broadcast_to(np.stack([center, -center]), (r_n, n, 2)).copy()
    select = _streams(config.seed, purpose=0)
    draws = np.empty((r_n, n, 2))
    for r in range(r_n):
        for i in range(n):
            gen = select(r, i)
            if spec.kind == "gaussian":
                gen.standard_normal(out=draws[r, i])
            else:  # uniform_disk: radius, then angle, from one stream
                gen.random(out=draws[r, i])
    if spec.kind == "gaussian":
        return center + spec.sigma * draws
    rad = spec.radius * np.sqrt(draws[..., 0])
    # libm cos/sin, one angle at a time, as each stream has always used
    turn = np.array([(math.cos(a), math.sin(a))
                     for a in (2.0 * math.pi * draws[..., 1]).ravel().tolist()]
                    ).reshape(r_n, n, 2)
    return center + rad[..., None] * turn


def draw_noise(config: SimConfig, replicas: range | None = None) -> np.ndarray:
    """Brownian increments (var dt per coordinate) of the replicas
    `replicas` (all by default), shape (len(replicas), n_steps, N, 2).

    Each replica's draws come from its own streams, so a range of replicas
    gets the rows that the whole draw gives them."""
    m, n = config.n_steps, config.n_particles
    if replicas is None:
        replicas = range(config.n_replicas)
    if config.noise_mode == "zero" or m == 0:
        return np.zeros((len(replicas), m, n, 2))
    out = np.empty((len(replicas), m, n, 2))
    root_dt = math.sqrt(config.dt)
    select = _streams(config.seed, purpose=1)
    if config.noise_mode == "mirrored":
        w = np.empty((m, 2))
        for k, r in enumerate(replicas):
            select(r, 0).standard_normal(out=w)
            np.multiply(w, root_dt, out=out[k, :, 0])
            np.negative(out[k, :, 0], out=out[k, :, 1])
        return out
    buf = np.empty((n, m, 2))
    for k, r in enumerate(replicas):
        for i in range(n):
            select(r, i).standard_normal(out=buf[i])
        np.multiply(buf.transpose(1, 0, 2), root_dt, out=out[k])
    return out


def init_ensemble(config: SimConfig, initial: np.ndarray | None = None) -> TrajectoryEnsemble:
    """Ensemble holding only the step-0 state."""
    positions = np.full((config.n_replicas, config.n_steps + 1,
                         config.n_particles, 2), np.nan)
    if initial is None:
        initial = draw_initial(config)
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (config.n_replicas, config.n_particles, 2):
        raise ValueError(f"initial has shape {initial.shape}, expected "
                         f"{(config.n_replicas, config.n_particles, 2)}")
    positions[:, 0] = initial
    return TrajectoryEnsemble(positions=positions, config=config,
                              rng_provenance={"seed": config.seed,
                                              "scheme": RNG_SCHEME})


def _history_start(m: int, config: SimConfig) -> int:
    if config.history_cutoff is None:
        return 0
    keep = int(math.floor(config.history_cutoff / config.dt + 1e-9))
    return max(0, m - keep)


def _conv_weights(m: int, config: SimConfig) -> tuple[int, np.ndarray, np.ndarray]:
    """Time lags u = t_m - t_l and kernel weights for history rows l0 <= l < m."""
    l0 = _history_start(m, config)
    lags = (m - np.arange(l0, m)) * config.dt
    return l0, lags, smoothed_weight(lags, config.params)


# Byte budget of the float64 pair displacements dx and dy that one kernel call
# holds, over the N(N-1) pairs of distinct particles, for a block of replicas
# and a tile of target particles i. Batching saves the per-call overhead that
# dominates small systems; past a few MiB the temporaries leave the cache and
# a batched step runs slower per replica than a single one. Replicas are
# stepped in blocks (`budget_blocks`), and the target particles of a block in
# i-tiles (`_drift_workspace`); a block that fits the budget is one tile. Every
# history row l stays whole in a tile, so the sum over it keeps its bits; a
# single i row above the budget is one tile, and the bound is then that row.
# A block's drift workspace (`_drift_workspace`: the doubled history window,
# (2N - 1)/(N(N - 1)) of the block's dx and dy, then dx, dy and the
# coefficients of one tile, each laid out (B, i, k, l) over the N - 1 other
# particles k with the history rows l last, 1.5 times the tile's budget) is
# allocated once per block and sliced at every step. Fresh per-step arrays,
# one history row larger each step, were each served by a new mmap above
# glibc's threshold and faulted in page by page: a cold 2-replica N = 32,
# M = 200 run took 271 000 minor page faults, against under 1 400 with the
# workspace.
DRIFT_BUDGET_BYTES = 2 * 1024 * 1024


def budget_blocks(n_items: int, item_bytes: int) -> list[range]:
    """Split n_items into consecutive blocks that are handled together.

    A block holds the most items whose `item_bytes` each fit
    DRIFT_BUDGET_BYTES together; never fewer than one, and all of them when
    an item takes no bytes. Callers pass replicas (8 * arrays * pairs * rows
    bytes of float64 temporaries a replica), grid rows or resample rows.
    """
    size = max(1, DRIFT_BUDGET_BYTES // item_bytes if item_bytes else n_items)
    return [range(lo, min(lo + size, n_items))
            for lo in range(0, n_items, size)]


def _split_history(pos: np.ndarray) -> np.ndarray:
    """Positions (B, T, N, 2) split by coordinate, with the history last and
    contiguous: (B, 2, N, T), the layout every pair-history pass reads."""
    return np.ascontiguousarray(pos.transpose(0, 3, 2, 1))


def _pair_geometry(now, past, out=None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Displacements now - past by coordinate, dx and dy, and |.|^2.

    `now` and `past` hold the two coordinates along their first axis
    (`now[0]` is x, `now[1]` is y; a `_split_history` array passes its
    `swapaxes(0, 1)` view), and broadcast against each other past it; dx,
    dy and |.|^2 have the broadcast shape past that axis. Pair-history
    passes put the history rows l last, so that every sum over them runs
    along one contiguous axis. dx and dy are formed as one (2, ...) array
    by one subtraction, and |.|^2 by one einsum over its first axis: the
    bits of dx^2 + dy^2. `out`, if given, is that (2, ...) array and one of
    the broadcast shape, and nothing is allocated.
    """
    d_out, sq_out = (None, None) if out is None else out
    # overflow on a replica that is blowing up is detected after its
    # Euler update, not here
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.subtract(now, past, out=d_out)
        sq = np.einsum("c...,c...->...", d, d, out=sq_out)
    return d[0], d[1], sq


def _gauss_factor(sq: np.ndarray, lags: np.ndarray, config: SimConfig,
                  out=None) -> np.ndarray:
    """e^(-min(theta |d|^2 / 4u, EXP_CLAMP)) for squared lengths `sq`
    (..., L) at the lags u (L,), formed in `out` if given (it may be sq).

    The Gaussian factor of the kernel, written once: the drift contraction
    weights it by the lag weights, and paper_moments' E3 shares it. The
    sign is folded into the product, -theta |d|^2 / 4u clamped from below
    at -EXP_CLAMP: the same bits as negating after the clamp for every
    finite or infinite input, one elementwise pass fewer; only the sign
    bit of a NaN may differ."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.multiply(sq, -config.params.theta, out=out)
        g /= 4.0 * lags
        np.maximum(g, -EXP_CLAMP, out=g)
        return np.exp(g, out=g)


def _history_sums(dx: np.ndarray, dy: np.ndarray, g: np.ndarray,
                  w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_l w_l e^(-theta|d_l|^2 / 4u_l) d_l for displacements d = (dx, dy).

    `dx`, `dy` and their Gaussian factors `g` (`_gauss_factor`) are
    (..., L), with the L history rows contiguous; returns the two
    coordinates of the sums, each (...). The one drift contraction: g
    becomes the coefficients in place and each sum runs along one
    contiguous row, so its bits depend only on the row's length L, not on
    how the rows are laid out or gathered.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g *= w
        return (np.einsum("...l,...l->...", g, dx),
                np.einsum("...l,...l->...", g, dy))


def _pair_drifts(hist: np.ndarray, config: SimConfig, m: int,
                 i_idx: np.ndarray, j_idx: np.ndarray) -> np.ndarray:
    """`pair_drifts` on a split history `hist` (`_split_history`), m >= 1."""
    l0, lags, w = _conv_weights(m, config)
    h = hist.swapaxes(0, 1)
    dx, dy, sq = _pair_geometry(h[:, :, i_idx, m, None], h[:, :, j_idx, l0:m])
    g = _gauss_factor(sq, lags, config, out=sq)
    return -config.dt * np.stack(_history_sums(dx, dy, g, w), axis=-1)


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
    return _pair_drifts(_split_history(positions[:, : m + 1]), config, m,
                        i_idx, j_idx)


def _drift_window(m: int, config: SimConfig) -> int:
    """History rows of the drift at step m."""
    return m - _history_start(m, config)


def _drift_workspace(n_block: int, n_particles: int, rows: int
                     ) -> tuple[np.ndarray, list[range]]:
    """The drift kernel's buffers for `n_block` replicas over at most `rows`
    history rows, and the i-tiles they are sized for.

    The tiles split the target particles i into the most rows whose dx
    and dy fit DRIFT_BUDGET_BYTES for the block (`budget_blocks`): one
    tile whenever the block fits. The buffers are one flat float64 array:
    the doubled history window (2, n_block, 2N - 1, rows) (`_others`),
    then dx, dy and |d|^2 (which becomes the coefficients), each
    (n_block, t, N - 1, rows) for the t rows of the first tile, over the
    pairs of distinct particles. A step over fewer replicas, rows or tile
    rows takes views of its leading entries (`_views`)."""
    n = n_particles
    tiles = budget_blocks(n, 16 * (n - 1) * rows * n_block)
    grids = 3 * len(tiles[0]) * (n - 1)
    return np.empty((2 * (2 * n - 1) + grids) * n_block * rows), tiles


def _views(buf: np.ndarray, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Consecutive views of the leading entries of the flat array `buf`,
    one of each shape."""
    out, lo = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(buf[lo: lo + size].reshape(shape))
        lo += size
    return out


def _others(h: np.ndarray, l0: int, m: int, window: np.ndarray) -> np.ndarray:
    """History rows l0 <= l < m of the N - 1 other particles of each one.

    `h` is a split history with the coordinates first, (2, B, N, T) (a
    `_split_history` array's `swapaxes(0, 1)` view), and `window` a
    contiguous (2, B, 2N - 1, m - l0) array that takes the rows doubled
    along the particle axis: particles 0..N-1, then 0..N-2 again. Returns a
    read-only view (2, B, N, N - 1, m - l0) of it in which [..., i, k, :]
    is particle (i + 1 + k) mod N: the pairs (i, j != i) in cyclic order
    from i + 1, without a gather, each particle's rows still contiguous.
    Both i and k step by the particle stride. `as_strided` rather than
    `sliding_window_view`, whose argument checks cost about 20 us a call.
    Both halves are copied from `h`: a copy within `window` is not proven
    free of overlap, and numpy buffers it first (twice the time).
    """
    n = h.shape[2]
    np.copyto(window[:, :, :n], h[..., l0:m])
    np.copyto(window[:, :, n:], h[:, :, : n - 1, l0:m])
    s0, s1, sp, sl = window.strides
    return np.lib.stride_tricks.as_strided(
        window[:, :, 1:], shape=(*window.shape[:2], n, n - 1, window.shape[3]),
        strides=(s0, s1, sp, sp, sl), writeable=False)


def _mean_drifts(hist: np.ndarray, m: int, config: SimConfig,
                 work: tuple[np.ndarray, list[range]]) -> np.ndarray:
    """(1/(N-1)) sum_{j != i} D^{i,j}_m for a block's split history `hist`
    (B, 2, N, T) with T > m (`_split_history`), shape (B, N, 2).

    Contracts only the N(N-1) pairs of distinct particles: the
    displacements are laid out (B, i, k, l) per coordinate, k running over
    the other particles j = (i + 1 + k) mod N (`_others`) and the history
    rows l last, and the sum over j runs in that cyclic order. `work` is a
    workspace and its i-tiles (`_drift_workspace`, for at least B replicas
    and this step's rows): the window of history rows is copied into it
    once, doubled, and each tile of target particles i forms its grids in
    views of it. Contiguous, the window's rows form one loop of each grid
    operation. Every tile holds whole history rows, so the drift does not
    depend on the tiles bit for bit. Against the full N*N grid with the
    self pairs subtracted, a step took 0.57-0.65 of the time at N = 2 (300
    replicas), 0.78-0.85 at N = 4, 0.92 at N = 8, 0.98-1.02 at N = 16 and
    0.95 at N = 32 (medians of 10 alternating in-process runs,
    BENCH_16.json; 2-core Xeon VM, numpy 2.4.6); the subtraction also
    cancelled a pair drift much smaller than the self pair's term to 0.
    """
    b, _, n, _ = hist.shape
    if m == 0:
        return np.zeros((b, n, 2))
    buf, tiles = work
    l0, lags, w = _conv_weights(m, config)
    window_shape = (2, b, 2 * n - 1, m - l0)
    window, = _views(buf, window_shape)
    h = hist.swapaxes(0, 1)
    others = _others(h, l0, m, window)
    sums = np.empty((b, n, 2))
    for tile in tiles:
        i = slice(tile.start, tile.stop)
        shape = (b, len(tile), n - 1, m - l0)
        _, d, sq = _views(buf, window_shape, (2, *shape), shape)
        dx, dy, sq = _pair_geometry(h[:, :, i, None, m, None],
                                    others[:, :, i], out=(d, sq))
        g = _gauss_factor(sq, lags, config, out=sq)
        # (B, i, k, 2), summed over the other particles k
        sums[:, i] = np.stack(_history_sums(dx, dy, g, w), axis=-1).sum(axis=2)
    return -config.dt * sums / (n - 1)


def step_drifts(pos: np.ndarray, steps: range, config: SimConfig,
                work: tuple[np.ndarray, list[range]] | None = None,
                hist: np.ndarray | None = None) -> np.ndarray:
    """Drift of every particle at the consecutive steps m in `steps`.

    The drift is the background gradient grad b(t_m + eps, X^i_m) plus the
    interaction mean (1/(N-1)) sum_{j != i} D^{i,j}_m, for a block `pos`
    (B, T, N, 2) with T > max(steps); shape (B, len(steps), N, 2). It is
    exactly what the Euler step scales by chi * dt, so estimators built on
    it see the integrator's own drift. The background is evaluated in one
    call over all the steps. `work` is the kernel's workspace and its
    i-tiles (`_drift_workspace`); without it one is sized for the block and
    the last step, and every step of the call slices it. `hist` is `pos` split
    by coordinate (`_split_history`), at least up to row max(steps);
    without it the call splits `pos` once.
    """
    b, _, n, _ = pos.shape
    out = np.empty((b, len(steps), n, 2))
    if work is None and len(steps):
        work = _drift_workspace(b, n, _drift_window(steps[-1], config))
    if hist is None:
        hist = _split_history(pos[:, : steps.stop])
    for k, m in enumerate(steps):
        out[:, k] = _mean_drifts(hist, m, config, work)
    if not config.source.is_zero:
        t = np.asarray(steps) * config.dt + config.params.epsilon
        _, grad_b = background_field(t[:, None], pos[:, steps.start: steps.stop],
                                     config.source, config.params)
        out += grad_b
    return out


def _euler_block(positions: np.ndarray, hist: np.ndarray | None,
                 d_w: np.ndarray, m: int, config: SimConfig,
                 work: tuple[np.ndarray, list[range]]
                 ) -> tuple[np.ndarray, float]:
    """One Euler step m -> m+1 for every replica of a block.

    `positions` (B, T, N, 2) holds the block's replicas, all finite up to
    row m, and `hist` their split history (`_split_history`, (B, 2, N, T)),
    None without drift; `d_w` holds this step's increments, shape
    (B, N, 2); `work` is the drift workspace and its i-tiles for the block
    (`_drift_workspace`). Writes row m+1 of each replica that stays finite,
    in `positions` and `hist`, and returns (the mask of those replicas,
    drift seconds); a blown replica's row stays as it was.
    """
    p = config.params
    x = positions[:, m]
    drift_time = 0.0
    if p.chi != 0.0:
        t0 = time.perf_counter()
        drift = step_drifts(positions[:, : m + 1], range(m, m + 1), config,
                            work, hist)[:, 0]
        drift_time = time.perf_counter() - t0
        # overflow here is the blow-up signal, detected explicitly below
        with np.errstate(over="ignore", invalid="ignore"):
            x_new = x + math.sqrt(2.0) * d_w + p.chi * drift * config.dt
    else:
        x_new = x + math.sqrt(2.0) * d_w
    finite = np.isfinite(x_new).all(axis=(1, 2))
    rows = slice(None) if finite.all() else finite
    positions[rows, m + 1] = x_new[rows]
    if hist is not None:
        hist[rows, :, :, m + 1] = x_new[rows].transpose(0, 2, 1)
    return finite, drift_time


def _drift_rows(config: SimConfig) -> int:
    """History rows that bound every drift window of a run (0 without drift)."""
    if config.params.chi == 0.0:
        return 0
    return _drift_window(config.n_steps, config)


def _require_smoothing(config: SimConfig) -> None:
    if config.params.chi != 0.0 and config.params.epsilon <= 0:
        raise ValueError("the smoothed system requires epsilon > 0")


def run(config: SimConfig, initial: np.ndarray | None = None,
        noise: np.ndarray | None = None) -> TrajectoryEnsemble:
    """Integrate the full ensemble.

    `initial` (R, N, 2) and `noise` (R, n_steps, N, 2) override the stream
    draws when given (used by the permutation, mirror and epsilon-refinement
    studies); without `noise`, each block of replicas draws its own. Replicas
    are stepped in blocks (`budget_blocks`), one kernel call per block,
    step and i-tile (`_drift_workspace`); threads (KSPP_THREADS, default 1)
    take whole blocks. Blow-ups abort only their replica and are recorded
    rather than raised.

    Relabeling: applying one permutation of the particles to `initial` and
    `noise` permutes the paths to within 1e-12 (relative and absolute),
    not bit for bit, since the sum over the other particles j runs in
    cyclic order from i + 1 (`_mean_drifts`). Over 600 random
    configurations (N <= 9, <= 30 steps) the worst deviation was 2.2e-16
    absolute and 17 were not bit-equal, all at N >= 5. At N <= 3 the sum
    has at most two terms, and relabeling is exact.
    """
    _require_smoothing(config)
    ens = init_ensemble(config, initial=initial)
    if noise is not None:
        noise = np.asarray(noise, dtype=float)
        want = (config.n_replicas, config.n_steps, config.n_particles, 2)
        if noise.shape != want:
            raise ValueError(f"noise has shape {noise.shape}, expected {want}")

    n, rows = config.n_particles, _drift_rows(config)

    def run_block(block: range) -> tuple[list[tuple[int, int]], float,
                                         int, int]:
        # the block's own workspace, sized at its largest step, its own
        # split history, one row written per step, and its own noise: no
        # step allocates anything that grows with m, and threads share
        # nothing
        work = _drift_workspace(len(block), n, rows)
        block_pos = ens.positions[block.start: block.stop]
        hist = None
        if config.params.chi != 0.0:
            hist = np.empty((len(block), 2, n, config.n_steps + 1))
            hist[..., 0] = block_pos[:, 0].transpose(0, 2, 1)
        # the replicas still stepping (`live`, indices into the block), their
        # positions, split history and noise: views of the block's until a
        # replica blows up, then copies compacted once at each blow-up, so
        # that no step gathers the survivors' histories
        live = np.arange(len(block))
        positions = block_pos
        d_w = (draw_noise(config, block) if noise is None
               else noise[block.start: block.stop])
        blowups, secs = [], 0.0
        for m in range(config.n_steps):
            if not len(live):
                break
            finite, drift_time = _euler_block(positions, hist, d_w[:, m], m,
                                              config, work)
            secs += drift_time
            if not finite.all():
                blowups.extend((block.start + int(r), m + 1)
                               for r in live[~finite])
                if positions is not block_pos:
                    block_pos[live] = positions
                live = live[finite]
                positions, d_w = positions[finite], d_w[finite]
                if hist is not None:
                    hist = hist[finite]
        if positions is not block_pos:
            block_pos[live] = positions
        buf, tiles = work
        return blowups, secs, buf.nbytes, len(tiles[0]) if rows else 0

    # a replica's temporaries: the kernel's dx and dy over its pairs or,
    # without drift, the noise drawn here (none when it is passed in)
    per_replica = 16 * n * (n - 1) * rows
    if not rows and noise is None:
        per_replica = 16 * n * config.n_steps
    blocks = budget_blocks(config.n_replicas, per_replica)
    workers = _resolve_threads()
    if workers > 1 and len(blocks) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_block, blocks))
    else:
        results = [run_block(block) for block in blocks]
    for blowups, secs, _, _ in results:
        ens.drift_seconds += secs
        ens.blowups.extend(blowups)
    ens.blowups.sort()
    # the first block is the largest: its workspace and its i-tiles
    _, _, nbytes, tile_rows = results[0]
    ens.counters.update(replica_blocks=len(blocks),
                        drift_workspace_bytes=nbytes,
                        drift_tile_rows=tile_rows)
    return ens


def _resolve_threads() -> int:
    """Worker threads for `run`: KSPP_THREADS, else 1 (also when invalid)."""
    env = os.environ.get("KSPP_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def frozen_drift_oracle(displacement, t: float, params: KernelParams) -> np.ndarray:
    """Drift integral int_0^t H_u(R) du for a constant displacement R.

    For lam = 0, eps = 0 this is the closed form
    -R e^(-theta|R|^2 / 4t) / (2 pi |R|^2); otherwise the radial weight is
    integrated by adaptive quadrature to absolute tolerance 1e-8.
    """
    from scipy.integrate import quad  # only this oracle needs scipy

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

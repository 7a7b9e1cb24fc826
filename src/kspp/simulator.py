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
from typing import NamedTuple

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

    Rows from a blow-up on are NaN; affected replicas are listed in
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


def _gauss_exponent(sq: np.ndarray, lags: np.ndarray, config: SimConfig,
                    out=None) -> np.ndarray:
    """max(-theta |d|^2 / 4u, -EXP_CLAMP) for squared lengths `sq` (..., L)
    at the lags u (L,), formed in `out` if given (it may be sq).

    The exponent of the kernel's Gaussian factor, written once:
    `_gauss_factor` takes its exp, and paper_moments' E3 takes the exp of
    p times it plus p log|d|. The sign is folded into the product,
    -theta |d|^2 / 4u clamped from below at -EXP_CLAMP: the same bits as
    negating after the clamp for every finite or infinite input, one
    elementwise pass fewer; only the sign bit of a NaN may differ."""
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.multiply(sq, -config.params.theta, out=out)
        a /= 4.0 * lags
        return np.maximum(a, -EXP_CLAMP, out=a)


def _gauss_factor(sq: np.ndarray, lags: np.ndarray, config: SimConfig,
                  out=None) -> np.ndarray:
    """e^(-min(theta |d|^2 / 4u, EXP_CLAMP)): the kernel's Gaussian factor,
    the exp of `_gauss_exponent` (same arguments), which the drift
    contraction weights by the lag weights."""
    a = _gauss_exponent(sq, lags, config, out=out)
    with np.errstate(over="ignore"):
        return np.exp(a, out=a)


def _history_sums(dx: np.ndarray, dy: np.ndarray, g: np.ndarray,
                  w: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """sum_l w_l e^(-theta|d_l|^2 / 4u_l) d_l for displacements d = (dx, dy).

    `dx`, `dy` and their Gaussian factors `g` (`_gauss_factor`) are
    (..., L), with the L history rows contiguous; returns the two
    coordinates of the sums, each (...), written into the two arrays of
    `out` if given (they may be strided views). The one drift
    contraction: g becomes the coefficients in place and each sum runs
    along one contiguous row, so its bits depend only on the row's length
    L, not on how the rows are laid out or gathered, nor on where the
    sums go.
    """
    out_x, out_y = (None, None) if out is None else out
    with np.errstate(over="ignore", invalid="ignore"):
        g *= w
        return (np.einsum("...l,...l->...", g, dx, out=out_x),
                np.einsum("...l,...l->...", g, dy, out=out_y))


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
    Both i and k step by the particle stride. The view is built by the
    ndarray constructor over `window`'s buffer, about 2 us a call, where
    `as_strided` took 7 us and `sliding_window_view`, with its argument
    checks, about 20 us. Both halves are copied from `h`: a copy within
    `window` is not proven free of overlap, and numpy buffers it first
    (twice the time).
    """
    n = h.shape[2]
    np.copyto(window[:, :, :n], h[..., l0:m])
    np.copyto(window[:, :, n:], h[:, :, : n - 1, l0:m])
    s0, s1, sp, sl = window.strides
    view = np.ndarray((*window.shape[:2], n, n - 1, window.shape[3]),
                      window.dtype, window, offset=sp,
                      strides=(s0, s1, sp, sp, sl))
    view.flags.writeable = False
    return view


def _mean_drifts(hist: np.ndarray, m: int, config: SimConfig,
                 work: tuple[np.ndarray, list[range]],
                 pair_sums: np.ndarray | None = None) -> np.ndarray:
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
    depend on the tiles bit for bit. Each tile's two einsums write the
    per-pair history sums straight into `pair_sums` (B, N, N - 1, 2), laid
    out (B, i, k, coordinate), which may be a view of `run`'s memo
    (`_drift_memo`); without it the call allocates one. D^{i,j}_m is
    -dt times these sums; at m = 0 nothing is formed and `pair_sums` is
    left as it is. Against the full N*N grid with the
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
    if pair_sums is None:
        pair_sums = np.empty((b, n, n - 1, 2))
    for tile in tiles:
        i = slice(tile.start, tile.stop)
        shape = (b, len(tile), n - 1, m - l0)
        _, d, sq = _views(buf, window_shape, (2, *shape), shape)
        dx, dy, sq = _pair_geometry(h[:, :, i, None, m, None],
                                    others[:, :, i], out=(d, sq))
        g = _gauss_factor(sq, lags, config, out=sq)
        _history_sums(dx, dy, g, w,
                      out=(pair_sums[:, i, :, 0], pair_sums[:, i, :, 1]))
    # summed over the other particles k, in cyclic order
    return -config.dt * pair_sums.sum(axis=2) / (n - 1)


def step_drifts(pos: np.ndarray, steps: range, config: SimConfig,
                work: tuple[np.ndarray, list[range]] | None = None,
                hist: np.ndarray | None = None,
                pair_sums: np.ndarray | None = None) -> np.ndarray:
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
    without it the call splits `pos` once. `pair_sums`, if given,
    (B, T', N, N - 1, 2) with T' > max(steps), takes the per-pair history
    sums of each step m at [:, m] (`_mean_drifts`).
    """
    b, _, n, _ = pos.shape
    out = np.empty((b, len(steps), n, 2))
    if work is None and len(steps):
        work = _drift_workspace(b, n, _drift_window(steps[-1], config))
    if hist is None:
        hist = _split_history(pos[:, : steps.stop])
    for k, m in enumerate(steps):
        out[:, k] = _mean_drifts(hist, m, config, work,
                                 None if pair_sums is None else pair_sums[:, m])
    if not config.source.is_zero:
        t = np.asarray(steps) * config.dt + config.params.epsilon
        _, grad_b = background_field(t[:, None], pos[:, steps.start: steps.stop],
                                     config.source, config.params)
        out += grad_b
    return out


def _euler_block(positions: np.ndarray, hist: np.ndarray | None,
                 d_w: np.ndarray, m: int, config: SimConfig,
                 work: tuple[np.ndarray, list[range]],
                 pair_sums: np.ndarray | None = None
                 ) -> tuple[np.ndarray, float]:
    """One Euler step m -> m+1 for every replica of a block.

    `positions` (B, T, N, 2) holds the block's replicas up to row m, and
    `hist` their split history (`_split_history`, (B, 2, N, T)), None
    without drift; `d_w` holds this step's increments, shape (B, N, 2);
    `work` is the drift workspace and its i-tiles for the block
    (`_drift_workspace`), and `pair_sums` (B, T, N, N - 1, 2), if given,
    takes the step's per-pair history sums at [:, m]. Writes row m+1 of
    every replica in `positions` and `hist`, all NaN for a replica with a
    non-finite coordinate, and returns (the mask of the replicas whose row
    is finite, drift seconds).
    A blown replica's NaN rows give NaN rows at every later step, and no
    other replica reads them.
    """
    p = config.params
    x = positions[:, m]
    drift_time = 0.0
    if p.chi != 0.0:
        t0 = time.perf_counter()
        drift = step_drifts(positions[:, : m + 1], range(m, m + 1), config,
                            work, hist, pair_sums)[:, 0]
        drift_time = time.perf_counter() - t0
        # overflow here is the blow-up signal, detected explicitly below
        with np.errstate(over="ignore", invalid="ignore"):
            x_new = x + math.sqrt(2.0) * d_w + p.chi * drift * config.dt
    else:
        x_new = x + math.sqrt(2.0) * d_w
    finite = np.isfinite(x_new).all(axis=(1, 2))
    if not finite.all():
        x_new[~finite] = np.nan
    positions[:, m + 1] = x_new
    if hist is not None:
        hist[..., m + 1] = x_new.transpose(0, 2, 1)
    return finite, drift_time


def _drift_rows(config: SimConfig) -> int:
    """History rows that bound every drift window of a run (0 without drift)."""
    if config.params.chi == 0.0:
        return 0
    return _drift_window(config.n_steps, config)


def _require_smoothing(config: SimConfig) -> None:
    if config.params.chi != 0.0 and config.params.epsilon <= 0:
        raise ValueError("the smoothed system requires epsilon > 0")


class DriftMemo(NamedTuple):
    """Per-pair drift history sums with the key they were formed under.

    `sums[r, m, i, k]` holds the two coordinates of the history sum
    (`_history_sums`) of the pair (i, (i + 1 + k) mod N) at step m, so that
    D^{i,j}_m = -dt sums, for every replica r of a `run`; its rows m = 0
    are 0.
    """

    config: SimConfig
    fingerprint: bytes          # `_fingerprint` of the whole positions array
    sums: np.ndarray            # (R, M + 1, N, N - 1, 2)


# The drift memo: one slot, filled by `run`, read by drift_domination_check
# and holder_modulus (see `run`). A module slot,
# not an argument, since callers such as the benchmark call `run` and the
# checks separately. It is replaced whole, so a concurrent reader sees one
# key with its own sums; a race can only empty it early, and the reader
# then runs its own pass.
_drift_memo: DriftMemo | None = None


def _fingerprint(positions: np.ndarray) -> bytes:
    """SHA-256 of `positions`: its shape, dtype and bytes, read in replica
    blocks of at most DRIFT_BUDGET_BYTES (a block is copied only when it is
    not contiguous). About 0.8 ms for pair_ensemble's 970 KB."""
    import hashlib   # here, so that `import kspp` does not load it
    digest = hashlib.sha256(repr((positions.shape, positions.dtype.str)).encode())
    for block in budget_blocks(len(positions), positions[:1].nbytes):
        digest.update(np.ascontiguousarray(positions[block.start: block.stop]))
    return digest.digest()


def run(config: SimConfig, initial: np.ndarray | None = None,
        noise: np.ndarray | None = None) -> TrajectoryEnsemble:
    """Integrate the full ensemble.

    `initial` (R, N, 2) and `noise` (R, n_steps, N, 2) override the stream
    draws when given (used by the permutation, mirror and epsilon-refinement
    studies); without `noise`, each block of replicas draws its own. Replicas
    are stepped in blocks (`budget_blocks`), one kernel call per block,
    step and i-tile (`_drift_workspace`); threads (KSPP_THREADS, default 1)
    take whole blocks. A replica that turns non-finite is recorded at its
    first non-finite row rather than raised; it steps on with its block as
    NaN rows, and a block whose replicas have all blown stops.

    The drift memo (`_drift_memo`): every call empties the slot. When
    chi != 0 and the per-pair history sums of all R replicas and the steps
    0..M, R (M + 1) N (N - 1) 16 bytes, fit DRIFT_BUDGET_BYTES, the kernel
    writes each step's sums straight into one array, each block forms step
    M's after its Euler steps (one kernel step more, counted in
    `drift_seconds`), and the slot then holds them, keyed by the config
    and a SHA-256 fingerprint of the whole positions array
    (`_fingerprint`). drift_domination_check and holder_modulus read their
    D there only under that key, with the bits their own pass forms, so a
    changed position or config never gives a stale result. The slot lives
    until holder_modulus takes it or the next `run` replaces it.

    Relabeling: applying one permutation of the particles to `initial` and
    `noise` permutes the paths to within 1e-12 (relative and absolute),
    not bit for bit, since the sum over the other particles j runs in
    cyclic order from i + 1 (`_mean_drifts`). Over 600 random
    configurations (N <= 9, <= 30 steps) the worst deviation was 2.2e-16
    absolute and 17 were not bit-equal, all at N >= 5. At N <= 3 the sum
    has at most two terms, and relabeling is exact.
    """
    global _drift_memo
    _require_smoothing(config)
    _drift_memo = None   # one set of sums at a time
    ens = init_ensemble(config, initial=initial)
    if noise is not None:
        noise = np.asarray(noise, dtype=float)
        want = (config.n_replicas, config.n_steps, config.n_particles, 2)
        if noise.shape != want:
            raise ValueError(f"noise has shape {noise.shape}, expected {want}")

    n, rows = config.n_particles, _drift_rows(config)
    r_n, m_n = config.n_replicas, config.n_steps
    sums = None   # the memo's per-pair history sums, when they fit
    if (config.params.chi != 0.0
            and 16 * r_n * (m_n + 1) * n * (n - 1) <= DRIFT_BUDGET_BYTES):
        sums = np.zeros((r_n, m_n + 1, n, n - 1, 2))

    def run_block(block: range) -> tuple[list[tuple[int, int]], float,
                                         int, int]:
        # the block's own workspace, sized at its largest step, its own
        # split history, one row written per step, and its own noise: no
        # step allocates anything that grows with m, and threads share
        # nothing
        work = _drift_workspace(len(block), n, rows)
        positions = ens.positions[block.start: block.stop]
        hist = None
        if config.params.chi != 0.0:
            hist = np.empty((len(block), 2, n, config.n_steps + 1))
            hist[..., 0] = positions[:, 0].transpose(0, 2, 1)
        d_w = (draw_noise(config, block) if noise is None
               else noise[block.start: block.stop])
        block_sums = None if sums is None else sums[block.start: block.stop]
        blown = np.zeros(len(block), dtype=bool)
        blowups, secs = [], 0.0
        for m in range(config.n_steps):
            finite, drift_time = _euler_block(positions, hist, d_w[:, m], m,
                                              config, work, block_sums)
            secs += drift_time
            if not finite.all():
                blowups.extend((block.start + int(r), m + 1)
                               for r in np.flatnonzero(~finite & ~blown))
                blown |= ~finite
                if blown.all():
                    break
        if block_sums is not None and not blown.all():
            # step M's sums, which no Euler step needs, for the memo
            t0 = time.perf_counter()
            _mean_drifts(hist, m_n, config, work, block_sums[:, m_n])
            secs += time.perf_counter() - t0
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
    if sums is not None:
        _drift_memo = DriftMemo(config, _fingerprint(ens.positions), sums)
    return ens


def _resolve_threads() -> int:
    """Worker threads for `run`: KSPP_THREADS, else 1 (also when invalid)."""
    env = os.environ.get("KSPP_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1

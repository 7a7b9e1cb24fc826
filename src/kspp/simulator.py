"""Euler-Maruyama integration of the smoothed N-particle system.

The drift on particle i at grid time t_m is the discrete time convolution

    (1/(N-1)) * sum_{j != i} sum_{l < m} H_(t_m - t_l)(X^i_m - X^j_l) * dt

over the full stored history (left-endpoint rule in the history variable;
the l = m endpoint is excluded and would contribute zero anyway, since the
smoothed kernel vanishes there). Noise and initial positions come from
counter-based Philox streams keyed by (seed, replica, particle), so runs
are bit-reproducible, per-replica prefixes are stable when the replica
count grows, and streams can be permuted or reused across configurations
(the epsilon-refinement study relies on reusing one noise array).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace

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


class BlowupError(RuntimeError):
    """A particle position became non-finite during integration."""

    def __init__(self, replica: int, step: int):
        super().__init__(f"non-finite position in replica {replica} at step {step}")
        self.replica = replica
        self.step = step


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


def draw_noise(config: SimConfig) -> np.ndarray:
    """Brownian increments (var dt per coordinate), shape (R, n_steps, N, 2)."""
    r_n, m, n = config.n_replicas, config.n_steps, config.n_particles
    if config.noise_mode == "zero" or m == 0:
        return np.zeros((r_n, m, n, 2))
    out = np.empty((r_n, m, n, 2))
    root_dt = math.sqrt(config.dt)
    select = _streams(config.seed, purpose=1)
    if config.noise_mode == "mirrored":
        w = np.empty((m, 2))
        for r in range(r_n):
            select(r, 0).standard_normal(out=w)
            np.multiply(w, root_dt, out=out[r, :, 0])
            np.negative(out[r, :, 0], out=out[r, :, 1])
        return out
    buf = np.empty((n, m, 2))
    for r in range(r_n):
        for i in range(n):
            select(r, i).standard_normal(out=buf[i])
        np.multiply(buf.transpose(1, 0, 2), root_dt, out=out[r])
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


# Byte budget of one drift temporary: the float64 pair displacements that one
# kernel call holds for a block of replicas. Batching saves the per-call
# overhead that dominates small systems; past a few MiB the temporary leaves
# the cache and a batched step runs slower per replica than a single one.
DRIFT_BUDGET_BYTES = 2 * 1024 * 1024


def replica_blocks(n_replicas: int, n_pairs: int, n_rows: int) -> list[range]:
    """Split replicas into blocks that one kernel call handles together.

    A block holds the most replicas whose displacement temporary over
    `n_rows` history rows and `n_pairs` pairs, 16 * n_pairs * n_rows bytes
    per replica, fits DRIFT_BUDGET_BYTES; never fewer than one.
    """
    per_replica = 16 * n_pairs * n_rows
    size = (max(1, DRIFT_BUDGET_BYTES // per_replica) if per_replica
            else n_replicas)
    return [range(lo, min(lo + size, n_replicas))
            for lo in range(0, n_replicas, size)]


def _pair_geometry(now: np.ndarray, past: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Displacements now - past by coordinate, dx and dy, and |.|^2.

    `now` and `past` broadcast against each other with the coordinate axis
    last; the three results have the broadcast shape without that axis.
    """
    # overflow on a replica that is blowing up is detected after its
    # Euler update, not here
    with np.errstate(over="ignore", invalid="ignore"):
        dx = now[..., 0] - past[..., 0]
        dy = now[..., 1] - past[..., 1]
        sq = dx * dx
        sq += dy * dy
    return dx, dy, sq


def _history_sums(dx: np.ndarray, dy: np.ndarray, sq: np.ndarray,
                  lags: np.ndarray, w: np.ndarray,
                  config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """sum_l w_l e^(-theta|d_l|^2 / 4u_l) d_l for displacements d = (dx, dy).

    `dx`, `dy` and their squared lengths `sq` are (..., L, K), as
    `_pair_geometry` gives them; returns the two coordinates of the sums,
    each (..., K). The one drift contraction: the coefficients are formed
    in a single buffer and the sum runs over the L history rows, so every
    caller that lays its displacements out row-major gets the same bits
    for the same displacements.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        c = sq * config.params.theta
        c /= 4.0 * lags[:, None]
        np.minimum(c, EXP_CLAMP, out=c)
        np.negative(c, out=c)
        np.exp(c, out=c)
        c *= w[:, None]
        return (np.einsum("...lk,...lk->...k", c, dx),
                np.einsum("...lk,...lk->...k", c, dy))


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
    l0, lags, w = _conv_weights(m, config)
    # take() keeps the gathered history row-major; the fancy index
    # [:, :, j_idx] would lay the pair axis out first in memory
    geometry = _pair_geometry(positions[:, m, i_idx][:, None],
                              positions[:, l0:m].take(j_idx, axis=2))
    return -config.dt * np.stack(_history_sums(*geometry, lags, w, config),
                                 axis=-1)


def _mean_drifts(pos: np.ndarray, m: int, config: SimConfig) -> np.ndarray:
    """(1/(N-1)) sum_{j != i} D^{i,j}_m for a block pos (B, m+1, N, 2), shape (B, N, 2).

    Contracts all N*N ordered pairs, the self pairs included, and subtracts
    the self pairs afterwards: the pair grid then needs no gather. The
    displacements are laid out (B, i, l, j) per coordinate; an (l, i, j)
    layout gives the same bits but ran about a third slower at N = 32
    (2-core Xeon, numpy 2.4).
    """
    b, _, n, _ = pos.shape
    if m == 0:
        return np.zeros((b, n, 2))
    l0, lags, w = _conv_weights(m, config)
    geometry = _pair_geometry(pos[:, m, :, None, None], pos[:, None, l0:m])
    sums = np.stack(_history_sums(*geometry, lags, w, config), axis=-1)  # (B, i, j, 2)
    total = sums.sum(axis=2) - sums[:, np.arange(n), np.arange(n)]
    return -config.dt * total / (n - 1)


def step_drifts(pos: np.ndarray, steps: range, config: SimConfig) -> np.ndarray:
    """Drift of every particle at the consecutive steps m in `steps`.

    The drift is the background gradient grad b(t_m + eps, X^i_m) plus the
    interaction mean (1/(N-1)) sum_{j != i} D^{i,j}_m, for a block `pos`
    (B, T, N, 2) with T > max(steps); shape (B, len(steps), N, 2). It is
    exactly what the Euler step scales by chi * dt, so estimators built on
    it see the integrator's own drift. The background is evaluated in one
    call over all the steps.
    """
    out = np.empty((pos.shape[0], len(steps), pos.shape[2], 2))
    for k, m in enumerate(steps):
        out[:, k] = _mean_drifts(pos[:, : m + 1], m, config)
    if not config.source.is_zero:
        t = np.asarray(steps) * config.dt + config.params.epsilon
        _, grad_b = background_field(t[:, None], pos[:, steps.start: steps.stop],
                                     config.source, config.params)
        out += grad_b
    return out


def _euler_block(positions: np.ndarray, d_w: np.ndarray, active: np.ndarray,
                 m: int, config: SimConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """One Euler step m -> m+1 for the replicas `active` (ascending indices).

    `d_w` holds this step's increments for every replica, shape (R, N, 2).
    Writes row m+1 of each replica that stays finite and returns
    (still active, blown, drift seconds); a blown replica's row stays NaN.
    """
    lo, hi = int(active[0]), int(active[-1]) + 1
    rows = slice(lo, hi) if hi - lo == len(active) else active
    p = config.params
    x = positions[rows, m]
    drift_time = 0.0
    if p.chi != 0.0:
        t0 = time.perf_counter()
        drift = step_drifts(positions[rows, : m + 1], range(m, m + 1),
                            config)[:, 0]
        drift_time = time.perf_counter() - t0
        # overflow here is the blow-up signal, detected explicitly below
        with np.errstate(over="ignore", invalid="ignore"):
            x_new = x + math.sqrt(2.0) * d_w[rows] + p.chi * drift * config.dt
    else:
        x_new = x + math.sqrt(2.0) * d_w[rows]
    finite = np.isfinite(x_new).all(axis=(1, 2))
    if finite.all():
        positions[rows, m + 1] = x_new
        return active, active[:0], drift_time
    positions[active[finite], m + 1] = x_new[finite]
    return active[finite], active[~finite], drift_time


def _drift_rows(config: SimConfig) -> int:
    """History rows that bound every drift window of a run (0 without drift)."""
    if config.params.chi == 0.0:
        return 0
    return config.n_steps - _history_start(config.n_steps, config)


def _require_smoothing(config: SimConfig) -> None:
    if config.params.chi != 0.0 and config.params.epsilon <= 0:
        raise ValueError("the smoothed system requires epsilon > 0")


def step(ensemble: TrajectoryEnsemble, m: int,
         noise: np.ndarray | None = None) -> TrajectoryEnsemble:
    """Advance every replica from step m to m+1 (in place).

    `noise` is the (R, N, 2) array of increments for this step; when None
    it is drawn from the per-(replica, particle) streams, rows 0..m only
    (the streams are prefix-stable). Raises BlowupError for the first
    replica whose row m+1 is non-finite, after stepping all of them.
    """
    config = ensemble.config
    if not 0 <= m < config.n_steps:
        raise ValueError(f"step index {m} outside [0, {config.n_steps})")
    _require_smoothing(config)
    if noise is None:
        noise = draw_noise(replace(config, n_steps=m + 1))[:, m]
    noise = np.asarray(noise, dtype=float)
    blown = []
    for block in replica_blocks(ensemble.n_replicas,
                                config.n_particles ** 2, _drift_rows(config)):
        _, lost, secs = _euler_block(ensemble.positions, noise,
                                     np.arange(block.start, block.stop), m,
                                     config)
        ensemble.drift_seconds += secs
        blown.extend(lost)
    if blown:
        raise BlowupError(int(blown[0]), m + 1)
    return ensemble


def run(config: SimConfig, initial: np.ndarray | None = None,
        noise: np.ndarray | None = None,
        n_threads: int | None = None) -> TrajectoryEnsemble:
    """Integrate the full ensemble.

    `initial` (R, N, 2) and `noise` (R, n_steps, N, 2) override the stream
    draws when given (used by the permutation, mirror and epsilon-refinement
    studies). Replicas are stepped in blocks (`replica_blocks`), one kernel
    call per block and step; threads take whole blocks. Blow-ups abort only
    their replica and are recorded rather than raised.

    Relabeling: applying one permutation of the particles to `initial` and
    `noise` permutes the paths to within 1e-12 (relative and absolute),
    not bit for bit, since the sum over the other particles j runs in
    label order. Over 600 random configurations (N <= 9, <= 30 steps) the
    worst deviation was 1.1e-16 absolute and 32 were not bit-equal.
    """
    _require_smoothing(config)
    ens = init_ensemble(config, initial=initial)
    if noise is None:
        noise = draw_noise(config)
    else:
        noise = np.asarray(noise, dtype=float)
        want = (config.n_replicas, config.n_steps, config.n_particles, 2)
        if noise.shape != want:
            raise ValueError(f"noise has shape {noise.shape}, expected {want}")

    def run_block(block: range) -> tuple[list[tuple[int, int]], float]:
        active = np.arange(block.start, block.stop)
        blowups, secs = [], 0.0
        for m in range(config.n_steps):
            if not len(active):
                break
            active, lost, drift_time = _euler_block(ens.positions, noise[:, m],
                                                    active, m, config)
            secs += drift_time
            blowups.extend((int(r), m + 1) for r in lost)
        return blowups, secs

    blocks = replica_blocks(config.n_replicas, config.n_particles ** 2,
                            _drift_rows(config))
    workers = _resolve_threads(n_threads)
    if workers > 1 and len(blocks) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_block, blocks))
    else:
        results = [run_block(block) for block in blocks]
    for blowups, secs in results:
        ens.drift_seconds += secs
        ens.blowups.extend(blowups)
    ens.blowups.sort()
    return ens


def _resolve_threads(n_threads: int | None) -> int:
    if n_threads is not None:
        return max(1, n_threads)
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

"""Trajectory files and the flat key-value run configuration format.

Trajectory CSV: header ``replica,particle,step,t,x,y``, one row per
(replica, particle, step), 17-significant-digit floats so a write/read
round trip is bit-exact.

Compact binary (KSW1): magic bytes ``KSW1``, then little-endian
u32 n_particles, u32 n_steps, u32 n_replicas, f64 dt, followed by f64
(x, y) pairs in (replica, step, particle) order; the time grid has
n_steps + 1 rows including step 0.

Config files are ``key = value`` lines ('#' starts a comment). Keys mirror
SimConfig; times are in model (nondimensional) units throughout.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .kernels import KernelParams, SourceSpec
from .simulator import InitSpec, SimConfig, TrajectoryEnsemble

CSV_HEADER = "replica,particle,step,t,x,y"
MAGIC = b"KSW1"
_HEADER = struct.Struct("<4sIIId")   # magic, n_particles, n_steps, n_replicas, dt


def write_trajectory_csv(path: str | Path, ensemble: TrajectoryEnsemble) -> None:
    pos = ensemble.positions
    dt = ensemble.config.dt
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in range(pos.shape[0]):
            for i in range(pos.shape[2]):
                for m in range(pos.shape[1]):
                    x, y = pos[r, m, i]
                    fh.write(f"{r},{i},{m},{m * dt:.17g},{x:.17g},{y:.17g}\n")


def read_trajectory_csv(path: str | Path) -> tuple[np.ndarray, float]:
    """Positions (R, M+1, N, 2) and dt from a trajectory CSV.

    The header must be CSV_HEADER exactly and at least one row must follow.
    Every field must hold a number; an empty field is a ValueError. Every
    (replica, particle, step) of the grid spanned by the largest indices
    must appear exactly once; a missing or duplicated row is a ValueError.
    The index fields must be non-negative integers, and dt is t / step of
    the first row with step > 0: a row whose t differs from step * dt by
    more than 1e-12 * max(1, |step * dt|) is a ValueError naming its data row.
    NaN coordinates (a blown replica's rows) are valid.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"{path}: header {header!r}, expected {CSV_HEADER!r}")
        if not fh.readline():
            raise ValueError(f"{path}: no trajectory rows after the header")
        fh.seek(0)
        try:
            data = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:   # an empty or non-numeric field
            raise ValueError(f"{path}: {exc}") from None
    if data.shape[1] != 6:
        raise ValueError(f"{path}: rows have {data.shape[1]} fields, expected 6")
    index = data[:, :3]
    bad = ~np.all(np.isfinite(index) & (index >= 0) & (index == np.floor(index)),
                  axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"{path}: data row {k + 1}: index fields {index[k].tolist()} "
                         "are not all non-negative integers")
    reps, parts, steps = index.astype(int).T
    shape = (reps.max() + 1, steps.max() + 1, parts.max() + 1)
    counts = np.bincount(np.ravel_multi_index((reps, steps, parts), shape),
                         minlength=math.prod(shape))
    missing = int(np.count_nonzero(counts == 0))
    duplicated = len(reps) - (counts.size - missing)
    if missing or duplicated:
        raise ValueError(f"{path}: incomplete trajectory grid: {missing} missing "
                         f"and {duplicated} duplicated rows of the {counts.size} "
                         "(replica, particle, step) rows")
    pos = np.full(shape + (2,), np.nan)
    pos[reps, steps, parts] = data[:, 4:]
    nonzero = steps > 0
    dt = float(data[nonzero, 3][0] / steps[nonzero][0]) if nonzero.any() else 0.0
    grid_t = steps * dt
    bad = ~(np.abs(data[:, 3] - grid_t) <= 1e-12 * np.maximum(1.0, np.abs(grid_t)))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"{path}: data row {k + 1}: t = {float(data[k, 3])!r} is not "
                         f"step * dt = {steps[k]} * {dt!r}")
    return pos, dt


def write_trajectory_bin(path: str | Path, ensemble: TrajectoryEnsemble) -> None:
    pos = ensemble.positions
    r_n, rows, n, _ = pos.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, n, rows - 1, r_n, ensemble.config.dt))
        fh.write(np.ascontiguousarray(pos, dtype="<f8").tobytes())


def read_trajectory_bin(path: str | Path) -> tuple[np.ndarray, float]:
    """Positions (R, M+1, N, 2) and dt from a KSW1 file.

    A file shorter than the 24-byte header, with another magic or with a
    payload that does not match the header is a ValueError.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated KSW1 header: {len(raw)} of "
                         f"{_HEADER.size} bytes")
    magic, n, steps, r_n, dt = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"{path}: not a KSW1 trajectory file")
    body = np.frombuffer(raw[_HEADER.size:], dtype="<f8")
    expected = r_n * (steps + 1) * n * 2
    if body.size != expected:
        raise ValueError(f"{path}: payload has {body.size} doubles, expected {expected}")
    return body.reshape(r_n, steps + 1, n, 2).astype(float), dt


def _parse_source(text: str) -> SourceSpec:
    """'w,cx,cy,var; w,cx,cy,var; ...' -> SourceSpec ('' or 'none' -> zero)."""
    text = text.strip()
    if not text or text.lower() == "none":
        return SourceSpec()
    comps = []
    for chunk in text.split(";"):
        vals = [float(v) for v in chunk.split(",")]
        if len(vals) != 4:
            raise ValueError(f"source component needs 4 numbers (w,cx,cy,var): {chunk!r}")
        comps.append((vals[0], (vals[1], vals[2]), vals[3]))
    return SourceSpec(components=tuple(comps))


def _format_source(source: SourceSpec) -> str:
    if source.is_zero:
        return "none"
    return "; ".join(f"{w:.17g},{c[0]:.17g},{c[1]:.17g},{v:.17g}"
                     for w, c, v in source.components)


_CONFIG_KEYS = ("theta", "lambda", "chi", "epsilon", "p", "n_particles", "dt",
                "n_steps", "n_replicas", "seed", "init", "init_center",
                "init_sigma", "init_radius", "history_cutoff", "noise_mode",
                "source")


def parse_config(text: str) -> SimConfig:
    """Build a SimConfig from flat key-value text; unknown keys are errors."""
    void = object()
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        raw[key] = value

    def get(key: str, default=void, conv=float):
        if key not in raw:
            if default is void:
                raise ValueError(f"missing required config key {key!r}")
            return default
        return conv(raw[key])

    params = KernelParams(
        theta=get("theta"),
        lam=get("lambda", 0.0),
        chi=get("chi", 1.0),
        epsilon=get("epsilon", 0.0),
        p=get("p", 4.0),
    )
    center = tuple(float(v) for v in get("init_center", "0,0", str).split(","))
    if len(center) != 2:
        raise ValueError("init_center needs two comma-separated numbers")
    init = InitSpec(
        kind=get("init", "point", str),
        center=center,  # type: ignore[arg-type]
        sigma=get("init_sigma", 1.0),
        radius=get("init_radius", 1.0),
    )
    cutoff_raw = raw.get("history_cutoff", "").strip().lower()
    cutoff = None if cutoff_raw in ("", "none") else float(cutoff_raw)
    return SimConfig(
        params=params,
        source=_parse_source(raw.get("source", "")),
        n_particles=get("n_particles", 2, int),
        dt=get("dt", 1e-2),
        n_steps=get("n_steps", 100, int),
        n_replicas=get("n_replicas", 1, int),
        seed=get("seed", 0, int),
        init=init,
        history_cutoff=cutoff,
        noise_mode=get("noise_mode", "standard", str),
    )


def format_config(config: SimConfig) -> str:
    """Render a SimConfig back to the flat key-value format."""
    p = config.params
    lines = [
        f"theta = {p.theta:.17g}",
        f"lambda = {p.lam:.17g}",
        f"chi = {p.chi:.17g}",
        f"epsilon = {p.epsilon:.17g}",
        f"p = {p.p:.17g}",
        f"n_particles = {config.n_particles}",
        f"dt = {config.dt:.17g}",
        f"n_steps = {config.n_steps}",
        f"n_replicas = {config.n_replicas}",
        f"seed = {config.seed}",
        f"init = {config.init.kind}",
        f"init_center = {config.init.center[0]:.17g},{config.init.center[1]:.17g}",
        f"init_sigma = {config.init.sigma:.17g}",
        f"init_radius = {config.init.radius:.17g}",
        "history_cutoff = " + ("none" if config.history_cutoff is None
                               else f"{config.history_cutoff:.17g}"),
        f"noise_mode = {config.noise_mode}",
        f"source = {_format_source(config.source)}",
    ]
    return "\n".join(lines) + "\n"


def load_config(path: str | Path) -> SimConfig:
    return parse_config(Path(path).read_text())

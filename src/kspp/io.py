"""Trajectory files and the flat key-value run configuration format.

Trajectory CSV: header ``replica,particle,step,t,x,y``, one row per
(replica, particle, step) in that order (step fastest), 17-significant-digit
floats so a write/read round trip is bit-exact.

Compact binary (KSW1): magic bytes ``KSW1``, then little-endian
u32 n_particles, u32 n_steps, u32 n_replicas, f64 dt, followed by f64
(x, y) pairs in (replica, step, particle) order; the time grid has
n_steps + 1 rows including step 0.

Config files are ``key = value`` lines ('#' starts a comment). Keys mirror
SimConfig; times are in model (nondimensional) units throughout.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np

from .kernels import KernelParams, SourceSpec
from .simulator import SimConfig, TrajectoryEnsemble

CSV_HEADER = "replica,particle,step,t,x,y"
MAGIC = b"KSW1"
_HEADER = struct.Struct("<4sIIId")   # magic, n_particles, n_steps, n_replicas, dt


def write_trajectory_csv(path: str | Path, ensemble: TrajectoryEnsemble) -> None:
    """Write the ensemble's rows in (replica, particle, step) order.

    One (replica, particle) block is formatted at a time from a template
    whose step and time fields are formatted once per call; a NUL
    character stands for the block's "replica,particle," prefix. The
    coordinates go through Python floats, whose %.17g is that of
    np.float64 (nan, -0 and inf too).
    """
    pos = ensemble.positions
    r_n, rows, n, _ = pos.shape
    dt = ensemble.config.dt
    block = "".join(f"\0{m},{m * dt:.17g},%.17g,%.17g\n" for m in range(rows))
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in range(r_n):
            coords = pos[r].transpose(1, 0, 2).reshape(n, 2 * rows).tolist()
            for i, xy in enumerate(coords):
                fh.write(block.replace("\0", f"{r},{i},") % tuple(xy))


def read_trajectory_csv(path: str | Path) -> tuple[np.ndarray, float]:
    """Positions (R, M+1, N, 2) and dt from a trajectory CSV.

    The header must be CSV_HEADER exactly and at least one row must follow.
    Every field must hold a number; an empty field is a ValueError. Every
    (replica, particle, step) of the grid spanned by the largest indices
    must appear exactly once; a missing or duplicated row is a ValueError.
    The index fields must be non-negative integers, and dt is t / step of
    the first row with step > 0, which must be finite and > 0 as a KSW1
    header's dt (a file of step-0 rows alone reads dt = 0): a row whose t
    differs from step * dt by more than 1e-12 * max(1, |step * dt|) is a
    ValueError naming its data row. NaN coordinates (a blown replica's
    rows) are valid.

    Memory: the checks run in place on the parsed table (48 B a row),
    beside a row mask, one float64 scratch row, the int64 flat
    (replica, step, particle) index, which scatters the rows in any order,
    and the grid's int64 row counts. The peak, while the rows are
    scattered, is about 17 B a row past the table and the result (16 B a
    row).
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
    rows = len(data)
    # a row is good while each index field is finite, >= 0 and its own
    # floor; each test is written only where the row is still good
    good = np.ones(rows, bool)
    scratch = np.empty(rows)
    for c in range(3):
        col = data[:, c]
        np.less(col, math.inf, out=good, where=good)
        np.greater_equal(col, 0.0, out=good, where=good)
        np.equal(col, np.floor(col, out=scratch), out=good, where=good)
    if not good.all():
        k = int(np.argmin(good))
        raise ValueError(f"{path}: data row {k + 1}: index fields "
                         f"{data[k, :3].tolist()} are not all non-negative integers")
    # the (replica, step, particle) grid, sized in Python ints: no overflow
    shape = tuple(int(data[:, c].max()) + 1 for c in (0, 2, 1))
    size = math.prod(shape)
    if rows < size:
        # too few rows: counted without sizing anything by the largest
        # indices, which may be far larger than the file
        distinct = len(np.unique(data[:, :3], axis=0))
    else:
        # every index is below size <= rows, so the float sums are exact
        np.multiply(data[:, 0], shape[1], out=scratch)
        scratch += data[:, 2]
        scratch *= shape[2]
        scratch += data[:, 1]
        flat = scratch.astype(np.int64)
        distinct = int(np.count_nonzero(np.bincount(flat, minlength=size)))
    missing, duplicated = size - distinct, rows - distinct
    if missing or duplicated:
        raise ValueError(f"{path}: incomplete trajectory grid: {missing} missing "
                         f"and {duplicated} duplicated rows of the {size} "
                         "(replica, particle, step) rows")
    pos = np.empty(shape + (2,))   # each of its rows is written once
    pos.reshape(size, 2)[flat] = data[:, 4:]
    del flat
    steps, times = data[:, 2], data[:, 3]
    dt = 0.0
    if steps.any():
        k = int(np.argmax(steps > 0))
        dt = float(times[k] / steps[k])
        if not 0 < dt < math.inf:   # also rejects NaN
            raise ValueError(f"{path}: data row {k + 1}: t = {float(times[k])!r} "
                             f"at step {int(steps[k])} gives dt = {dt!r}, "
                             "not finite and > 0")
    # x is in pos now: its column holds |t - step * dt|, and scratch
    # 1e-12 * max(1, |step * dt|)
    grid_t = np.multiply(steps, dt, out=scratch)
    err = np.subtract(times, grid_t, out=data[:, 4])
    np.abs(err, out=err)
    np.abs(grid_t, out=scratch)
    np.maximum(scratch, 1.0, out=scratch)
    scratch *= 1e-12
    ok = np.less_equal(err, scratch)
    if not ok.all():
        k = int(np.argmin(ok))
        raise ValueError(f"{path}: data row {k + 1}: t = {float(times[k])!r} is not "
                         f"step * dt = {int(steps[k])} * {dt!r}")
    return pos, dt


def write_trajectory_bin(path: str | Path, ensemble: TrajectoryEnsemble) -> None:
    pos = ensemble.positions
    r_n, rows, n, _ = pos.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, n, rows - 1, r_n, ensemble.config.dt))
        fh.write(np.ascontiguousarray(pos, dtype="<f8").tobytes())


def read_trajectory_bin(path: str | Path) -> tuple[np.ndarray, float]:
    """Positions (R, M+1, N, 2) and dt from a KSW1 file.

    A file shorter than the 24-byte header, with another magic, with a
    header dt that is not finite and > 0 or with a payload of other than
    16 * R * (M+1) * N bytes is a ValueError. The payload is read straight
    into the returned array, its one copy, after the header has been
    checked against the file's size.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"{path}: truncated KSW1 header: {len(head)} of "
                             f"{_HEADER.size} bytes")
        magic, n, steps, r_n, dt = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ValueError(f"{path}: not a KSW1 trajectory file")
        if not 0 < dt < math.inf:  # also rejects NaN
            raise ValueError(f"{path}: KSW1 header dt = {dt!r} is not finite and > 0")
        expected = r_n * (steps + 1) * n * 2
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != 8 * expected:
            raise ValueError(f"{path}: payload has {size} bytes, expected "
                             f"{8 * expected} ({expected} doubles)")
        body = np.fromfile(fh, dtype="<f8", count=expected)
    if body.size != expected:   # the file shrank while it was read
        raise ValueError(f"{path}: payload has {body.size} doubles, expected {expected}")
    return body.reshape(r_n, steps + 1, n, 2).astype(float, copy=False), dt


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


def _g17(value: float) -> str:
    return f"{value:.17g}"


def _parse_pair(text: str) -> tuple[float, float]:
    pair = tuple(float(v) for v in text.split(","))
    if len(pair) != 2:
        raise ValueError("needs two comma-separated numbers")
    return pair  # type: ignore[return-value]


def _parse_optional(text: str) -> float | None:
    return None if text.lower() in ("", "none") else float(text)


# One row per config key, in file order: the part of SimConfig that owns the
# field ("" for SimConfig itself), the field, and its conversions from and
# to text. A key left out takes the dataclass default.
_CONFIG = {
    "theta": ("params", "theta", float, _g17),
    "lambda": ("params", "lam", float, _g17),
    "chi": ("params", "chi", float, _g17),
    "epsilon": ("params", "epsilon", float, _g17),
    "p": ("params", "p", float, _g17),
    "n_particles": ("", "n_particles", int, str),
    "dt": ("", "dt", float, _g17),
    "n_steps": ("", "n_steps", int, str),
    "n_replicas": ("", "n_replicas", int, str),
    "seed": ("", "seed", int, str),
    "init": ("init", "kind", str, str),
    "init_center": ("init", "center", _parse_pair, lambda c: f"{c[0]:.17g},{c[1]:.17g}"),
    "init_sigma": ("init", "sigma", float, _g17),
    "init_radius": ("init", "radius", float, _g17),
    "history_cutoff": ("", "history_cutoff", _parse_optional,
                       lambda v: "none" if v is None else _g17(v)),
    "noise_mode": ("", "noise_mode", str, str),
    "source": ("", "source", _parse_source, _format_source),
}
_CONFIG_KEYS = tuple(_CONFIG)


def parse_config(text: str) -> SimConfig:
    """Build a SimConfig from flat key-value text; unknown keys are errors.

    A key given twice keeps its last value. A value that does not convert is
    a ValueError naming its line and key.
    """
    raw: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        raw[key] = (lineno, value)
    # a dataclass field's default is its class attribute: a KernelParams
    # field without one is required
    for key, (owner, name, _, _) in _CONFIG.items():
        if owner == "params" and key not in raw and not hasattr(KernelParams, name):
            raise ValueError(f"missing required config key {key!r}")
    given: dict[str, dict] = {"params": {}, "init": {}, "": {}}
    for key, (lineno, value) in raw.items():
        owner, name, parse, _ = _CONFIG[key]
        try:
            given[owner][name] = parse(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: config key {key!r}: {exc}") from None
    # the class attribute SimConfig.init is the default initial law
    return SimConfig(params=KernelParams(**given["params"]),
                     init=replace(SimConfig.init, **given["init"]), **given[""])


def format_config(config: SimConfig) -> str:
    """Render a SimConfig back to the flat key-value format."""
    parts = {"params": config.params, "init": config.init, "": config}
    return "".join(f"{key} = {fmt(getattr(parts[owner], name))}\n"
                   for key, (owner, name, _, fmt) in _CONFIG.items())


def load_config(path: str | Path) -> SimConfig:
    return parse_config(Path(path).read_text())

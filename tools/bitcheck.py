"""Bit-identity check of the simulator, paper_moments and the chi* search.

Usage:
    python tools/bitcheck.py                  # one SHA-256 per output
    python tools/bitcheck.py --against TREE   # compare with another checkout

Each configuration of a fixed matrix is simulated with `run` and estimated
with `paper_moments`; its outputs are `run`'s positions, blow-ups and
counters (`replica_blocks`, `drift_workspace_bytes`, `drift_tile_rows`),
the per-replica arrays E1, E2, E3, E4, S and S_bar and the count
`divergent_terms`. The ensemble that `paper_moments` sees is also
written as a trajectory CSV and a KSW1 file and read back: the bytes of
each file, and the positions and dt each reader returns, are outputs
too. So are the drift-domination check (checked, violations, worst
margin, excluded) and the Hoelder check (z_hat, bound, excluded), each
on `run`'s drift memo and on a copy without it, and the per-replica
Ito-balance and martingale residuals. Each (theta, p) of the Remark 6.1
table adds `chi_star`'s threshold, best gamma and best alpha and its
audit trail, in order; the table's small-theta row also adds `chi_for`
at its fixed point. One row runs its estimators and files under a small
DRIFT_BUDGET_BYTES (`BUDGETS`), so that every pass runs in one-replica
blocks, and paper_moments and the domination check in several i-tiles.
One row is simulated in two replica blocks on KSPP_THREADS = `THREADS`
worker threads, and one with its noise drawn and passed in, one
increment infinite, so that `run` records a blow-up. The digest of an
output is the SHA-256 of its values as an int64 array (the bits of the
float64s, or the integers themselves), or of a file's bytes, so two
trees agree on an output exactly when their digests do.

With --against, the same matrix also runs on TREE's package (TREE/src on
the path) in a subprocess, and every output that differs is listed with its
worst relative deviation |a - b| / |b|, b from TREE. The exit status is 0
when nothing differs, 1 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

HERE = Path(__file__).resolve().parents[1]
MOMENTS = ("E1", "E2", "E3", "E4", "S", "S_bar")
BYTES = ("csv", "ksw1")   # outputs that are a file's bytes
COUNTERS = ("replica_blocks", "drift_workspace_bytes", "drift_tile_rows")
# outputs that are integers
INTEGERS = ("divergent_terms", "blowups", *COUNTERS)
# the (theta, p) of the Remark 6.1 rows, and the small-theta fixed point
THRESHOLDS = ((1e-6, 4.0), (0.1, 2.61), (1.0, 3.31), (10.0, 3.51),
              (1e4, 3.51))
FIXED_POINT = dict(gamma=1.5 + 1e-3, alpha=0.13e-6, theta=1e-6, p=4.0)
# rows whose outputs after `run` are formed under this DRIFT_BUDGET_BYTES:
# one replica a block, and i-tiles of one row in paper_moments and the
# domination check
BUDGETS = {"N5-tiled": 3000}
# the worker threads of the row whose `run` steps two replica blocks
THREADS = "2"


def matrix(S, E, kernels):
    """(name, run's positions, ensemble, estimator params) for every
    configuration: N = 2, 3, 8 and 32 with lambda > 0; a history cutoff; a
    source; a replica with NaN rows from a step on, as `run` leaves a blown
    one; a horizon below M; a pinned pair, which gives divergent terms; a
    cutoff whose estimators run in tiles (`BUDGETS`); two replica blocks
    stepped on `THREADS` threads; noise passed in, with one infinite
    increment. The blown and pinned rows edit the positions `run`
    returned, after a copy."""
    params = kernels.KernelParams(theta=1.0, lam=0.2, chi=0.9, epsilon=0.05)
    ep = E.EstimatorParams(gamma=1.62, alpha=0.045, delta=0.1)

    def config(n, steps, replicas, seed, **kw):
        return S.SimConfig(params=params, n_particles=n, dt=0.02,
                           n_steps=steps, n_replicas=replicas, seed=seed,
                           init=S.InitSpec("gaussian", sigma=1.0), **kw)

    rows = []
    for n, steps, replicas in ((2, 40, 4), (3, 30, 3), (8, 20, 3),
                               (32, 16, 2)):
        ens = S.run(config(n, steps, replicas, n))
        rows.append((f"N{n}", ens.positions, ens, ep))
    ens = S.run(config(5, 24, 3, 11, history_cutoff=0.1))
    rows.append(("N5-cutoff", ens.positions, ens, ep))
    source = kernels.SourceSpec(components=((1.0, (0.5, 0.0), 1.0),
                                            (0.5, (-1.0, 0.5), 0.5)))
    ens = S.run(config(8, 20, 2, 12, source=source))
    rows.append(("N8-source", ens.positions, ens, ep))
    blown = S.run(config(8, 20, 3, 13))
    ran = blown.positions.copy()
    blown.positions[1, 9:] = math.nan
    rows.append(("N8-blown", ran, blown, ep))
    ens = S.run(config(3, 30, 3, 14))
    rows.append(("N3-horizon", ens.positions, ens,
                 dataclasses.replace(ep, horizon=17 * 0.02)))
    pinned = S.run(config(3, 20, 3, 15))
    ran = pinned.positions.copy()
    pinned.positions[0, 6:, 1] = pinned.positions[0, 6:, 0]
    pinned.positions[2, :, 2] = pinned.positions[2, :, 0]
    rows.append(("N3-pinned", ran, pinned, ep))
    ens = S.run(config(5, 24, 4, 16, history_cutoff=0.1))
    rows.append(("N5-tiled", ens.positions, ens, ep))
    # a budget of two replicas' dx and dy (and no drift memo, which needs
    # more): two blocks of two, one a thread
    with mock.patch.object(S, "DRIFT_BUDGET_BYTES", 2 * 16 * 5 * 4 * 24), \
            mock.patch.dict(os.environ, {"KSPP_THREADS": THREADS}):
        ens = S.run(config(5, 24, 4, 18))
    rows.append(("N5-threads", ens.positions, ens, ep))
    cfg = config(3, 20, 3, 17)
    noise = S.draw_noise(cfg)
    noise[1, 8, 2, 0] = math.inf   # replica 1 blows up at row 9
    ens = S.run(cfg, noise=noise)
    rows.append(("N3-noise", ens.positions, ens, ep))
    return rows


def outputs(src: Path) -> dict:
    """{row name: {output: list of values}} for the package under `src`;
    ImportError if kspp comes from anywhere else."""
    sys.path.insert(0, str(src))
    import kspp
    from kspp import constants, estimators as E, io, kernels, simulator as S
    if Path(kspp.__file__).resolve().parent != (src / "kspp").resolve():
        raise ImportError(f"kspp was imported from {kspp.__file__}, "
                          f"not from {src}")
    got = {}
    for name, positions, ens, ep in matrix(S, E, kernels):
        with mock.patch.object(S, "DRIFT_BUDGET_BYTES",
                               BUDGETS.get(name, S.DRIFT_BUDGET_BYTES)):
            rep = E.paper_moments(ens, ep)
            got[name] = {"positions": positions.ravel().tolist(),
                         "blowups": [v for pair in ens.blowups for v in pair]}
            got[name].update({out: [ens.counters[out]] for out in COUNTERS})
            got[name].update({out: rep.estimates[out].per_replica.tolist()
                              for out in MOMENTS})
            got[name]["divergent_terms"] = [rep.divergent_terms]
            got[name].update(trajectory_files(io, ens))
            got[name].update(checks(E, ens, ep))
    for theta, p in THRESHOLDS:
        res = constants.chi_star(theta, p)
        got[f"chi*({theta:g},{p:g})"] = {
            "chi_star": [res.chi_star], "best_gamma": [res.best_gamma],
            "best_alpha": [res.best_alpha],
            "audit": [v for triple in res.audit for v in triple]}
    sp = constants.StructuralParams(**FIXED_POINT)
    got[f"chi*({sp.theta:g},{sp.p:g})"]["chi_for"] = [constants.chi_for(sp)]
    return got


def checks(E, ens, ep) -> dict:
    """The drift-domination and Hoelder checks on the ensemble as it is,
    which reads `run`'s drift memo when the memo matches, and on a copy
    without the memo, which forms its own drifts; the per-replica
    Ito-balance residuals (one bootstrap resample) and the per-replica
    martingale residuals from half the horizon to the horizon."""
    got = {}
    for route, target in (("", ens), ("_miss", dataclasses.replace(ens))):
        dom = E.drift_domination_check(target, ep)
        got[f"domination{route}"] = [dom.checked, dom.violations,
                                     dom.worst_margin, dom.excluded]
        hold = E.holder_modulus(target, ep)
        got[f"holder{route}"] = [*hold.z_hat, *hold.bound, hold.excluded]
    got["ito"] = E.ito_balance_check(ens, ep, n_boot=1).per_replica.tolist()
    dt = ens.config.dt
    m_t = ens.n_steps if ep.horizon is None else round(ep.horizon / dt)
    got["martingale"] = E.martingale_residual(
        ens, None, ("const",), s=m_t // 2 * dt, t=m_t * dt).per_replica.tolist()
    return got


def trajectory_files(io, ens) -> dict:
    """The bytes of `ens` as a trajectory CSV and as a KSW1 file, and the
    positions and dt that each reader returns."""
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fmt, write, read in (
                ("csv", io.write_trajectory_csv, io.read_trajectory_csv),
                ("ksw1", io.write_trajectory_bin, io.read_trajectory_bin)):
            path = Path(tmp) / f"trajectory.{fmt}"
            write(path, ens)
            positions, dt = read(path)
            got[fmt] = list(path.read_bytes())
            got[f"{fmt}_positions"] = positions.ravel().tolist()
            got[f"{fmt}_dt"] = [dt]
    return got


def digest(values, name: str) -> str:
    if name in BYTES:
        return hashlib.sha256(bytes(values)).hexdigest()
    dtype = np.int64 if name in INTEGERS else np.float64
    return hashlib.sha256(np.asarray(values, dtype).view(np.int64)).hexdigest()


def deviation(a: list, b: list) -> float:
    """The worst |a - b| / |b| over the values: inf where they differ
    against b = 0, in NaN-ness, against an infinity or in their number."""
    if len(a) != len(b):
        return math.inf
    worst = 0.0
    for x, y in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        rel = abs(x - y) / abs(y) if y else math.inf
        worst = max(worst, rel if rel < math.inf else math.inf)   # NaN: inf
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", type=Path, metavar="TREE",
                    help="a checkout to compare with, run in a subprocess")
    ap.add_argument("--dump", type=Path, metavar="SRC",
                    help=argparse.SUPPRESS)   # the subprocess's mode
    args = ap.parse_args(argv)
    if args.dump:
        json.dump(outputs(args.dump), sys.stdout)
        return 0

    mine = outputs(HERE / "src")
    if args.against is None:
        for name, row in mine.items():
            for out, values in row.items():
                print(f"{name:16} {out:16} {digest(values, out)}")
        return 0

    theirs = json.loads(subprocess.run(
        [sys.executable, __file__, "--dump", str(args.against / "src")],
        check=True, capture_output=True, text=True).stdout)
    differ = total = 0
    for name, row in mine.items():
        for out, a in row.items():
            b = theirs[name][out]
            total += 1
            if digest(a, out) != digest(b, out):
                differ += 1
                print(f"{name:16} {out:16} differs, worst relative "
                      f"deviation {deviation(a, b):.3g}")
    print(f"{differ} of {total} outputs differ")
    return int(differ > 0)


if __name__ == "__main__":
    sys.exit(main())

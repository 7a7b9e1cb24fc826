"""Bit-identity check of the simulator, paper_moments and the chi* search.

Usage:
    python tools/bitcheck.py                  # one SHA-256 per output
    python tools/bitcheck.py --against TREE   # compare with another checkout

Each configuration of a fixed matrix is simulated with `run` and estimated
with `paper_moments`; its outputs are `run`'s positions, the per-replica
arrays E1, E2, E3, E4, S and S_bar and the count `divergent_terms`. Each
(theta, p) of the Remark 6.1 table adds `chi_star`'s threshold, best
gamma and best alpha and its audit trail, in order; the table's
small-theta row also adds `chi_for` at its fixed point. The digest of an
output is the SHA-256 of its values as an int64 array (the bits of the
float64s), so two trees agree on an output exactly when their digests do.

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
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
MOMENTS = ("E1", "E2", "E3", "E4", "S", "S_bar")
# the (theta, p) of the Remark 6.1 rows, and the small-theta fixed point
THRESHOLDS = ((1e-6, 4.0), (0.1, 2.61), (1.0, 3.31), (10.0, 3.51),
              (1e4, 3.51))
FIXED_POINT = dict(gamma=1.5 + 1e-3, alpha=0.13e-6, theta=1e-6, p=4.0)


def matrix(S, E, kernels):
    """(name, run's positions, ensemble, estimator params) for every
    configuration: N = 2, 3, 8 and 32 with lambda > 0; a history cutoff; a
    source; a replica with NaN rows from a step on, as `run` leaves a blown
    one; a horizon below M; a pinned pair, which gives divergent terms.
    The last two edit the positions `run` returned, after a copy."""
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
    return rows


def outputs(src: Path) -> dict:
    """{row name: {output: list of values}} for the package under `src`;
    ImportError if kspp comes from anywhere else."""
    sys.path.insert(0, str(src))
    import kspp
    from kspp import constants, estimators as E, kernels, simulator as S
    if Path(kspp.__file__).resolve().parent != (src / "kspp").resolve():
        raise ImportError(f"kspp was imported from {kspp.__file__}, "
                          f"not from {src}")
    got = {}
    for name, positions, ens, ep in matrix(S, E, kernels):
        rep = E.paper_moments(ens, ep)
        got[name] = {"positions": positions.ravel().tolist()}
        got[name].update({out: rep.estimates[out].per_replica.tolist()
                          for out in MOMENTS})
        got[name]["divergent_terms"] = [rep.divergent_terms]
    for theta, p in THRESHOLDS:
        res = constants.chi_star(theta, p)
        got[f"chi*({theta:g},{p:g})"] = {
            "chi_star": [res.chi_star], "best_gamma": [res.best_gamma],
            "best_alpha": [res.best_alpha],
            "audit": [v for triple in res.audit for v in triple]}
    sp = constants.StructuralParams(**FIXED_POINT)
    got[f"chi*({sp.theta:g},{sp.p:g})"]["chi_for"] = [constants.chi_for(sp)]
    return got


def digest(values, name: str) -> str:
    dtype = np.int64 if name == "divergent_terms" else np.float64
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

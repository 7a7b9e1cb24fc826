"""Bit-identity check of paper_moments over a fixed matrix of configurations.

Usage:
    python tools/bitcheck.py                  # one SHA-256 per output
    python tools/bitcheck.py --against TREE   # compare with another checkout

Each configuration is simulated with `run` and estimated with
`paper_moments`; its outputs are the per-replica arrays E1, E2, E3, E4, S
and S_bar and the count `divergent_terms`. The digest of an output is the
SHA-256 of its values as an int64 array (the bits of the float64s), so two
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
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
OUTPUTS = ("E1", "E2", "E3", "E4", "S", "S_bar", "divergent_terms")


def matrix(S, E, kernels):
    """(name, ensemble, estimator params) for every configuration: N = 2,
    3, 8 and 32 with lambda > 0; a history cutoff; a source; a replica with
    NaN rows from a step on, as `run` leaves a blown one; a horizon below
    M; a pinned pair, which gives divergent terms."""
    params = kernels.KernelParams(theta=1.0, lam=0.2, chi=0.9, epsilon=0.05)
    ep = E.EstimatorParams(gamma=1.62, alpha=0.045, delta=0.1)

    def config(n, steps, replicas, seed, **kw):
        return S.SimConfig(params=params, n_particles=n, dt=0.02,
                           n_steps=steps, n_replicas=replicas, seed=seed,
                           init=S.InitSpec("gaussian", sigma=1.0), **kw)

    rows = []
    for n, steps, replicas in ((2, 40, 4), (3, 30, 3), (8, 20, 3),
                               (32, 16, 2)):
        rows.append((f"N{n}", S.run(config(n, steps, replicas, n)), ep))
    rows.append(("N5-cutoff",
                 S.run(config(5, 24, 3, 11, history_cutoff=0.1)), ep))
    source = kernels.SourceSpec(components=((1.0, (0.5, 0.0), 1.0),
                                            (0.5, (-1.0, 0.5), 0.5)))
    rows.append(("N8-source",
                 S.run(config(8, 20, 2, 12, source=source)), ep))
    blown = S.run(config(8, 20, 3, 13))
    blown.positions[1, 9:] = math.nan
    rows.append(("N8-blown", blown, ep))
    rows.append(("N3-horizon", S.run(config(3, 30, 3, 14)),
                 dataclasses.replace(ep, horizon=17 * 0.02)))
    pinned = S.run(config(3, 20, 3, 15))
    pinned.positions[0, 6:, 1] = pinned.positions[0, 6:, 0]
    pinned.positions[2, :, 2] = pinned.positions[2, :, 0]
    rows.append(("N3-pinned", pinned, ep))
    return rows


def outputs(src: Path) -> dict:
    """{config name: {output: list of values}} for the
    package under `src`; ImportError if kspp comes from anywhere else."""
    sys.path.insert(0, str(src))
    import kspp
    from kspp import estimators as E, kernels, simulator as S
    if Path(kspp.__file__).resolve().parent != (src / "kspp").resolve():
        raise ImportError(f"kspp was imported from {kspp.__file__}, "
                          f"not from {src}")
    got = {}
    for name, ens, ep in matrix(S, E, kernels):
        rep = E.paper_moments(ens, ep)
        got[name] = {out: [float(v) for v in rep.estimates[out].per_replica]
                     for out in OUTPUTS[:-1]}
        got[name]["divergent_terms"] = [rep.divergent_terms]
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
            for out in OUTPUTS:
                print(f"{name:12} {out:16} {digest(row[out], out)}")
        return 0

    theirs = json.loads(subprocess.run(
        [sys.executable, __file__, "--dump", str(args.against / "src")],
        check=True, capture_output=True, text=True).stdout)
    differ = 0
    for name, row in mine.items():
        for out in OUTPUTS:
            a, b = row[out], theirs[name][out]
            if digest(a, out) != digest(b, out):
                differ += 1
                print(f"{name:12} {out:16} differs, worst relative "
                      f"deviation {deviation(a, b):.3g}")
    total = len(mine) * len(OUTPUTS)
    print(f"{differ} of {total} outputs differ")
    return int(differ > 0)


if __name__ == "__main__":
    sys.exit(main())

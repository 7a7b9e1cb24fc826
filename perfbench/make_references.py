"""Regenerate references.json: paper_moments of interacting_swarm per pool seed.

    python3 perfbench/make_references.py

The references are the outputs of the program at the commit that defines
the benchmark. Regenerate them only in a change that deliberately changes
these results, and say there why they moved.
"""

from __future__ import annotations

import json
import sys

import pipeline as pl

# Relative tolerance of the reference comparison. Perturbing every drift
# value by 1e-12 relative moved the moments by at most 2e-14 (seeds 0-2),
# so reordering the kernel's sums (1e-16) passes; scaling the kernel by
# 1.01 moved every moment by at least 1.2e-5, so a wrong kernel fails.
REL_TOL = 1e-9


def main() -> int:
    mods = pl.import_kspp()
    out = {"rel_tol": REL_TOL, "interacting_swarm": {}}
    for size in pl.SIZES:
        table = {}
        for seed in pl.SEED_POOL:
            cfgs = pl.build_configs("interacting_swarm", size, seed, mods[2])
            it = pl.Iteration()
            # the pipeline only: its checks need the references
            pl.run_interacting_swarm(pl.Recorder(traced=False), it, mods,
                                     cfgs, None, None)
            table[str(seed)] = {name: it.values[name] for name in pl.MOMENT_NAMES}
            print(size, seed, table[str(seed)], file=sys.stderr)
        out["interacting_swarm"][size] = table
    pl.REFERENCES.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One iteration of a benchmark workload, in a fresh interpreter.

`run.py` starts this script once per iteration, so every iteration meets
the state a `kspp` CLI invocation meets: a fresh import of the package, an
empty `constants._c0_cached`, and first-call costs in numpy and scipy.

Protocol on standard output:
  1. the line ``READY`` once the package is imported and the workload's
     configurations are built (the parent times set-up up to this line);
  2. one JSON object with the stage timings, the speed-probe time, the
     computed counters, the per-layer metrics (traced iterations only), the
     correctness checks, a digest of every output and the spans (traced
     iterations only).

The package is imported from ``src/`` of the checkout that holds this
file; an installed copy elsewhere is refused.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
REFERENCES = Path(__file__).resolve().parent / "references.json"

WORKLOADS = ("interacting_swarm", "pair_ensemble", "brownian_residuals")
SIZES = ("full", "quick")
# --seed n selects the simulation seed SEED_POOL[n mod len(SEED_POOL)].
# Every entry has stored paper_moments references (references.json).
# Seed 20 is left out: its 99% Ito-residual CI excludes 0, a chance
# rejection (over seeds 0-31 the residual mean is -0.00013 +- 0.00092),
# and a benchmark input must not fail a check of a correct program.
SEED_POOL = tuple(s for s in range(32) if s != 20)

# (gamma, alpha) of every estimator call: the Remark 6.1 optimum for p = 3.31
GAMMA, ALPHA = 1.62, 0.045
SWARM_THETA, SWARM_P = 1.0, 3.31
REMARK61_CHI_STAR = 1.39
MOMENT_NAMES = ("E1", "E2", "E3", "E4", "S", "S_bar")
VARIANCE_RATIO_RANGE = (2.5, 6.0)

# (n_particles, n_steps, n_replicas) per size
SHAPES = {
    "interacting_swarm": {"full": (32, 200, 2), "quick": (8, 20, 2)},
    "pair_ensemble": {"full": (2, 100, 300), "quick": (2, 20, 8)},
    "brownian_ito": {"full": (2, 128, 500), "quick": (2, 16, 40)},
    "brownian_mart_16": {"full": (16, 64, 500), "quick": (16, 16, 40)},
    "brownian_mart_64": {"full": (64, 64, 500), "quick": (64, 16, 40)},
}

PER_LAYER = (
    "simulator.draw_initial_s", "simulator.draw_noise_s", "simulator.streams",
    "simulator.run_s", "simulator.drift_s", "simulator.euler_s",
    "simulator.pair_history_evals", "simulator.pair_history_evals_per_s",
    "simulator.drift_temp_bytes_max", "simulator.replica_steps",
    "simulator.blowups",
    "estimators.paper_moments_s", "estimators.drift_domination_check_s",
    "estimators.holder_modulus_s", "estimators.ito_balance_check_s",
    "estimators.martingale_residual_s", "estimators.pair_history_terms",
    "estimators.pair_history_terms_per_s", "estimators.nonfinite_values",
    "io.write_trajectory_csv_s", "io.read_trajectory_csv_s",
    "io.write_trajectory_bin_s", "io.read_trajectory_bin_s", "io.rows",
    "io.csv_bytes", "io.ksw1_bytes", "io.csv_write_mb_per_s",
    "constants.chi_star_s", "constants.chi_for_calls",
    "constants.chi_for_per_s",
)
# layer calls whose summed span durations become the "<name>_s" metrics
TIMED_CALLS = (
    "simulator.draw_initial", "simulator.draw_noise", "simulator.run",
    "estimators.paper_moments", "estimators.drift_domination_check",
    "estimators.holder_modulus", "estimators.ito_balance_check",
    "estimators.martingale_residual",
    "io.write_trajectory_csv", "io.read_trajectory_csv",
    "io.write_trajectory_bin", "io.read_trajectory_bin",
    "constants.chi_star",
)


# The speed probe: a fixed mix of numpy and interpreter work that takes about
# PROBE_REF_S on the reference machine (README). That machine's CPU speed
# drifts by up to 1.6x over minutes; timings are scaled by
# PROBE_REF_S / probe time so that runs made at different moments compare.
PROBE_UNITS = 2000
PROBE_REF_S = 0.25


def speed_probe() -> float:
    """Seconds the probe's fixed work takes now (no kspp code runs)."""
    import numpy as np
    x = np.random.default_rng(0).standard_normal((16, 50, 16, 2))
    start = time.perf_counter()
    for _ in range(PROBE_UNITS):
        np.exp(-np.einsum("iljc,iljc->ilj", x, x)).sum()
        sum({i: i * 0.5 for i in range(300)}.values())
    return time.perf_counter() - start


def import_kspp():
    """Import kspp from this checkout's src/ and return its modules."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import kspp
    from kspp import constants, estimators, io, simulator
    if Path(kspp.__file__).resolve().parent != (src / "kspp").resolve():
        raise ImportError(f"kspp was imported from {kspp.__file__}, "
                          f"not from {src}")
    return constants, estimators, io, simulator


class Recorder:
    """Stage timers (always on) and layer spans (only when tracing).

    A span is (id, parent, name, start, end) with times in seconds from
    the recorder's creation; the iteration root span has parent None,
    stage spans hang off the root and layer-call spans off their stage.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.origin = time.perf_counter()
        self.stage_s: dict[str, float] = {}
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.traced:
            yield
            return
        record = {"id": len(self.spans),
                  "parent": self._open[-1] if self._open else None,
                  "name": name,
                  "start": time.perf_counter() - self.origin, "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter() - self.origin

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            with self.span("stage." + name):
                yield
        finally:
            self.stage_s[name] = (self.stage_s.get(name, 0.0)
                                  + time.perf_counter() - start)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def call_seconds(self) -> dict[str, float]:
        """Summed span duration per layer-call name."""
        out: dict[str, float] = {}
        for s in self.spans:
            if not s["name"].startswith(("stage.", "iteration")):
                out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out


class Iteration:
    """Outputs, counters and checks of one pipeline iteration."""

    def __init__(self):
        self.counters = {name: 0 for name in (
            "simulator.streams", "simulator.pair_history_evals",
            "simulator.drift_temp_bytes_max", "simulator.replica_steps",
            "simulator.blowups", "estimators.pair_history_terms",
            "estimators.nonfinite_values", "io.rows", "io.csv_bytes",
            "io.ksw1_bytes", "constants.chi_for_calls")}
        self.drift_s = 0.0           # program-reported drift_seconds
        self.replicas = 0
        self.checks: list[dict] = []
        self.digest = hashlib.sha256()
        self.values: dict[str, float] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def absorb(self, array) -> None:
        self.digest.update(array.tobytes())

    def nonfinite(self, *arrays) -> None:
        import numpy as np
        for a in arrays:
            self.counters["estimators.nonfinite_values"] += int(
                np.size(a) - np.count_nonzero(np.isfinite(a)))


def config_text(name: str, size: str, seed: int, chi: float, dt: float,
                extra: str = "") -> str:
    """Flat key-value config, the format `kspp simulate --config` reads."""
    n, m, r = SHAPES[name][size]
    return (f"theta = 1\nchi = {chi!r}\nn_particles = {n}\ndt = {dt!r}\n"
            f"n_steps = {m}\nn_replicas = {r}\nseed = {seed}\n"
            f"init = gaussian\ninit_sigma = 1\n{extra}")


def build_configs(workload: str, size: str, seed: int, io) -> dict:
    """Parse the workload's configurations (part of set-up)."""
    if workload == "interacting_swarm":
        extra = (f"lambda = 0.1\nepsilon = 0.05\np = {SWARM_P!r}\n"
                 "source = 0.5,-1,0,0.5; 0.5,1,0,0.5\n")
        texts = {"swarm": config_text("interacting_swarm", size, seed, 1.0,
                                      0.01, extra)}
    elif workload == "pair_ensemble":
        texts = {"pair": config_text("pair_ensemble", size, seed, 1.0, 0.01,
                                     "epsilon = 0.05\n")}
    else:
        n_ito = SHAPES["brownian_ito"][size][1]
        n_mart = SHAPES["brownian_mart_16"][size][1]
        texts = {"ito": config_text("brownian_ito", size, seed, 0.0,
                                    1.0 / n_ito),
                 "mart_16": config_text("brownian_mart_16", size, seed, 0.0,
                                        1.0 / n_mart),
                 "mart_64": config_text("brownian_mart_64", size, seed, 0.0,
                                        1.0 / n_mart)}
    return {key: io.parse_config(text) for key, text in texts.items()}


def simulate(rec: Recorder, it: Iteration, simulator, cfg):
    """draw_initial + draw_noise + run, bit-identical to run(cfg) alone."""
    initial = rec.call("simulator.draw_initial", simulator.draw_initial, cfg)
    noise = rec.call("simulator.draw_noise", simulator.draw_noise, cfg)
    ens = rec.call("simulator.run", simulator.run, cfg, initial=initial,
                   noise=noise)
    n, m, r = cfg.n_particles, cfg.n_steps, cfg.n_replicas
    c = it.counters
    random_init = cfg.init.kind in ("gaussian", "uniform_disk")
    c["simulator.streams"] += r * n * (random_init + (cfg.noise_mode != "zero"))
    c["simulator.replica_steps"] += r * m
    c["simulator.blowups"] += len(ens.blowups)
    if cfg.params.chi != 0.0:
        # _mean_drift at step m touches (N, m - l0, N) pair-history points;
        # no workload sets a history cutoff, so l0 = 0
        c["simulator.pair_history_evals"] += r * n * n * (m * (m - 1) // 2)
        c["simulator.drift_temp_bytes_max"] = max(
            c["simulator.drift_temp_bytes_max"], 16 * n * n * max(m - 1, 0))
    it.drift_s += ens.drift_seconds
    it.replicas += r
    it.absorb(ens.positions)
    return ens


def tri(m: int) -> int:
    """Terms of sum_{k=1}^{m} sum_{l<k}: the u-exclusive double sums."""
    return m * (m + 1) // 2


def run_interacting_swarm(rec, it, mods, cfgs, refs, work_dir):
    constants, estimators, io, simulator = mods
    cfg = cfgs["swarm"]
    with rec.stage("threshold"):
        thr = rec.call("constants.chi_star", constants.chi_star,
                       SWARM_THETA, SWARM_P)
    it.counters["constants.chi_for_calls"] += len(thr.audit)
    with rec.stage("simulate"):
        ens = simulate(rec, it, simulator, cfg)
    with rec.stage("estimate"):
        report = rec.call("estimators.paper_moments", estimators.paper_moments,
                          ens, estimators.EstimatorParams(gamma=GAMMA,
                                                          alpha=ALPHA))
    n, m, r = cfg.n_particles, cfg.n_steps, cfg.n_replicas
    pairs = n * (n - 1)
    # E1: (m + 1) same-time terms; E2, E3, E4: u-exclusive double sums;
    # S, S_bar: m history terms each
    it.counters["estimators.pair_history_terms"] += r * pairs * (
        (m + 1) + 3 * tri(m) + 2 * m)
    it.values["chi_star"] = thr.chi_star
    for name in MOMENT_NAMES:
        it.values[name] = report.estimates[name].value
        it.nonfinite(report.estimates[name].per_replica)

    def checks():
        it.check("no_blowups", not ens.blowups, f"{len(ens.blowups)} blown")
        it.check("chi_star_remark61", thr.chi_star >= REMARK61_CHI_STAR,
                 f"chi*({SWARM_THETA:g},{SWARM_P:g}) = {thr.chi_star!r}")
        it.check("chi_admissible", cfg.params.chi <= thr.chi_star,
                 f"chi = {cfg.params.chi!r}")
        tol = refs["rel_tol"]
        for name in MOMENT_NAMES:
            value = it.values[name]
            ref = refs["values"][str(cfg.seed)][name]
            ok = math.isfinite(value) and abs(value - ref) <= tol * abs(ref)
            it.check(f"moment_{name}", ok, f"{value!r} vs reference {ref!r}")
    return checks


def run_pair_ensemble(rec, it, mods, cfgs, refs, work_dir):
    constants, estimators, io, simulator = mods
    cfg = cfgs["pair"]
    with rec.stage("simulate"):
        ens = simulate(rec, it, simulator, cfg)
    csv_path = work_dir / "trajectory.csv"
    bin_path = work_dir / "trajectory.ksw1"
    with rec.stage("io"):
        rec.call("io.write_trajectory_csv", io.write_trajectory_csv, csv_path, ens)
        csv_pos, csv_dt = rec.call("io.read_trajectory_csv",
                                   io.read_trajectory_csv, csv_path)
        rec.call("io.write_trajectory_bin", io.write_trajectory_bin, bin_path, ens)
        bin_pos, bin_dt = rec.call("io.read_trajectory_bin",
                                   io.read_trajectory_bin, bin_path)
    ep = estimators.EstimatorParams(gamma=GAMMA, alpha=ALPHA)
    with rec.stage("estimate"):
        dom = rec.call("estimators.drift_domination_check",
                       estimators.drift_domination_check, ens, ep)
        hold = rec.call("estimators.holder_modulus",
                        estimators.holder_modulus, ens, ep)
    n, m, r = cfg.n_particles, cfg.n_steps, cfg.n_replicas
    c = it.counters
    c["io.rows"] += r * n * (m + 1)
    c["io.csv_bytes"] += csv_path.stat().st_size
    c["io.ksw1_bytes"] += bin_path.stat().st_size
    # domination: D and S, m terms each, per (pair, step m);
    # Hoelder: D of the N - 1 pairs (0, j) plus the (s < t) grid pairs
    c["estimators.pair_history_terms"] += r * (
        n * (n - 1) * 2 * tri(m) + (n - 1) * tri(m) + tri(m))
    it.nonfinite([dom.worst_margin], hold.z_hat, hold.bound)
    it.values["worst_margin"] = dom.worst_margin
    it.values["holder_z_max"] = float(max(hold.z_hat))

    def checks():
        import numpy as np
        it.check("no_blowups", not ens.blowups, f"{len(ens.blowups)} blown")
        it.check("csv_roundtrip_exact",
                 np.array_equal(csv_pos, ens.positions) and csv_dt == cfg.dt,
                 f"{c['io.rows']} rows")
        it.check("ksw1_roundtrip_exact",
                 np.array_equal(bin_pos, ens.positions) and bin_dt == cfg.dt)
        it.check("domination_no_violations", dom.violations == 0,
                 f"{dom.violations} of {dom.checked}, "
                 f"worst {dom.worst_margin!r}")
        it.check("holder_ok", hold.ok,
                 f"max z/bound {float(max(hold.z_hat / hold.bound))!r}")
    return checks


def run_brownian_residuals(rec, it, mods, cfgs, refs, work_dir):
    constants, estimators, io, simulator = mods
    ep = estimators.EstimatorParams(gamma=GAMMA, alpha=ALPHA)
    c = it.counters

    cfg = cfgs["ito"]
    with rec.stage("simulate"):
        ens = simulate(rec, it, simulator, cfg)
    with rec.stage("estimate"):
        ito = rec.call("estimators.ito_balance_check",
                       estimators.ito_balance_check, ens, ep,
                       f_spec="gaussian-bump")
    n, m, r = cfg.n_particles, cfg.n_steps, cfg.n_replicas
    # chi = 0: lhs and t1 are single time sums, t2 the s <= u double sum
    c["estimators.pair_history_terms"] += r * n * (n - 1) * (
        2 * (m + 1) + (m + 1) * (m + 2) // 2)
    del ens

    variances = {}
    for key in ("mart_16", "mart_64"):
        cfg = cfgs[key]
        with rec.stage("simulate"):
            ens = simulate(rec, it, simulator, cfg)
        with rec.stage("estimate"):
            res = rec.call("estimators.martingale_residual",
                           estimators.martingale_residual, ens, None,
                           ("const",), s=0.5, t=1.0)
        n, m, r = cfg.n_particles, cfg.n_steps, cfg.n_replicas
        # chi = 0: one generator term per (particle, step) of [s, t]
        c["estimators.pair_history_terms"] += r * n * (m // 2 + 1)
        variances[cfg.n_particles] = res.variance
        it.nonfinite(res.per_replica)
        del ens
    it.nonfinite(ito.per_replica)
    ratio = variances[16] / variances[64]
    it.values["ito_mean"] = ito.mean
    it.values["variance_ratio"] = ratio

    def checks():
        it.check("ito_ci_contains_zero", ito.passes,
                 f"99% CI [{ito.ci_low!r}, {ito.ci_high!r}]")
        lo, hi = VARIANCE_RATIO_RANGE
        it.check("variance_ratio_16_64", lo <= ratio <= hi,
                 f"{ratio!r} in [{lo:g}, {hi:g}]")
    return checks


# Each runner executes its workload's pipeline, which the caller times, and
# returns a function that runs the checks outside the timed region.
RUNNERS = {
    "interacting_swarm": run_interacting_swarm,
    "pair_ensemble": run_pair_ensemble,
    "brownian_residuals": run_brownian_residuals,
}


def layer_metrics(rec: Recorder, it: Iteration) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    secs = rec.call_seconds()
    out: dict[str, float] = {f"{name}_s": secs.get(name, 0.0)
                             for name in TIMED_CALLS}
    out.update(it.counters)
    out["simulator.drift_s"] = it.drift_s
    out["simulator.euler_s"] = out["simulator.run_s"] - it.drift_s

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    out["simulator.pair_history_evals_per_s"] = rate(
        it.counters["simulator.pair_history_evals"], it.drift_s)
    est_s = sum(v for k, v in secs.items() if k.startswith("estimators."))
    out["estimators.pair_history_terms_per_s"] = rate(
        it.counters["estimators.pair_history_terms"], est_s)
    out["io.csv_write_mb_per_s"] = rate(
        it.counters["io.csv_bytes"] / 1e6, out["io.write_trajectory_csv_s"])
    out["constants.chi_for_per_s"] = rate(
        it.counters["constants.chi_for_calls"], out["constants.chi_star_s"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=SIZES, default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mods = import_kspp()
    sim_seed = SEED_POOL[args.seed % len(SEED_POOL)]
    cfgs = build_configs(args.workload, args.size, sim_seed, mods[2])
    refs = None
    if args.workload == "interacting_swarm":
        stored = json.loads(REFERENCES.read_text())
        refs = {"rel_tol": stored["rel_tol"],
                "values": stored["interacting_swarm"][args.size]}
    print("READY", flush=True)

    rec = Recorder(traced=bool(args.trace))
    it = Iteration()
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{args.workload}-{args.seed}"
    work_dir.mkdir(exist_ok=True)
    try:
        probe_before = speed_probe()
        start = time.perf_counter()
        with rec.span("iteration"):
            checks = RUNNERS[args.workload](rec, it, mods, cfgs, refs, work_dir)
        wall_s = time.perf_counter() - start
        probe_after = speed_probe()
        checks()                 # outside the timed region
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = it.replicas + len(it.checks)
    failed = it.counters["simulator.blowups"] + sum(not c["ok"] for c in it.checks)
    result = {
        "workload": args.workload, "seed": args.seed, "sim_seed": sim_seed,
        "size": args.size, "traced": bool(args.trace),
        "wall_s": wall_s, "stage_s": rec.stage_s,
        "probe_s": (probe_before + probe_after) / 2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops, "ops_failed": failed, "checks": it.checks,
        "values": it.values, "digest": it.digest.hexdigest(),
        "layers": layer_metrics(rec, it) if args.trace else None,
        "spans": rec.spans if args.trace else None,
        "versions": versions(),
    }
    print(json.dumps(result), flush=True)
    return 0


def versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


if __name__ == "__main__":
    sys.exit(main())

"""Command-line orchestration: experiments, verification suites, tables.

Modes: simulate, estimate, threshold, verify-inequality, verify-kernels,
martingale-test, epsilon-study. Exit codes: 0 success, 1 verification
failure, 2 configuration/usage error, 3 integration blow-up (partial
artifacts are still written; `estimate` also returns 3 when it leaves out
replicas with non-finite positions read from a trajectory file). CSV
artifacts are byte-identical for a fixed config and seed; wall-clock
timings go only into run_meta.json.

The KSPP_THREADS environment variable sets the worker threads of every
replica pass, the simulator's and every estimator's; threads take whole
replica blocks, and no result depends on their count. JSON artifacts are
strict JSON: non-finite numbers are written as null.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, constants, estimators, funineq, io, kernels, simulator


def _null_nonfinite(value):
    """`value` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {k: _null_nonfinite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_nonfinite(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path: Path, payload: dict) -> None:
    """Write strict JSON: NaN and infinities become null."""
    payload = _null_nonfinite(dict(payload))
    payload["version"] = __version__
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               allow_nan=False) + "\n")


def _load_config(args: argparse.Namespace) -> simulator.SimConfig:
    cfg = io.load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _timed(timings: dict[str, float], name: str, fn, *args):
    """fn(*args), with its wall-clock seconds stored as timings[name]."""
    start = time.perf_counter()
    result = fn(*args)
    timings[name] = time.perf_counter() - start
    return result


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def _mode_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = args.out
    timings: dict[str, float] = {}
    ens = _timed(timings, "run", simulator.run, cfg)
    fmt = args.format
    if fmt in ("csv", "both"):
        _timed(timings, "write_csv", io.write_trajectory_csv,
               out / "trajectory.csv", ens)
    if fmt in ("bin", "both"):
        _timed(timings, "write_bin", io.write_trajectory_bin,
               out / "trajectory.ksw1", ens)
    (out / "config_resolved.txt").write_text(io.format_config(cfg))
    _write_json(out / "run_meta.json", {
        "mode": "simulate",
        "config": io.format_config(cfg),
        "rng": ens.rng_provenance,
        "blowups": ens.blowups,
        "drift_seconds": ens.drift_seconds,
        "counters": ens.counters,
        "timings": timings,
    })
    if ens.blowups:
        print(f"blow-up in replicas {sorted({r for r, _ in ens.blowups})}",
              file=sys.stderr)
        return 3
    print(f"simulate: wrote {cfg.n_replicas} replicas x {cfg.n_steps} steps "
          f"x {cfg.n_particles} particles to {out}")
    return 0


def _mode_estimate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = args.out
    blowups: list = []
    if args.trajectory:
        path = Path(args.trajectory)
        if path.suffix == ".ksw1":
            positions, dt = io.read_trajectory_bin(path)
        else:
            positions, dt = io.read_trajectory_csv(path)
        # a file of step-0 rows carries no dt; the horizon check rejects it
        if (positions.shape[1] > 1
                and abs(dt - cfg.dt) > 1e-12 * max(1.0, cfg.dt)):
            raise ValueError(f"trajectory dt={dt} does not match config dt={cfg.dt}")
        cfg = dataclasses.replace(cfg, n_replicas=positions.shape[0],
                                n_steps=positions.shape[1] - 1,
                                n_particles=positions.shape[2])
        ens = simulator.TrajectoryEnsemble(
            positions=positions, config=cfg,
            rng_provenance={"seed": cfg.seed, "scheme": "external-trajectory"})
    else:
        ens = simulator.run(cfg)
        blowups = ens.blowups
    ep = estimators.EstimatorParams(
        gamma=args.gamma, alpha=args.alpha,
        delta=args.delta, horizon=args.horizon)
    report = estimators.paper_moments(ens, ep)
    _write_json(out / "report.json", report.to_json_dict())
    names = list(report.estimates)
    with open(out / "per_replica.csv", "w") as fh:
        fh.write("replica," + ",".join(names) + "\n")
        for k, r in enumerate(report.replicas):
            row = ",".join(f"{report.estimates[n].per_replica[k]:.17g}" for n in names)
            fh.write(f"{r},{row}\n")
    for name in names:
        est = report.estimates[name]
        print(f"{name}: {est.value:.6g} +- {est.stderr:.3g}")
    if report.divergent_terms:
        print(f"divergent terms excluded: {report.divergent_terms}")
    if report.excluded:
        print(f"non-finite replicas excluded: {report.excluded}")
    return 3 if blowups or report.excluded else 0


_REMARK_ROWS = (
    # scenario label, theta, p, claimed bound(s)
    ("small-theta-fixed-point", 1e-6, 4.0, 3.27, 3.30),
    ("theta-0.1", 0.1, 2.61, 2.42, None),
    ("theta-1", 1.0, 3.31, 1.39, None),
    ("theta-10", 10.0, 3.51, 0.51, None),
    ("large-theta-scaled", 1e4, 3.51, 1.60, None),
)


def remark61_table() -> tuple[str, bool]:
    """Five-scenario threshold table as CSV text, plus the overall verdict.

    The small-theta row evaluates the fixed near-degenerate point
    (gamma, alpha) = (1.5 + 1e-3, 0.13e-6) directly; the large-theta row
    reports sqrt(theta) * chi_star; the middle rows are plain chi_star
    optimizations at the quoted (theta, p).
    """
    lines = ["scenario,theta,p,gamma,alpha,computed,target_low,target_high,pass"]
    all_ok = True
    for name, theta, p, lo, hi in _REMARK_ROWS:
        if name == "small-theta-fixed-point":
            sp = constants.StructuralParams(gamma=1.5 + 1e-3, alpha=0.13e-6,
                                            theta=theta, p=p)
            computed = constants.chi_for(sp)
            gamma, alpha = sp.gamma, sp.alpha
        else:
            res = constants.chi_star(theta, p)
            gamma, alpha = res.best_gamma, res.best_alpha
            computed = res.chi_star
            if name == "large-theta-scaled":
                computed = math.sqrt(theta) * computed
        ok = computed >= lo and (hi is None or computed <= hi)
        all_ok = all_ok and ok
        hi_txt = "" if hi is None else f"{hi}"
        lines.append(f"{name},{theta:g},{p:g},{gamma:.8g},{alpha:.8g},"
                     f"{computed:.8g},{lo},{hi_txt},{'pass' if ok else 'FAIL'}")
    return "\n".join(lines) + "\n", all_ok


def _mode_threshold(args: argparse.Namespace) -> int:
    out = args.out
    if args.remark61:
        table, ok = remark61_table()
        (out / "remark61.csv").write_text(table)
        print(table, end="")
        return 0 if ok else 1
    theta, p = args.theta, args.p
    res = constants.chi_star(theta, p)
    csv_text = ("theta,p,chi_star,best_gamma,best_alpha\n"
                f"{theta:.8g},{p:.8g},{res.chi_star:.8g},"
                f"{res.best_gamma:.8g},{res.best_alpha:.8g}\n")
    (out / "threshold.csv").write_text(csv_text)
    print(csv_text, end="")
    return 0


def inequality_suite(cases: int, seed: int) -> dict:
    """Functional-inequality checks: the random sweep of `cases` step
    functions (`seed`), the largest |ratio - kappa| of the extremal profile
    over a 10 x 10 (a, b) grid at three profile scales, and the hinge
    tightness ratios for eps = 1e-1..1e-4 (a = 1/2, b = 1, t = 1). The
    caller applies its own checks."""
    sweep = funineq.random_sweep(cases, seed)
    grid_err = 0.0
    for a in np.linspace(0.1, 2.0, 10):
        for off in np.linspace(0.1, 1.0, 10):
            b = a + off
            k_ref = constants.kappa(float(a), float(b))
            for k in (0.1, 1.0, 10.0):
                _, _, ratio = funineq.extremal_profile(k, float(a), float(b))
                grid_err = max(grid_err, abs(ratio - k_ref))
    return {"sweep": sweep, "extremal_grid_max_err": grid_err,
            "tightness_ratios": funineq.tightness_scan(
                [1e-1, 1e-2, 1e-3, 1e-4], 0.5, 1.0, 1.0)}


def _mode_verify_inequality(args: argparse.Namespace) -> int:
    suite = inequality_suite(args.cases, args.seed)
    sweep, grid_err = suite["sweep"], suite["extremal_grid_max_err"]
    ratios = suite["tightness_ratios"]
    monotone = all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))
    ok = (sweep.violations == 0 and grid_err < 1e-9 and monotone)
    print(f"random sweep: cases={sweep.cases} evaluated={sweep.evaluated} "
          f"divergent={sweep.divergent} violations={sweep.violations} "
          f"worst_ratio={sweep.worst_ratio:.12f}")
    print(f"extremal-profile max |ratio - kappa| = {grid_err:.3g}")
    print(f"tightness ratios (eps 1e-1..1e-4): "
          + " ".join(f"{r:.6f}" for r in ratios)
          + (" (increasing)" if monotone else " (NOT increasing)"))
    _write_json(args.out / "verify_inequality.json", {
        "mode": "verify-inequality", **dataclasses.asdict(sweep),
        "extremal_grid_max_err": grid_err, "tightness_ratios": ratios,
        "pass": ok})
    return 0 if ok else 1


def _mode_verify_kernels(args: argparse.Namespace) -> int:
    fd_tol, norm_tol = args.fd_tol, args.norm_tol
    n_env, n_fd = args.samples, args.fd_points
    rng = np.random.default_rng(args.seed)

    # finite differences vs the closed-form gradient
    worst_fd = 0.0
    for _ in range(n_fd):
        params = kernels.KernelParams(theta=rng.uniform(0.3, 3.0),
                                      lam=rng.uniform(0.0, 1.0), chi=1.0)
        t = rng.uniform(0.1, 5.0)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        x = rng.uniform(0.1, 5.0) * np.array([math.cos(ang), math.sin(ang)])
        h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
        fd = np.array([
            (kernels.chemo_kernel(t, x + [h, 0.0], params)
             - kernels.chemo_kernel(t, x - [h, 0.0], params)) / (2 * h),
            (kernels.chemo_kernel(t, x + [0.0, h], params)
             - kernels.chemo_kernel(t, x - [0.0, h], params)) / (2 * h)])
        grad = kernels.chemo_kernel_grad(t, x, params)
        worst_fd = max(worst_fd, float(np.linalg.norm(fd - grad)
                                       / np.linalg.norm(grad)))

    # envelope domination sweep: n_groups random parameter groups for each
    # epsilon, the n_env vectorized samples split over them as evenly as
    # possible (the first n_env % (2 n_groups) groups take one more)
    violations = 0
    n_groups = max(1, min(200, n_env // 500))
    base, extra = divmod(n_env, 2 * n_groups)
    for k in range(2 * n_groups):
        eps, size = (0.0, 0.1)[k // n_groups], base + (k < extra)
        params = kernels.KernelParams(theta=float(rng.uniform(0.1, 10.0)),
                                      chi=1.0, epsilon=eps)
        alpha = float(rng.uniform(0.01, 0.3))
        ts = rng.uniform(0.0, 5.0, size)
        if eps == 0.0:
            ts = np.maximum(ts, 1e-9)
        angs = rng.uniform(0.0, 2.0 * math.pi, size)
        rads = rng.uniform(0.0, 5.0, size)
        xs = rads[:, None] * np.stack([np.cos(angs), np.sin(angs)], axis=-1)
        h_val = kernels.smoothed_grad(ts, xs, params)
        mags = np.sqrt(np.einsum("nc,nc->n", h_val, h_val))
        env = kernels.grad_envelope(ts, xs, alpha, params)
        violations += int(np.sum(mags > env * (1.0 + 1e-12)))

    # heat-kernel normalization by tensor quadrature
    nodes, weights = np.polynomial.legendre.leggauss(400)
    worst_norm = 0.0
    for t, theta in ((1.0, 1.0), (0.25, 4.0), (3.0, 0.5)):
        params = kernels.KernelParams(theta=theta, chi=1.0)
        half = 20.0 * math.sqrt(t / theta)
        u = half * nodes
        w2 = np.outer(weights, weights) * half * half
        grid = np.stack(np.meshgrid(u, u, indexing="ij"), axis=-1)
        total = float(np.sum(kernels.heat_kernel(t, grid, params) * w2))
        worst_norm = max(worst_norm, abs(total - 1.0))

    ok = worst_fd < fd_tol and violations == 0 and worst_norm < norm_tol
    print(f"gradient finite differences: worst rel err {worst_fd:.3g} "
          f"(tol {fd_tol:g})")
    print(f"envelope sweep: {violations} violations over "
          f"{n_env} samples")
    print(f"normalization: worst |quadrature - 1| = {worst_norm:.3g} "
          f"(tol {norm_tol:g})")
    _write_json(args.out / "verify_kernels.json", {
        "mode": "verify-kernels", "fd_worst": worst_fd,
        "envelope_violations": violations, "norm_worst": worst_norm,
        "pass": ok,
    })
    return 0 if ok else 1


def martingale_suite(replicas: int, ito_steps: int, mart_steps: int,
                     batch: int, seed: int = 0, n_small: int = 16,
                     n_large: int = 64) -> dict:
    """Martingale checks on Brownian (chi = 0) batches of `batch` replicas:
    Ito-balance residuals (Gaussian family, N = 2, `ito_steps` steps, batch
    seeds seed + 1000 + done) with the 99% bootstrap CI of their mean, and
    the martingale-residual variance on [1/2, 1] for N = n_small and
    n_large (`mart_steps` steps, seeds seed + done). The caller applies
    its own bands."""
    if mart_steps % 2:
        raise ValueError(f"martingale steps must be even, so that s = 1/2 is "
                         f"a grid time; got {mart_steps}")
    params = kernels.KernelParams(theta=1.0, chi=0.0, epsilon=0.0)

    def ensembles(n_particles: int, steps: int, first_seed: int):
        for done in range(0, replicas, batch):
            yield simulator.run(simulator.SimConfig(
                params=params, n_particles=n_particles, dt=1.0 / steps,
                n_steps=steps, n_replicas=min(batch, replicas - done),
                seed=first_seed + done,
                init=simulator.InitSpec("gaussian", sigma=1.0)))

    ep = estimators.EstimatorParams(gamma=1.62, alpha=0.045)
    residuals = np.concatenate([
        estimators.ito_balance_check(ens, ep, n_boot=1).per_replica
        for ens in ensembles(2, ito_steps, seed + 1000)])
    variances = {n: float(np.concatenate([
        estimators.martingale_residual(ens, None, ("const",), s=0.5,
                                       t=1.0).per_replica
        for ens in ensembles(n, mart_steps, seed)]).var(ddof=1))
        for n in (n_small, n_large)}
    return {"residuals": residuals,
            "residual_ci": estimators.bootstrap_mean_ci(residuals, level=0.99,
                                                        seed=seed),
            "variances": variances,
            "variance_ratio": variances[n_small] / variances[n_large]}


def _mode_martingale_test(args: argparse.Namespace) -> int:
    n_small, n_large = args.n_small, args.n_large
    lo_band, hi_band = args.var_lo, args.var_hi
    suite = martingale_suite(args.replicas, args.steps, args.steps, args.batch,
                             seed=args.seed, n_small=n_small, n_large=n_large)
    mean, (lo, hi) = float(suite["residuals"].mean()), suite["residual_ci"]
    ratio = suite["variance_ratio"]
    resid_ok, ratio_ok = lo <= 0.0 <= hi, lo_band <= ratio <= hi_band
    print(f"Ito-balance residual: mean {mean:.3e}, 99% CI "
          f"[{lo:.3e}, {hi:.3e}] -> {'pass' if resid_ok else 'FAIL'}")
    print(f"variance ratio N={n_small} vs N={n_large}: {ratio:.3f} "
          f"(band [{lo_band}, {hi_band}]) -> {'pass' if ratio_ok else 'FAIL'}")
    _write_json(args.out / "martingale_test.json", {
        "mode": "martingale-test", "replicas": args.replicas,
        "residual_mean": mean, "residual_ci": [lo, hi],
        "variances": {str(k): v for k, v in suite["variances"].items()},
        "variance_ratio": ratio, "band": [lo_band, hi_band],
        "pass": resid_ok and ratio_ok,
    })
    return 0 if resid_ok and ratio_ok else 1


def _mode_epsilon_study(args: argparse.Namespace) -> int:
    eps_list = [float(v) for v in args.epsilons.split(",")]
    if len(set(eps_list)) < 2:
        # one epsilon has nothing to compare E4 with: spread 1, a pass
        raise ValueError(f"--epsilons needs at least two distinct values, "
                         f"got {args.epsilons!r}")
    chi, steps = args.chi, args.steps
    base = simulator.SimConfig(
        params=kernels.KernelParams(theta=1.0, chi=chi, epsilon=eps_list[0]),
        n_particles=args.particles, dt=args.horizon / steps,
        n_steps=steps, n_replicas=args.replicas, seed=args.seed,
        init=simulator.InitSpec("gaussian", sigma=args.sigma))
    noise = simulator.draw_noise(base)
    initial = simulator.draw_initial(base)
    ep = estimators.EstimatorParams(gamma=args.gamma, alpha=args.alpha)
    rows = []
    for eps in eps_list:
        cfg = dataclasses.replace(
            base, params=kernels.KernelParams(theta=1.0, chi=chi, epsilon=eps))
        ens = simulator.run(cfg, initial=initial, noise=noise)
        rep = estimators.paper_moments(ens, ep)
        rows.append((eps, rep.estimates["E4"].value))
    # a NaN E4 (every replica blown) must fail wherever it sits: max and
    # min skip it or not depending on its place in the list
    values = [v for _, v in rows]
    bad = [e for e, v in rows if not 0.0 < v < math.inf]
    spread = math.nan if bad else max(values) / min(values)
    factor = args.factor
    ok = not bad and spread < factor
    csv_text = "epsilon,E4\n" + "".join(f"{e:.8g},{v:.8g}\n" for e, v in rows)
    (args.out / "epsilon_study.csv").write_text(csv_text)
    print(csv_text, end="")
    if bad:
        print(f"E4 not finite and > 0 at epsilon {bad} -> FAIL")
    else:
        print(f"max/min E4 ratio = {spread:.4f} (limit {factor}) -> "
              f"{'pass' if ok else 'FAIL'}")
    _write_json(args.out / "epsilon_study.json", {
        "mode": "epsilon-study", "rows": rows, "spread": spread,
        "factor": factor, "pass": ok,
    })
    return 0 if ok else 1


def _count(low: int = 1):
    """argparse type of an integer option that must be at least `low`: a
    count that would empty a check, or crash it, is a usage error."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return count


def _build_parser() -> argparse.ArgumentParser:
    """The `kspp` parser; each mode's subparser sets `run` to its mode."""
    parser = argparse.ArgumentParser(
        prog="kspp",
        description="Keller-Segel particle system: simulate, estimate, verify.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="mode", required=True)

    def mode(name: str, run, about: str, seed: int | None):
        p = sub.add_parser(name, help=about)
        p.set_defaults(run=run)
        p.add_argument("--out", type=Path, default=".", help="output directory")
        p.add_argument("--seed", type=int, default=seed, help="seed override")
        return p

    p_sim = mode("simulate", _mode_simulate, "integrate the particle system",
                 None)
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--format", choices=("csv", "bin", "both"), default="csv")

    p_est = mode("estimate", _mode_estimate, "moment functionals of a run", None)
    p_est.add_argument("--config", required=True)
    p_est.add_argument("--trajectory", default=None,
                       help="existing trajectory file (.csv or .ksw1); "
                            "otherwise the run happens inline")
    p_est.add_argument("--gamma", type=float, required=True)
    p_est.add_argument("--alpha", type=float, required=True)
    p_est.add_argument("--delta", type=float, default=0.0)
    p_est.add_argument("--horizon", type=float, default=None)

    p_thr = mode("threshold", _mode_threshold, "sensitivity threshold table",
                 None)
    p_thr.add_argument("--theta", type=float)
    p_thr.add_argument("--p", type=float)
    p_thr.add_argument("--remark61", action="store_true",
                       help="emit the five-scenario reference table")

    p_vi = mode("verify-inequality", _mode_verify_inequality,
                "functional inequality suite", 0)
    p_vi.add_argument("--cases", type=_count(), default=10000)

    p_vk = mode("verify-kernels", _mode_verify_kernels, "kernel identity suite",
                0)
    p_vk.add_argument("--samples", type=_count(2), default=100000)
    p_vk.add_argument("--fd-points", type=_count(), default=100)
    p_vk.add_argument("--fd-tol", type=float, default=1e-5)
    p_vk.add_argument("--norm-tol", type=float, default=1e-6)

    p_mt = mode("martingale-test", _mode_martingale_test,
                "empirical martingale checks", 0)
    p_mt.add_argument("--replicas", type=_count(2), default=10000)
    p_mt.add_argument("--steps", type=_count(), default=64)
    p_mt.add_argument("--n-small", type=int, default=16)
    p_mt.add_argument("--n-large", type=int, default=64)
    p_mt.add_argument("--var-lo", type=float, default=2.5)
    p_mt.add_argument("--var-hi", type=float, default=6.0)
    p_mt.add_argument("--batch", type=_count(), default=500)

    p_es = mode("epsilon-study", _mode_epsilon_study,
                "smoothing refinement stability", 3)
    p_es.add_argument("--epsilons", default="0.1,0.05,0.025")
    p_es.add_argument("--particles", type=int, default=8)
    p_es.add_argument("--steps", type=_count(), default=128)
    p_es.add_argument("--horizon", type=float, default=1.0)
    p_es.add_argument("--chi", type=float, default=0.3)
    p_es.add_argument("--replicas", type=int, default=8)
    p_es.add_argument("--gamma", type=float, default=1.52)
    p_es.add_argument("--alpha", type=float, default=0.045)
    p_es.add_argument("--sigma", type=float, default=2.0)
    p_es.add_argument("--factor", type=float, default=2.0)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # the directories that --out creates, deepest first: a usage error
    # removes those still empty, so that it leaves nothing behind
    made = [d for d in (args.out, *args.out.parents) if not d.exists()]
    try:
        if (args.mode == "threshold" and not args.remark61
                and (args.theta is None or args.p is None)):
            raise ValueError("threshold needs either --remark61 or --theta and --p")
        args.out.mkdir(parents=True, exist_ok=True)
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for d in made:
            with contextlib.suppress(OSError):   # not empty, or not made
                d.rmdir()
        return 2


if __name__ == "__main__":
    sys.exit(main())

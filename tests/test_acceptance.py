"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single PASS line with the measured quantities; run with
``pytest tests/test_acceptance.py -v -s`` to see them all.
"""

import math
import time

import numpy as np

from kspp import cli, constants, estimators, kernels, simulator
from kspp.estimators import EstimatorParams
from kspp.kernels import KernelParams
from kspp.simulator import InitSpec, SimConfig


def report(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: PASS ({detail})")


def test_criterion_1_threshold_reproduction():
    t0 = time.time()
    table, all_ok = cli.remark61_table()
    elapsed = time.time() - t0
    rows = {line.split(",")[0]: line.split(",") for line in
            table.strip().splitlines()[1:]}
    computed = {k: float(v[5]) for k, v in rows.items()}
    assert 3.27 <= computed["small-theta-fixed-point"] <= 3.30
    assert computed["theta-0.1"] >= 2.42
    assert computed["theta-1"] >= 1.39
    assert computed["theta-10"] >= 0.51
    assert computed["large-theta-scaled"] >= 1.60
    assert all_ok
    assert elapsed < 60.0
    report("criterion 1 (threshold table)",
           f"rows={computed}, runtime={elapsed:.1f}s < 60s")


def test_criterion_2_constant_spot_checks():
    c0_0 = constants.c0_const(0.0)
    c0_52 = constants.c0_const(0.52)
    c1 = constants.structural_constants(
        constants.StructuralParams(gamma=1.63, alpha=0.08, theta=1.0, p=3.51)).c1
    kap = constants.kappa(0.5, 0.63)
    assert abs(c0_0 - 0.42888) < 1e-4
    assert abs(c0_52 - 0.6895) < 5e-4
    assert abs(c1 - 0.502) < 1e-3
    assert abs(kap - 1.411) < 1e-3
    report("criterion 2 (constant spot checks)",
           f"C0(0)={c0_0:.6f}, C0(0.52)={c0_52:.5f}, C1={c1:.5f}, kappa={kap:.5f}")


def test_criterion_3_functional_inequality_suite():
    suite = cli.inequality_suite(10000, seed=7)
    sweep = suite["sweep"]
    assert sweep.violations == 0

    worst_gap = suite["extremal_grid_max_err"]
    assert worst_gap < 1e-9

    ratios = suite["tightness_ratios"]
    assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))
    assert all(r < 1.0 for r in ratios)
    assert ratios[-1] > 0.99
    report("criterion 3 (functional inequality)",
           f"sweep: {sweep.evaluated} cases, 0 violations, worst ratio "
           f"{sweep.worst_ratio:.9f}; extremal gap {worst_gap:.2e}; "
           f"tightness {['%.5f' % r for r in ratios]}")


def test_criterion_4_kernel_suite(tmp_path):
    rc = cli.main(["verify-kernels", "--samples", "100000",
                   "--fd-points", "100", "--seed", "0",
                   "--out", str(tmp_path)])
    assert rc == 0
    import json
    payload = json.loads((tmp_path / "verify_kernels.json").read_text())
    assert payload["fd_worst"] < 1e-5
    assert payload["envelope_violations"] == 0
    assert payload["norm_worst"] < 1e-6
    report("criterion 4 (kernel suite)",
           f"fd worst {payload['fd_worst']:.2e}, envelope violations 0 "
           f"over 1e5, normalization gap {payload['norm_worst']:.2e}")


def test_criterion_5_drift_oracle_equivalence():
    params = KernelParams(theta=1.0, lam=0.0, chi=0.0, epsilon=1e-4)
    cfg = SimConfig(params=params, n_particles=2, dt=1e-4, n_steps=10000,
                    n_replicas=1, seed=1, noise_mode="zero",
                    init=InitSpec("point"))
    init = np.array([[[0.0, 0.0], [1.0, 0.0]]])
    ens = simulator.run(cfg, initial=init)
    d_hat = simulator.pair_drifts(ens.positions, cfg, 10000, [0], [1])[0, 0]
    closed = simulator.frozen_drift_oracle(
        np.array([-1.0, 0.0]), 1.0, KernelParams(theta=1.0, chi=1.0))
    rel = float(np.linalg.norm(d_hat - closed) / np.linalg.norm(closed))
    assert rel < 1e-3

    quad_path = simulator.frozen_drift_oracle(
        np.array([1.0, 0.0]), 1.0, KernelParams(theta=1.0, chi=1.0, epsilon=1e-6))
    closed2 = simulator.frozen_drift_oracle(
        np.array([1.0, 0.0]), 1.0, KernelParams(theta=1.0, chi=1.0))
    gap = float(np.linalg.norm(quad_path - closed2))
    assert gap < 1e-4
    report("criterion 5 (drift oracle)",
           f"discrete vs closed rel err {rel:.2e} < 1e-3; "
           f"quadrature vs closed {gap:.2e} < 1e-4")


def test_criterion_6_simulator_statistics():
    # increment covariance over 1e4 replica-steps at chi = 0
    cfg = SimConfig(params=KernelParams(theta=1.0, chi=0.0),
                    n_particles=2, dt=0.01, n_steps=100, n_replicas=100,
                    seed=3, init=InitSpec("point"))
    ens = simulator.run(cfg)
    inc = np.diff(ens.positions[:, :, 0, :], axis=1).reshape(-1, 2)
    n = inc.shape[0]
    assert n == 10000
    target = 2 * cfg.dt
    se_var = target * math.sqrt(2.0 / (n - 1))
    zx = (inc[:, 0].var(ddof=1) - target) / se_var
    zy = (inc[:, 1].var(ddof=1) - target) / se_var
    cov = float(np.mean(inc[:, 0] * inc[:, 1]))
    se_cov = target / math.sqrt(n)
    z_cov = cov / se_cov
    assert abs(zx) < 5 and abs(zy) < 5 and abs(z_cov) < 5

    # mirrored-pair symmetry, exact
    cfg_m = SimConfig(params=KernelParams(theta=1.0, lam=0.2, chi=1.0,
                                          epsilon=0.05),
                      n_particles=2, dt=0.01, n_steps=80, n_replicas=4,
                      seed=5, init=InitSpec("mirrored_pair", center=(0.6, -0.3)),
                      noise_mode="mirrored")
    ens_m = simulator.run(cfg_m)
    np.testing.assert_array_equal(ens_m.positions[:, :, 0, :],
                                  -ens_m.positions[:, :, 1, :])

    # bit-reproducibility
    cfg_r = SimConfig(params=KernelParams(theta=1.0, chi=0.8, epsilon=0.05),
                      n_particles=3, dt=0.02, n_steps=25, n_replicas=3,
                      seed=17, init=InitSpec("gaussian", sigma=1.0))
    np.testing.assert_array_equal(simulator.run(cfg_r).positions,
                                  simulator.run(cfg_r).positions)
    report("criterion 6 (simulator statistics)",
           f"variance z-scores ({zx:+.2f}, {zy:+.2f}), covariance z "
           f"{z_cov:+.2f} (|z| < 5); mirror exact; reruns bit-identical")


def test_criterion_7_ito_and_martingale_residuals():
    t0 = time.time()
    # Ito-balance identity residual, Gaussian family, 1e4 Brownian pairs of
    # 128 steps; variance scaling of the empirical martingale residual at
    # N = 16 and 64 with 64 steps
    suite = cli.martingale_suite(replicas=10000, ito_steps=128, mart_steps=64,
                                 batch=500, seed=0, n_small=16, n_large=64)
    values = suite["residuals"]
    lo, hi = suite["residual_ci"]
    assert lo <= 0.0 <= hi

    ratio = suite["variance_ratio"]
    assert 2.5 <= ratio <= 6.0
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report("criterion 7 (Ito/martingale residuals)",
           f"residual mean {values.mean():+.2e}, 99% CI [{lo:.2e}, {hi:.2e}] "
           f"contains 0; variance ratio {ratio:.2f} in [2.5, 6]; "
           f"runtime {elapsed:.0f}s < 600s")


def test_criterion_8_drift_domination():
    params = KernelParams(theta=1.0, chi=1.0, epsilon=0.05)
    cfg = SimConfig(params=params, n_particles=2, dt=0.01, n_steps=100,
                    n_replicas=1000, seed=88,
                    init=InitSpec("gaussian", sigma=1.0))
    ens = simulator.run(cfg)
    assert not ens.blowups
    stats = estimators.drift_domination_check(
        ens, EstimatorParams(gamma=1.62, alpha=0.045), slack=1.05)
    assert stats.violations == 0
    report("criterion 8 (drift domination)",
           f"{stats.checked} checks, 0 violations, worst |D|/bound "
           f"{stats.worst_margin:.3f} (slack 1.05)")


def test_criterion_9_epsilon_refinement(tmp_path):
    rc = cli.main(["epsilon-study", "--out", str(tmp_path)])
    assert rc == 0
    import json
    payload = json.loads((tmp_path / "epsilon_study.json").read_text())
    assert payload["spread"] < 2.0
    report("criterion 9 (epsilon refinement)",
           f"E4 spread across eps {dict((str(e), round(v, 6)) for e, v in payload['rows'])} "
           f"= {payload['spread']:.3f} < 2")

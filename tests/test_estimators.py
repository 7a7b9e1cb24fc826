import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import kspp
from kspp import estimators as E, simulator as S
from kspp.constants import c0_const, kappa
from kspp.kernels import (EXP_CLAMP, KernelParams, SourceSpec, background_field,
                          smoothed_weight)

import oracles as O


def frozen_pair_ensemble(dt=2.0 ** -10, n_steps=1024, distance=1.0, chi=1.0,
                         epsilon=1e-3):
    """Constant-position pair at the given distance; chi recorded in the
    config (estimators read it) but the paths never move."""
    params = KernelParams(theta=1.0, chi=chi, epsilon=epsilon)
    cfg = S.SimConfig(params=params, n_particles=2, dt=dt, n_steps=n_steps,
                      n_replicas=1, seed=0, noise_mode="zero",
                      init=S.InitSpec("point"))
    positions = np.zeros((1, n_steps + 1, 2, 2))
    positions[:, :, 1, 0] = distance
    return S.TrajectoryEnsemble(positions=positions, config=cfg,
                                rng_provenance={"seed": 0, "scheme": "synthetic"})


def brownian_ensemble(n_particles=2, n_steps=64, n_replicas=8, seed=2,
                      dt=1.0 / 64, sigma=1.0, epsilon=0.05, chi=0.0):
    params = KernelParams(theta=1.0, chi=chi, epsilon=epsilon)
    cfg = S.SimConfig(params=params, n_particles=n_particles, dt=dt,
                      n_steps=n_steps, n_replicas=n_replicas, seed=seed,
                      init=S.InitSpec("gaussian", sigma=sigma))
    return S.run(cfg)


EP = E.EstimatorParams(gamma=1.6, alpha=0.05)


def without_memo(ens):
    """A copy of `ens` on the same positions without `run`'s drift memo:
    the checks' miss path, where each forms its own pair drifts."""
    copy = dataclasses.replace(ens)
    assert copy.drift_memo is None
    return copy


def on_route(ens, route):
    """`ens`, whose memo the checks read (the "hit" path), or a copy of it
    without one (the "miss" path)."""
    if route == "hit":
        assert E._memo_sums(ens) is not None
        return ens
    return without_memo(ens)


def fresh_holder(ens, ep=EP):
    """holder_modulus on the miss path: its own pass over the pairs (0, j)."""
    return E.holder_modulus(without_memo(ens), ep)


def assert_same_holder(got, want):
    assert got.excluded == want.excluded
    assert np.array_equal(got.z_hat.view(np.int64), want.z_hat.view(np.int64))
    assert np.array_equal(got.bound.view(np.int64), want.bound.view(np.int64))


def same_bits(a, b):
    return np.array_equal(np.asarray(a, float).view(np.int64),
                          np.asarray(b, float).view(np.int64))


def grad_k_mag(lag, sq, cfg):
    """|grad K_lag| at squared distance sq (unsmoothed kernel), in one
    expression: the reference for paper_moments' E3 terms."""
    p = cfg.params
    arg = np.minimum(p.theta * sq / (4.0 * lag), EXP_CLAMP)
    return (smoothed_weight(lag, dataclasses.replace(p, epsilon=0.0))
            * np.exp(-arg) * np.sqrt(sq))


def gauss_value(u, x):
    """The Gaussian bump F(u, x) = e^(-u - |x|^2) at points x (..., 2),
    through `GaussianBump.value_sq`."""
    return E.GaussianBump.value_sq(u, np.einsum("...c,...c->...", x, x))


def gauss_heat(u, x):
    """(d/dt + Laplacian) F at points x, through `GaussianBump.heat_sq`."""
    sq = np.einsum("...c,...c->...", x, x)
    return E.GaussianBump.heat_sq(sq, E.GaussianBump.value_sq(u, sq))


def gauss_grad(u, x):
    """grad_x F = -2 x F at points x (..., 2)."""
    return -2.0 * x * gauss_value(u, x)[..., None]


class TestEstimatorParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            E.EstimatorParams(gamma=1.4, alpha=0.01)
        with pytest.raises(ValueError):
            E.EstimatorParams(gamma=1.6, alpha=0.9)
        with pytest.raises(ValueError):
            E.EstimatorParams(gamma=1.6, alpha=0.05, delta=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite(self, bad):
        for field in ("delta", "horizon"):
            with pytest.raises(ValueError, match=field):
                E.EstimatorParams(gamma=1.62, alpha=0.045, **{field: bad})

    def test_horizon_must_hit_grid(self):
        ens = brownian_ensemble(n_steps=10, n_replicas=1)
        with pytest.raises(ValueError):
            E.paper_moments(ens, E.EstimatorParams(gamma=1.6, alpha=0.05,
                                                   horizon=0.0503))


class TestPaperMoments:
    def test_frozen_e1_is_one(self):
        # dt = 2^-10 makes the trapezoid weights binary-exact
        rep = E.paper_moments(frozen_pair_ensemble(), EP)
        assert rep.estimates["E1"].value == 1.0
        assert rep.divergent_terms == 0

    def test_frozen_e2_closed_form(self):
        rep = E.paper_moments(frozen_pair_ensemble(dt=1e-3, n_steps=1000), EP)
        g = EP.gamma
        exact = (1.0 / (g - 1.0)) * (1.0 - (2 ** (2.0 - g) - 1.0) / (2.0 - g))
        assert rep.estimates["E2"].value == pytest.approx(exact, rel=1e-3)

    def test_frozen_s_closed_form(self):
        rep = E.paper_moments(frozen_pair_ensemble(dt=1e-3, n_steps=1000), EP)
        g, a = EP.gamma, EP.alpha
        exact = (a ** (1 - g) - (1 + a) ** (1 - g)) / (g - 1)
        assert rep.estimates["S"].value == pytest.approx(exact, rel=1e-2)
        # the delta offset lowers S-bar below S
        ep_d = E.EstimatorParams(gamma=g, alpha=a, delta=0.1)
        rep_d = E.paper_moments(frozen_pair_ensemble(dt=1e-3, n_steps=1000), ep_d)
        assert rep_d.estimates["S_bar"].value < rep_d.estimates["S"].value

    def test_brownian_e1_dt_stability(self):
        params = KernelParams(theta=1.0, chi=0.0)
        vals = []
        errs = []
        for steps, seed in ((128, 31), (256, 32)):
            cfg = S.SimConfig(params=params, n_particles=2, dt=1.0 / steps,
                              n_steps=steps, n_replicas=200, seed=seed,
                              init=S.InitSpec("point"))
            init = np.tile(np.array([[-1.0, 0.0], [1.0, 0.0]]), (200, 1, 1))
            rep = E.paper_moments(S.run(cfg, initial=init), EP)
            vals.append(rep.estimates["E1"].value)
            errs.append(rep.estimates["E1"].stderr)
        assert abs(vals[0] - vals[1]) < 2 * math.hypot(*errs)

    def test_e1_increases_with_chi(self):
        # attraction trend on a fixed deterministic grid of sensitivities
        params = [KernelParams(theta=1.0, chi=c, epsilon=0.05)
                  for c in (1e-6, 0.45, 0.9, 1.35)]
        vals = []
        for p in params:
            cfg = S.SimConfig(params=p, n_particles=2, dt=1.0 / 64, n_steps=64,
                              n_replicas=64, seed=6,
                              init=S.InitSpec("gaussian", sigma=1.0))
            ep = E.EstimatorParams(gamma=1.62, alpha=0.045)
            vals.append(E.paper_moments(S.run(cfg), ep).estimates["E1"].value)
        assert vals[-1] >= vals[0]

    def test_relabeling_invariance(self):
        for perm in ([3, 1, 0, 2], [3, 6, 1, 0, 5, 2, 4]):
            ens = brownian_ensemble(n_particles=len(perm), n_steps=16,
                                    n_replicas=2)
            rep_a = E.paper_moments(ens, EP)
            ens_b = dataclasses.replace(ens, positions=np.ascontiguousarray(
                ens.positions[:, :, perm, :]))
            rep_b = E.paper_moments(ens_b, EP)
            for name in rep_a.estimates:
                np.testing.assert_array_equal(
                    rep_a.estimates[name].per_replica,
                    rep_b.estimates[name].per_replica)

    def test_nonfinite_replica_excluded_and_counted(self):
        ens = brownian_ensemble(n_particles=3, n_steps=12, n_replicas=3,
                                chi=0.9)
        finite = dataclasses.replace(
            ens, positions=ens.positions[[0, 2]].copy(),
            config=dataclasses.replace(ens.config, n_replicas=2))
        ens.positions[1, 5:] = np.nan
        rep = E.paper_moments(ens, EP)
        clean = E.paper_moments(finite, EP)
        assert rep.excluded == 1 and clean.excluded == 0
        assert list(rep.replicas) == [0, 2]
        assert rep.divergent_terms == clean.divergent_terms
        for name, est in rep.estimates.items():
            ref = clean.estimates[name]
            assert est.n_replicas == 2
            assert (est.value, est.stderr) == (ref.value, ref.stderr)
            np.testing.assert_array_equal(est.per_replica, ref.per_replica)
        assert rep.to_json_dict()["excluded"] == 1

        # finite up to the horizon: nothing to exclude
        early = E.EstimatorParams(gamma=EP.gamma, alpha=EP.alpha,
                                  horizon=4 * ens.config.dt)
        assert E.paper_moments(ens, early).excluded == 0

    def test_divergent_coincidences_counted(self):
        params = KernelParams(theta=1.0, chi=0.0)
        cfg = S.SimConfig(params=params, n_particles=2, dt=0.25, n_steps=4,
                          n_replicas=1, seed=0, noise_mode="zero",
                          init=S.InitSpec("point"))
        ens = S.run(cfg)  # both particles pinned at the origin
        rep = E.paper_moments(ens, EP)
        assert rep.divergent_terms == 5 * 2  # every grid time, both pairs
        assert rep.estimates["E1"].value == 0.0
        # |d| = 0: E3's exponent is log 0 = -inf, a term of 0, as |d|^p is
        assert rep.estimates["E3"].value == 0.0

    def test_e3_envelope_monotone(self):
        # replacing |grad K| by its envelope termwise can only increase E3
        ens = brownian_ensemble(n_steps=32, n_replicas=2)
        cfg = ens.config
        ep = EP
        from kspp.kernels import grad_envelope
        params0 = dataclasses.replace(cfg.params, epsilon=0.0)
        power = 2 * ep.gamma / 3
        for r in range(ens.n_replicas):
            pos = ens.positions[r]
            raw = env = 0.0
            for m in range(1, 33):
                lag = (m - np.arange(m)) * cfg.dt
                diff = pos[m, 0][None, :] - pos[:m, 1, :]
                sq = np.einsum("lc,lc->l", diff, diff)
                raw += float(np.sum(grad_k_mag(lag, sq, cfg) ** power))
                env += float(np.sum(
                    grad_envelope(lag, diff, ep.alpha, params0) ** power))
            assert env >= raw

    def test_report_serializes(self):
        rep = E.paper_moments(brownian_ensemble(n_steps=8, n_replicas=2), EP)
        d = rep.to_json_dict()
        assert set(d["estimates"]) == {"E1", "E2", "E3", "E4", "S", "S_bar"}
        import json
        json.dumps(d)

    def test_e2_richardson_ratio(self):
        # smooth frozen-pair integrand: first-order convergence under
        # dt-halving, so consecutive differences shrink by a factor in [1, 4]
        vals = [E.paper_moments(frozen_pair_ensemble(dt=1.0 / m, n_steps=m),
                                EP).estimates["E2"].value
                for m in (250, 500, 1000)]
        ratio = (vals[0] - vals[1]) / (vals[1] - vals[2])
        assert 1.0 <= ratio <= 4.0


def step_order(w, terms):
    """sum_m w[m] terms[m], added in step order m = 0, 1, ...: the order of
    paper_moments' per-pair trapezoid sums."""
    acc = np.zeros(terms.shape[1:])
    for w_m, term in zip(w, terms):
        acc += w_m * term
    return acc


def reference_moments(ens, ep):
    """Per-replica E1-E4, S and S_bar, one pair gather per functional and
    step, and E4 from a pair_drifts series. E1 and E4 take their trapezoid
    over the steps in step order, as paper_moments does; "E1_gemv" and
    "E4_gemv" take it as one product w_tr @ terms, whose order of summation
    BLAS picks."""
    cfg, dt = ens.config, ens.config.dt
    m_t = int(round(ep.horizon / dt)) if ep.horizon else ens.n_steps
    pairs = E.ordered_pairs(ens.n_particles)
    i_idx = np.array([i for i, _ in pairs])
    j_idx = np.array([j for _, j in pairs])
    w_tr = np.full(m_t + 1, dt)
    w_tr[0] = w_tr[-1] = 0.5 * dt
    q, e3_pow = 2.0 * (ep.gamma - 1.0), 2.0 * ep.gamma / 3.0
    out = {name: [] for name in ("E1", "E2", "E3", "E4", "S", "S_bar",
                                 "E1_gemv", "E4_gemv")}

    def mean(values):
        return math.fsum(values) / len(values)

    def gather(pos, m):
        diff = pos[m, i_idx][None, :, :] - pos[:m][:, j_idx, :]
        return (m - np.arange(m)) * dt, np.einsum("lkc,lkc->lk", diff, diff)

    for r in range(ens.n_replicas):
        pos = ens.positions[r, : m_t + 1]
        d_same = pos[:, i_idx] - pos[:, j_idx]
        dist = np.sqrt(np.einsum("mkc,mkc->mk", d_same, d_same))
        out["E1"].append(mean(step_order(w_tr, dist ** (-q))))
        out["E1_gemv"].append(mean(w_tr @ dist ** (-q)))
        e2 = np.zeros(len(pairs))
        e3 = np.zeros(len(pairs))
        for m in range(1, m_t + 1):
            lag, sq = gather(pos, m)
            e2 += w_tr[m] * dt * np.sum((lag[:, None] + sq) ** (-ep.gamma),
                                        axis=0)
            e3 += w_tr[m] * dt * np.sum(
                grad_k_mag(lag[:, None], sq, cfg) ** e3_pow, axis=0)
        out["E2"].append(mean(e2))
        out["E3"].append(mean(e3))
        d = np.zeros((m_t + 1, len(pairs), 2))
        for m in range(1, m_t + 1):
            d[m] = O.pair_drifts(pos[None], cfg, m, i_idx, j_idx)[0]
        d_mag = np.sqrt(np.einsum("mkc,mkc->mk", d, d))
        out["E4"].append(mean(step_order(w_tr, d_mag ** q)))
        out["E4_gemv"].append(mean(w_tr @ d_mag ** q))
        lag, sq = gather(pos, m_t)
        out["S"].append(mean(dt * np.sum(
            (lag[:, None] + ep.alpha * sq) ** (-ep.gamma), axis=0)))
        out["S_bar"].append(mean(dt * np.sum(
            (lag[:, None] + ep.delta + ep.alpha * sq) ** (-ep.gamma), axis=0)))
    return {name: np.array(vals) for name, vals in out.items()}


class TestSinglePass:
    """paper_moments' one pass over a shared geometry equals the per-pair,
    per-functional computation: E1 and E4 bit for bit with their trapezoid
    in step order, and to rounding as one gemv; E2, E3, S and S_bar to
    rounding, since numpy picks the order of a sum over the history rows
    by the memory layout of its operand."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 6), steps=st.integers(2, 20),
           replicas=st.integers(1, 3), seed=st.integers(0, 2 ** 16),
           cutoff=st.booleans(), data=st.data())
    def test_matches_reference(self, n, steps, replicas, seed, cutoff, data):
        dt = 0.02
        params = KernelParams(theta=1.0, lam=0.2, chi=0.9, epsilon=0.05)
        cfg = S.SimConfig(params=params, n_particles=n, dt=dt, n_steps=steps,
                          n_replicas=replicas, seed=seed,
                          init=S.InitSpec("gaussian", sigma=1.0),
                          history_cutoff=2 * dt if cutoff else None)
        ens = S.run(cfg)
        m_t = data.draw(st.integers(1, steps - 1))
        ep = E.EstimatorParams(gamma=1.62, alpha=0.045, delta=0.1,
                               horizon=m_t * dt)
        rep = E.paper_moments(ens, ep)
        ref = reference_moments(ens, ep)
        for name in ("E1", "E4"):
            assert np.array_equal(rep.estimates[name].per_replica, ref[name])
            np.testing.assert_allclose(rep.estimates[name].per_replica,
                                       ref[name + "_gemv"], rtol=1e-13, atol=0)
        for name in ("E2", "E3", "S", "S_bar"):
            np.testing.assert_allclose(rep.estimates[name].per_replica,
                                       ref[name], rtol=1e-13, atol=0)


class TestExponentForm:
    """E2 and E3 formed as the exp of a log, against reference_moments'
    np.power at TestSinglePass' rtol."""

    EP = E.EstimatorParams(gamma=1.62, alpha=0.045)

    @settings(max_examples=25, deadline=None)
    @given(distance=st.floats(0.01, 7.0))
    @example(distance=6.2125)   # the worst of 20 001 distances in [0, 7]
    def test_far_pair(self, distance):
        # N = 2 and m_t = 1: E3 is one term a pair, whose exponent reaches
        # about -670 at distance 7, where rounding it costs the most
        ens = frozen_pair_ensemble(dt=0.02, n_steps=1, distance=distance,
                                   epsilon=0.05)
        rep = E.paper_moments(ens, self.EP)
        ref = reference_moments(ens, self.EP)
        assert rep.estimates["E3"].value > 0.0
        for name in ("E2", "E3"):
            np.testing.assert_allclose(rep.estimates[name].per_replica,
                                       ref[name], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("lam", [1e4, 1e5])
    def test_vanishing_time_factor(self, lam):
        # at dt = 0.02 the unsmoothed time factor is about e^-200 at the
        # first lag for lambda = 1e4, and underflows to 0 at every lag for
        # lambda = 1e5: E3 is then 0, with no log(0) warning
        cfg = S.SimConfig(params=KernelParams(theta=1.0, lam=lam, chi=0.9,
                                              epsilon=0.05),
                          n_particles=3, dt=0.02, n_steps=10, n_replicas=2,
                          seed=5, init=S.InitSpec("gaussian", sigma=1.0))
        ens = S.run(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = E.paper_moments(ens, self.EP)
        ref = reference_moments(ens, self.EP)
        e3 = rep.estimates["E3"].per_replica
        assert np.all(np.isfinite(e3))
        assert np.all(e3 == 0.0) == (lam == 1e5)
        for name in ("E2", "E3"):
            np.testing.assert_allclose(rep.estimates[name].per_replica,
                                       ref[name], rtol=1e-13, atol=0)

    def test_notes_count_and_time_the_passes(self):
        ens = brownian_ensemble(n_particles=3, n_steps=12, n_replicas=3,
                                chi=0.9)
        ens.positions[1, 5:] = np.nan   # left out: not counted
        ep = E.EstimatorParams(gamma=1.62, alpha=0.045,
                               horizon=10 * ens.config.dt)
        notes = E.paper_moments(ens, ep).notes
        # kept replicas x N(N - 1) pairs x m_t (m_t + 1) / 2 history rows
        assert notes["pair_history_terms"] == 2 * 6 * 10 * 11 // 2
        assert set(notes["timings"]) == {"grids"}
        assert all(0.0 <= t < math.inf for t in notes["timings"].values())


class TestDriftDomination:
    def test_frozen_pair_against_quadrature(self):
        # both sides of the domination inequality vs quadrature oracles
        g, a = 1.62, 0.045
        eps = 0.05
        ens = frozen_pair_ensemble(dt=1e-4, n_steps=10000, epsilon=eps)
        cfg = ens.config
        d_hat = O.pair_drifts(ens.positions, cfg, 10000, [0], [1])[0, 0]
        d_oracle = O.frozen_drift_oracle(
            np.array([-1.0, 0.0]), 1.0,
            KernelParams(theta=1.0, chi=1.0, epsilon=eps))
        assert (np.linalg.norm(d_hat - d_oracle) / np.linalg.norm(d_oracle)
                < 1e-3)
        lag = (10000 - np.arange(10000)) * cfg.dt
        s_hat = float(cfg.dt * np.sum((lag + a) ** -g))
        s_oracle, _ = quad(lambda s: (s + a) ** -g, 0.0, 1.0)
        assert abs(s_hat - s_oracle) / s_oracle < 1e-3
        const = math.sqrt(1.0) * c0_const(4 * a) * kappa(0.5, g - 1) / (4 * math.pi)
        bound = const * s_oracle ** (1.0 / (2 * (g - 1)))
        assert np.linalg.norm(d_oracle) < bound  # margin, no slack needed

    def test_brownian_sweep_no_violations(self):
        params = KernelParams(theta=1.0, chi=1.0, epsilon=0.05)
        cfg = S.SimConfig(params=params, n_particles=2, dt=0.01, n_steps=100,
                          n_replicas=100, seed=88,
                          init=S.InitSpec("gaussian", sigma=1.0))
        stats = E.drift_domination_check(S.run(cfg),
                                         E.EstimatorParams(gamma=1.62, alpha=0.045))
        assert stats.violations == 0
        assert stats.checked == 100 * 100 * 2

    def test_blown_replica_excluded_and_counted(self):
        # a replica that goes non-finite must not pass the checks silently
        params = KernelParams(theta=1.0, chi=1.0, epsilon=0.05)
        cfg = S.SimConfig(params=params, n_particles=2, dt=0.01, n_steps=20,
                          n_replicas=4, seed=3,
                          init=S.InitSpec("gaussian", sigma=1.0))
        ens = S.run(cfg)
        finite = S.TrajectoryEnsemble(
            positions=ens.positions[[0, 2, 3]].copy(),
            config=dataclasses.replace(cfg, n_replicas=3),
            rng_provenance=ens.rng_provenance)
        ens.positions[1, 7:] = np.nan
        ep = E.EstimatorParams(gamma=1.62, alpha=0.045)

        stats = E.drift_domination_check(ens, ep)
        clean = E.drift_domination_check(finite, ep)
        assert stats.excluded == 1 and clean.excluded == 0
        assert stats.checked == 3 * 20 * 2
        assert ((stats.checked, stats.violations, stats.worst_margin)
                == (clean.checked, clean.violations, clean.worst_margin))

        hold = E.holder_modulus(ens, ep)
        hold_clean = E.holder_modulus(finite, ep)
        assert hold.excluded == 1
        np.testing.assert_array_equal(hold.z_hat, hold_clean.z_hat)
        np.testing.assert_array_equal(hold.bound, hold_clean.bound)

        # finite up to the horizon: nothing to exclude
        early = E.EstimatorParams(gamma=1.62, alpha=0.045, horizon=0.06)
        assert E.drift_domination_check(ens, early).excluded == 0
        assert E.holder_modulus(ens, early).excluded == 0

        # every replica blown: nothing checked, and the Hoelder check fails
        ens.positions[:, 7:] = np.nan
        assert E.drift_domination_check(ens, ep).checked == 0
        hold = E.holder_modulus(ens, ep)
        assert hold.excluded == 4 and not hold.ok

    def test_nothing_checked_is_not_ok(self):
        # every replica blown at step 2: no check runs, so the stats must
        # not read as clean, and no worst margin exists
        params = KernelParams(theta=1.0, chi=1.0, epsilon=0.05)
        cfg = S.SimConfig(params=params, n_particles=2, dt=0.01, n_steps=10,
                          n_replicas=3, seed=3,
                          init=S.InitSpec("gaussian", sigma=1.0))
        noise = S.draw_noise(cfg)
        assert E.drift_domination_check(S.run(cfg, noise=noise), EP).ok
        noise[:, 2] = np.inf
        ens = S.run(cfg, noise=noise)
        assert ens.blowups == [(0, 3), (1, 3), (2, 3)]
        stats = E.drift_domination_check(ens, EP)
        assert (stats.checked, stats.violations, stats.excluded) == (0, 0, 3)
        assert math.isnan(stats.worst_margin)
        assert not stats.ok
        assert not E.holder_modulus(ens, EP).ok

    @pytest.mark.parametrize("slack", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_slack_rejected(self, slack):
        # on this run slack = -1 and NaN each gave ok with no violation,
        # and slack = 0 divided by zero
        ens = brownian_ensemble(n_steps=8, n_replicas=2, chi=1.0)
        with pytest.raises(ValueError, match="slack must be finite"):
            E.drift_domination_check(ens, EP, slack=slack)

    def test_bound_power_scaling(self):
        # doubling every S term scales the bound by 2^(1/(2(gamma-1)))
        g = 1.6
        expo = 1.0 / (2 * (g - 1))
        s = 0.37
        assert (2 * s) ** expo == pytest.approx(2 ** expo * s ** expo, rel=1e-14)


class TestHolderModulus:
    def test_zero_drift_zero_modulus(self):
        ens = brownian_ensemble(n_steps=16, n_replicas=2, chi=0.0)
        stats = E.holder_modulus(ens, EP)
        np.testing.assert_array_equal(stats.z_hat, 0.0)
        assert stats.ok

    def test_linear_path_helper(self):
        # a linear path attains its ratio at the full window
        beta = 0.4
        times = np.linspace(0.0, 2.0, 21)
        slope = np.array([0.3, -0.4])
        path = times[:, None] * slope
        z = E._holder_max(path[None], times, beta)[0]
        assert z == pytest.approx(np.linalg.norm(slope) * 2.0 ** (1 - beta),
                                  rel=1e-12)

    def test_slack_inequality_random_runs(self):
        ens = brownian_ensemble(n_particles=3, n_steps=48, n_replicas=100,
                                seed=14, chi=1.0)
        stats = E.holder_modulus(ens, E.EstimatorParams(gamma=1.62, alpha=0.045))
        assert stats.ok
        assert np.all(stats.z_hat <= stats.bound)  # exact, slack unused
        assert stats.beta == pytest.approx((2 * 1.62 - 3) / (2 * 0.62))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 5), steps=st.integers(2, 20),
           replicas=st.integers(1, 4), seed=st.integers(0, 2 ** 16),
           cutoff=st.booleans())
    def test_matches_reference(self, n, steps, replicas, seed, cutoff):
        dt = 0.02
        cfg = S.SimConfig(params=KernelParams(theta=1.0, lam=0.2, chi=0.9,
                                              epsilon=0.05),
                          n_particles=n, dt=dt, n_steps=steps,
                          n_replicas=replicas, seed=seed,
                          init=S.InitSpec("gaussian", sigma=1.0),
                          history_cutoff=2 * dt if cutoff else None)
        ens = S.run(cfg)
        ep = E.EstimatorParams(gamma=1.62, alpha=0.045)
        stats = E.holder_modulus(ens, ep)
        # one replica at a time: the D^{0,j} series, Gamma, then the bound
        chi, q = cfg.params.chi, 2 * (ep.gamma - 1)
        times = np.arange(steps + 1) * dt
        z_hat, bound = [], []
        for r in range(replicas):
            d = np.zeros((steps + 1, n - 1, 2))
            for m in range(1, steps + 1):
                d[m] = O.pair_drifts(ens.positions[r: r + 1], cfg, m,
                                     [0] * (n - 1), range(1, n))[0]
            path = np.zeros((steps + 1, 2))
            path[1:] = chi * dt * np.cumsum(d.mean(axis=1)[:-1], axis=0)
            z_hat.append(E._holder_max(path[None], times, stats.beta)[0])
            tails = dt * np.sum(np.sqrt(np.einsum("mkc,mkc->mk", d, d))[:-1] ** q,
                                axis=0)
            bound.append(chi / (n - 1) * math.fsum(1.0 + t for t in tails))
        assert np.array_equal(stats.z_hat, z_hat)
        assert np.array_equal(stats.bound, bound)

    @pytest.mark.parametrize("paths", [1, 4])
    def test_small_budget_matches_whole_grid(self, paths):
        # 21 grid times, 24 * 21 bytes a path for the three diagonal arrays:
        # a budget of `paths` paths splits holder_modulus into blocks of one
        # or three replicas and _holder_max into blocks of `paths` paths; the
        # maxima and bounds are those of the whole grid, on run's sums (the
        # hit path) and on the call's own pass (the miss path)
        ens = brownian_ensemble(n_particles=3, n_steps=20, n_replicas=6,
                                seed=3, chi=0.9)
        whole = fresh_holder(ens)
        for route in ("hit", "miss"):
            target = on_route(ens, route)
            with mock.patch.object(S, "DRIFT_BUDGET_BYTES", paths * 24 * 21):
                tiled = E.holder_modulus(target, EP)
            assert_same_holder(tiled, whole)
        with mock.patch.object(S, "DRIFT_BUDGET_BYTES", paths * 24 * 21):
            path = E._holder_max(ens.positions[None, 0, :, 0], ens.times, 0.3)
        assert path == E._holder_max(ens.positions[None, 0, :, 0], ens.times,
                                     0.3)

    @pytest.mark.parametrize("slack", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_slack_rejected(self, slack):
        # the slackened bound means nothing outside 0 < slack < inf
        ens = brownian_ensemble(n_steps=8, n_replicas=2, chi=1.0)
        with pytest.raises(ValueError, match="slack must be finite"):
            E.holder_modulus(ens, EP, slack=slack)

    def test_miss_path_peak_does_not_grow_with_replicas(self):
        # random walks of N = 2 and M = 24, built without `run` and so
        # without a memo, under a budget of 4 replicas' pass bytes (16 x 24
        # bytes of geometry and 16 x 2 x 25 of split positions each,
        # `_pass_bytes`): the miss path forms and reduces the D^{0,j} series
        # one replica block at a time. Its peak above the input then grows
        # by the outputs and the list of blocks (about 70 bytes a replica
        # here, 160 allowed), not by the series of every replica, 16 x 25
        # bytes each
        def peak(r_n):
            cfg = S.SimConfig(params=KernelParams(theta=1.0, chi=1.0,
                                                  epsilon=0.05),
                              n_particles=2, dt=1.0 / 64, n_steps=24,
                              n_replicas=r_n)
            steps = np.random.default_rng(4).standard_normal((r_n, 25, 2, 2))
            ens = S.TrajectoryEnsemble(positions=0.1 * steps.cumsum(axis=1),
                                       config=cfg, rng_provenance={})
            with mock.patch.object(S, "DRIFT_BUDGET_BYTES",
                                   4 * E._pass_bytes(2, 1, 24)):
                tracemalloc.start()
                try:
                    stats = E.holder_modulus(ens, EP)
                    got = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert stats.z_hat.size == r_n
            return got

        small, large = peak(32), peak(256)
        assert large - small < 160 * (256 - 32)

    @pytest.mark.parametrize("per_block", [1, 2, 3, 7])
    def test_path_blocks_match_per_path_loop(self, per_block):
        # 21 grid times: a path's three diagonal arrays take 24 * 21 bytes,
        # and the budget takes `per_block` such paths
        rng = np.random.default_rng(7)
        paths = rng.standard_normal((7, 21, 2)).cumsum(axis=1)
        times = np.arange(21) * 0.05
        gaps = times[None, :] - times[:, None]
        upper = gaps > 0
        want = []
        for path in paths:   # every grid pair s < t of one path at a time
            d = path[None, :] - path[:, None]
            sq = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
            want.append(np.max(np.sqrt(sq[upper]) / gaps[upper] ** 0.3))
        per_path = 24 * 21
        with mock.patch.object(S, "DRIFT_BUDGET_BYTES", per_block * per_path):
            assert len(S.budget_blocks(7, per_path)) == -(-7 // per_block)
            got = E._holder_max(paths, times, 0.3)
        assert np.array_equal(got, want)


class TestTargetTiles:
    """Pair-history passes in tiles of target particles i, or of the
    i-major pairs: every tile keeps its history rows whole, so no output
    depends on the tiles, and each pass's peak memory has a bound in
    DRIFT_BUDGET_BYTES."""

    @pytest.fixture(scope="class")
    def ens(self):
        # N = 5, lambda = 0.2 and a history cutoff of 5 rows
        cfg = S.SimConfig(params=KernelParams(theta=1.0, lam=0.2, chi=0.9,
                                              epsilon=0.05),
                          n_particles=5, dt=0.02, n_steps=16, n_replicas=3,
                          seed=41, init=S.InitSpec("gaussian", sigma=1.0),
                          history_cutoff=0.1)
        return S.run(cfg)

    @pytest.mark.parametrize("tile", [1, 2, 3, 5])
    def test_paper_moments(self, ens, tile):
        ep = E.EstimatorParams(gamma=1.62, alpha=0.045, delta=0.1)
        whole = E.paper_moments(ens, ep)
        assert whole.notes["i_tile_rows"] == 5
        # one target particle's five grid rows and window share: blocks of
        # one replica in tiles of `tile` rows
        row_bytes = 8 * (5 * 4 + 4) * ens.n_steps
        with mock.patch.object(S, "DRIFT_BUDGET_BYTES", tile * row_bytes):
            tiled = E.paper_moments(ens, ep)
        assert tiled.notes["i_tile_rows"] == tile
        assert tiled.notes["workspace_bytes"] == 8 * ens.n_steps * (
            2 * 9 + 5 * tile * 4)
        assert tiled.divergent_terms == whole.divergent_terms
        for name, est in whole.estimates.items():
            assert np.array_equal(tiled.estimates[name].per_replica,
                                  est.per_replica)

    @pytest.mark.parametrize("tile", [1, 2, 3, 5])
    def test_domination(self, ens, tile):
        # run's sums, 3 x 17 x 20 x 16 bytes, fit the budget: on the hit
        # path the check reads them and still tiles S's geometry, on the
        # miss path it forms D in the same tiles; both against the miss
        # path at the default budget
        whole = E.drift_domination_check(without_memo(ens), EP)
        for route in ("hit", "miss"):
            target = on_route(ens, route)
            # one replica's dx and dy over `tile` target particles, 4 pairs
            # each
            with mock.patch.object(S, "DRIFT_BUDGET_BYTES",
                                   tile * 4 * 16 * ens.n_steps), \
                    mock.patch.object(E, "_pair_geometry",
                                      wraps=E._pair_geometry) as geometry:
                tiled = E.drift_domination_check(target, EP)
            assert max(c.args[0].shape[2]
                       for c in geometry.call_args_list) == 4 * tile
            assert (tiled.checked, tiled.violations, tiled.worst_margin) == (
                whole.checked, whole.violations, whole.worst_margin)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4])
    def test_holder(self, ens, chunk):
        # the miss path runs its own pass over the pairs (0, j) in tiles of
        # `chunk` pairs; the hit path reads run's sums in replica blocks
        # and forms no pair geometry
        whole = fresh_holder(ens)
        for route in ("hit", "miss"):
            target = on_route(ens, route)
            # one replica's dx and dy over `chunk` of the pairs (0, j)
            with mock.patch.object(S, "DRIFT_BUDGET_BYTES",
                                   chunk * 16 * ens.n_steps), \
                    mock.patch.object(E, "_pair_geometry",
                                      wraps=E._pair_geometry) as geometry:
                tiled = E.holder_modulus(target, EP)
            # the 4-d (2, B, j, l) pair calls, not `_holder_max`'s 3-d paths
            assert max((c.args[1].shape[2] for c in geometry.call_args_list
                        if c.args[1].ndim == 4), default=0) == (
                chunk if route == "miss" else 0)
            assert_same_holder(tiled, whole)

    def test_peaks_bounded_by_the_budget(self):
        # one N = 32, M = 140 replica: its dx and dy over all 992 pairs take
        # 16 * 992 * 140 bytes, 2.2 MB, over the 2 MiB budget. Measured
        # peaks, in budgets, tiled (and in one tile): run 1.70 (1.80),
        # paper_moments 1.17 (3.81), domination 2.68 (4.35), Hoelder 0.20
        cfg = S.SimConfig(params=KernelParams(theta=1.0, lam=0.1, chi=1.0,
                                              epsilon=0.05),
                          n_particles=32, dt=0.01, n_steps=140, n_replicas=1,
                          seed=3, init=S.InitSpec("gaussian", sigma=1.0))
        initial, noise = S.draw_initial(cfg), S.draw_noise(cfg)
        ep = E.EstimatorParams(gamma=1.62, alpha=0.045)
        budget = S.DRIFT_BUDGET_BYTES

        def peak(fn, *args):
            tracemalloc.start()
            try:
                out = fn(*args)
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ens, p = peak(S.run, cfg, initial, noise)
        assert ens.counters["drift_tile_rows"] < 32
        assert ens.drift_memo is None   # over the budget: the miss paths
        # the workspace: a tile's dx, dy and coefficients, 1.5 budgets, and
        # the doubled window; the positions and the split history
        assert p < 2 * budget + 3 * ens.positions.nbytes
        rep, p = peak(E.paper_moments, ens, ep)
        assert rep.notes["i_tile_rows"] < 32
        # the grids' workspace (one budget) and (B, N, N - 1) per-pair
        # arrays: nothing that grows with the horizon
        assert p < 1.5 * budget
        # N = 64, M = 120: a (T, N(N - 1)) series of every step and pair
        # took 3.9 MB, and the peak was 3.34 budgets; now 1.39
        wide = dataclasses.replace(cfg, n_particles=64, n_steps=120)
        rep, p = peak(E.paper_moments, S.run(wide), ep)
        assert rep.notes["i_tile_rows"] < 64
        assert p < 2 * budget
        _, p = peak(E.drift_domination_check, ens, ep)
        # a tile's geometry, dx and dy (one budget) and |d|^2, the Gaussian
        # factor and the S terms, half a budget each
        assert p < 3 * budget
        _, p = peak(E.holder_modulus, ens, ep)
        assert p < budget

    def test_moments_blocks_count_the_pair_arrays(self):
        # 400 replicas of N = 32 at a horizon of one step: the grids take
        # 1.2 KB a target particle, the per-pair arrays (sums, a step's,
        # E1's geometry, temporaries) 16 rows of 8 (N - 1) bytes. Blocks
        # sized by the grids alone held 51 replicas, and the peak was 4.5
        # budgets (5.7 with E1 and E4 summed per pair)
        cfg = S.SimConfig(params=KernelParams(theta=1.0, chi=0.0,
                                              epsilon=0.05),
                          n_particles=32, dt=0.01, n_steps=2, n_replicas=400,
                          seed=1, init=S.InitSpec("gaussian", sigma=1.0))
        ens = S.run(cfg)
        ep = E.EstimatorParams(gamma=1.62, alpha=0.045, horizon=cfg.dt)
        tracemalloc.start()
        try:
            E.paper_moments(ens, ep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * S.DRIFT_BUDGET_BYTES

    def test_pass_blocks_count_the_positions(self):
        # N = 2, M = 100 under a budget of 1/16 of the default, and 200
        # replicas, past one block of each miss path: the shape of R >= 2000
        # at the default budget. The pair-drift pass's replica blocks (and
        # Hoelder's, one pass call each) count the block's split positions
        # with its dx and dy (`_pass_bytes`): sized by the geometry alone,
        # the positions, gathered and split, took 2 budgets more, and the
        # Hoelder miss path peaked at 7 budgets (14.1 MiB at the default)
        budget = S.DRIFT_BUDGET_BYTES // 16
        cfg = S.SimConfig(params=KernelParams(theta=1.0, chi=1.0,
                                              epsilon=0.05),
                          n_particles=2, dt=0.01, n_steps=100, n_replicas=200,
                          seed=6, init=S.InitSpec("gaussian", sigma=1.0))
        ens = dataclasses.replace(S.run(cfg))   # no memo: the miss paths

        def peak(fn):
            with mock.patch.object(S, "DRIFT_BUDGET_BYTES", budget):
                tracemalloc.start()
                try:
                    fn(ens, EP)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        assert peak(E.holder_modulus) < 3 * budget
        assert peak(E.drift_domination_check) < 3 * budget


class TestSharedDriftPass:
    """drift_domination_check and holder_modulus read their pair drifts
    from the ensemble's drift memo (`TrajectoryEnsemble.drift_memo`),
    `run`'s per-pair history sums, keyed by the config and a fingerprint of
    the whole positions array; a check reads it only when both match, so it
    never returns a stale result. `ens` carries run's sums (the hit path);
    `without_memo(ens)` is a copy on the same positions without them (the
    miss path), where each check runs its own pass. Each test names the
    path it pins."""

    @pytest.fixture
    def ens(self):
        # N = 4, lambda = 0.2 and a history cutoff of 4 rows; run's sums,
        # 4 x 21 x 12 x 16 bytes, fit the budget
        cfg = S.SimConfig(params=KernelParams(theta=1.0, lam=0.2, chi=1.0,
                                              epsilon=0.05),
                          n_particles=4, dt=0.02, n_steps=20, n_replicas=4,
                          seed=3, init=S.InitSpec("gaussian", sigma=1.0),
                          history_cutoff=0.08)
        return S.run(cfg)

    def test_one_drift_in_e4_domination_and_holder(self, ens):
        # the D^{i,j}_m of paper_moments' E4, of the domination check's and
        # the Hoelder check's own passes (the miss path), each recorded
        # from its `_history_sums` calls (one tile a step here), and -dt
        # times run's sums in the memo (the hit path) are one set of bits
        n, m_t, dt = ens.n_particles, ens.n_steps, ens.config.dt
        run_sums = ens.drift_memo.sums      # (R, M + 1, i, k, 2)

        def drifts(fn, *args):
            sums = []

            def record(*a):
                sums.append(S._history_sums(*a))
                return sums[-1]

            with mock.patch.object(E, "_history_sums", record):
                fn(*args)
            assert len(sums) == m_t
            return [-dt * np.stack(c, axis=-1) for c in sums]

        e4 = drifts(E.paper_moments, ens, EP)   # (B, i, k, 2), j = i + 1 + k
        miss = without_memo(ens)                # the miss path
        dom = drifts(E.drift_domination_check, miss, EP)   # (B, pair, 2)
        assert miss.drift_memo is None          # a miss keeps nothing
        hold = drifts(fresh_holder, ens)        # (B, j - 1, 2)
        pairs = E.ordered_pairs(n)
        for m in range(1, m_t + 1):
            for p, (i, j) in enumerate(pairs):
                d = e4[m - 1][:, i, (j - i - 1) % n]
                assert same_bits(d, dom[m - 1][:, p])
                assert same_bits(d, -dt * run_sums[:, m, i, (j - i - 1) % n])
                # E4's column |D|
                assert np.array_equal(
                    np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]),
                    np.sqrt(np.einsum("bc,bc->b", dom[m - 1][:, p],
                                      dom[m - 1][:, p])))
                if i == 0:
                    assert same_bits(d, hold[m - 1][:, j - 1])
        assert not run_sums[:, 0].any()

    def test_domination_hit_forms_no_drift(self, ens):
        # the hit path: run's sums are in the memo, so domination forms
        # only S's geometry, and its stats have the miss path's bits
        run_memo = ens.drift_memo
        with mock.patch.object(E, "_history_sums") as sums, \
                mock.patch.object(E, "_gauss_factor") as gauss:
            hit = E.drift_domination_check(ens, EP)
        assert sums.call_count == gauss.call_count == 0
        assert ens.drift_memo is run_memo   # run's sums stay for Hoelder
        miss = E.drift_domination_check(without_memo(ens), EP)
        assert (hit.checked, hit.violations) == (miss.checked, miss.violations)
        assert same_bits(hit.worst_margin, miss.worst_margin)

    def test_holder_after_domination_shares_the_pass(self, ens):
        # the hit path: domination and then Hoelder read run's sums, and
        # the memo stays, so a second Hoelder call reads them again
        run_memo = ens.drift_memo
        E.drift_domination_check(ens, EP)
        for _ in range(2):
            with mock.patch.object(E, "_pair_geometry",
                                   wraps=E._pair_geometry) as geometry:
                shared = E.holder_modulus(ens, EP)
            # only `_holder_max`'s 3-d path geometry, no 4-d pair geometry
            assert geometry.call_count
            assert all(c.args[1].ndim == 3 for c in geometry.call_args_list)
            assert_same_holder(shared, fresh_holder(ens))
            assert ens.drift_memo is run_memo
        # the miss path: domination keeps nothing, so Hoelder runs its own
        # pass over the pairs (0, j)
        miss = without_memo(ens)
        E.drift_domination_check(miss, EP)
        with mock.patch.object(E, "_pair_geometry",
                               wraps=E._pair_geometry) as geometry:
            assert_same_holder(E.holder_modulus(miss, EP), shared)
        assert any(c.args[1].ndim == 4 for c in geometry.call_args_list)

    def test_positions_changed_in_place(self, ens):
        # the hit path made stale: run's sums no longer fit the positions
        E.drift_domination_check(ens, EP)
        ens.positions[1, 7:] = np.nan
        got = E.holder_modulus(ens, EP)
        assert got.excluded == 1
        assert_same_holder(got, fresh_holder(ens))
        assert ens.drift_memo is not None   # the miss left run's sums
        # a change of one bit, a -0.0 for a 0.0, also misses: the memo is
        # keyed to the positions with 0.0 there, then that 0.0 turns -0.0
        ens.positions[2, 3, 1, 0] = 0.0
        ens.drift_memo = ens.drift_memo._replace(
            fingerprint=S._fingerprint(ens.positions))
        ens.positions[2, 3, 1, 0] = -0.0
        with mock.patch.object(E, "_pair_geometry",
                               wraps=E._pair_geometry) as geometry:
            E.holder_modulus(ens, EP)
        assert any(c.args[1].ndim == 4 for c in geometry.call_args_list)

    def test_one_position_changed_after_run_misses(self, ens):
        # one coordinate one ulp away from run's: domination forms its own
        # D, whose bits are those of a call without a memo
        run_memo = ens.drift_memo
        x = ens.positions[3, 12, 2, 1]
        ens.positions[3, 12, 2, 1] = np.nextafter(x, np.inf)
        with mock.patch.object(E, "_history_sums",
                               wraps=E._history_sums) as sums:
            got = E.drift_domination_check(ens, EP)
        assert sums.call_count == ens.n_steps
        assert ens.drift_memo is run_memo   # a miss leaves the memo as it is
        want = E.drift_domination_check(without_memo(ens), EP)
        assert (got.checked, got.violations) == (want.checked, want.violations)
        assert same_bits(got.worst_margin, want.worst_margin)

    def test_another_horizon(self, ens):
        # run's sums read to a horizon short of M (the hit path), and the
        # miss path
        early = dataclasses.replace(EP, horizon=0.2)
        for route in ("hit", "miss"):
            target = on_route(ens, route)
            E.drift_domination_check(target, EP)
            got = E.holder_modulus(target, early)
            assert len(got.z_hat) == ens.n_replicas
            assert_same_holder(got, fresh_holder(ens, early))
            # and the other way round: domination to 0.2, Hoelder to the end
            E.drift_domination_check(target, early)
            assert_same_holder(E.holder_modulus(target, EP),
                               fresh_holder(ens))

    def test_another_ensemble_of_the_same_shape_and_config(self, ens):
        # another ensemble given ens's memo: same config and shape, other
        # positions, so both checks miss, with the bits of a fresh miss
        cfg = ens.config
        other = S.run(cfg, noise=2.0 * S.draw_noise(cfg))
        assert other.config == cfg
        assert other.positions.shape == ens.positions.shape
        other.drift_memo = ens.drift_memo
        with mock.patch.object(E, "_history_sums",
                               wraps=E._history_sums) as sums:
            dom = E.drift_domination_check(other, EP)
        assert sums.call_count == ens.n_steps
        want = E.drift_domination_check(without_memo(other), EP)
        assert (dom.checked, dom.violations) == (want.checked, want.violations)
        assert same_bits(dom.worst_margin, want.worst_margin)
        got = E.holder_modulus(other, EP)
        assert other.drift_memo is ens.drift_memo
        assert_same_holder(got, fresh_holder(other))
        assert not np.array_equal(got.z_hat, fresh_holder(ens).z_hat)

    @pytest.mark.parametrize("change", [{"history_cutoff": None},
                                        {"params": KernelParams(
                                            theta=1.0, lam=0.2, chi=1.0,
                                            epsilon=0.1)}],
                             ids=["cutoff", "epsilon"])
    def test_same_positions_under_another_config(self, ens, change):
        # run's sums under ens's config, handed to the same positions under
        # another config: neither check reads them
        other = dataclasses.replace(
            ens, config=dataclasses.replace(ens.config, **change))
        run_memo = other.drift_memo = ens.drift_memo
        E.drift_domination_check(ens, EP)
        got = E.holder_modulus(other, EP)
        assert other.drift_memo is run_memo
        assert_same_holder(got, fresh_holder(other))
        assert not np.array_equal(got.bound, fresh_holder(ens).bound)
        with mock.patch.object(E, "_history_sums",
                               wraps=E._history_sums) as sums:
            E.drift_domination_check(other, EP)
        assert sums.call_count == ens.n_steps

    @pytest.mark.parametrize("change", ["config", "positions"])
    def test_replace_carries_no_memo(self, ens, change):
        # dataclasses.replace copies every field but the memo, also with
        # the same config or equal positions: both checks on the copy run
        # the miss path and give the bits of the hit path on ens
        new = {"config": ens.config,
               "positions": ens.positions.copy()}[change]
        copy = dataclasses.replace(ens, **{change: new})
        assert copy.drift_memo is None and ens.drift_memo is not None
        with mock.patch.object(E, "_history_sums",
                               wraps=E._history_sums) as sums:
            got = E.drift_domination_check(copy, EP)
        assert sums.call_count == ens.n_steps
        want = E.drift_domination_check(ens, EP)
        assert (got.checked, got.violations) == (want.checked, want.violations)
        assert same_bits(got.worst_margin, want.worst_margin)
        with mock.patch.object(E, "_pair_geometry",
                               wraps=E._pair_geometry) as geometry:
            got = E.holder_modulus(copy, EP)
        assert any(c.args[1].ndim == 4 for c in geometry.call_args_list)
        assert_same_holder(got, E.holder_modulus(ens, EP))

    def test_a_later_run_leaves_the_memo_of_ens(self, ens):
        # run(A), then run(B): both checks on A hit A's own sums, with the
        # bits of the miss path
        later = S.run(dataclasses.replace(ens.config, seed=4))
        assert later.drift_memo is not None
        with mock.patch.object(E, "_history_sums",
                               wraps=E._history_sums) as sums:
            dom = E.drift_domination_check(ens, EP)
        assert sums.call_count == 0
        with mock.patch.object(E, "_pair_geometry",
                               wraps=E._pair_geometry) as geometry:
            hold = E.holder_modulus(ens, EP)
        assert all(c.args[1].ndim == 3 for c in geometry.call_args_list)
        want = E.drift_domination_check(without_memo(ens), EP)
        assert (dom.checked, dom.violations) == (want.checked, want.violations)
        assert same_bits(dom.worst_margin, want.worst_margin)
        assert_same_holder(hold, fresh_holder(ens))

    def test_holder_called_first(self, ens):
        # Hoelder on run's sums (the hit path) leaves them: domination and
        # Hoelder then hit them again
        want = fresh_holder(ens)
        run_memo = ens.drift_memo
        assert_same_holder(E.holder_modulus(ens, EP), want)
        assert ens.drift_memo is run_memo
        with mock.patch.object(E, "_history_sums",
                               wraps=E._history_sums) as sums:
            E.drift_domination_check(ens, EP)
        assert sums.call_count == 0
        assert_same_holder(E.holder_modulus(ens, EP), want)

    @pytest.mark.parametrize("budget", [1, 4 * 16 * 20])
    def test_patched_budget(self, ens, budget):
        # both checks in tiles under a patched budget against the default
        # one's own passes: on the miss path, and on the hit path, whose
        # sums run formed at the default budget
        want = fresh_holder(ens)
        whole = E.drift_domination_check(without_memo(ens), EP)
        for route in ("miss", "hit"):
            target = on_route(ens, route)
            with mock.patch.object(S, "DRIFT_BUDGET_BYTES", budget):
                tiled = E.drift_domination_check(target, EP)
                assert_same_holder(E.holder_modulus(target, EP), want)
            assert ((tiled.checked, tiled.violations, tiled.worst_margin)
                    == (whole.checked, whole.violations, whole.worst_margin))


class TestDriftMemo:
    """`run` keeps its per-pair history sums on the ensemble it returns
    when they fit DRIFT_BUDGET_BYTES, and a check that reads them gives the
    bits of one that forms its own drifts."""

    @staticmethod
    def blown_ensemble(n):
        # lambda, a history cutoff of 5 rows, a source and replica 2 blown
        # at row 16: excluded at the full horizon, kept at 0.3 (row 15)
        cfg = S.SimConfig(params=KernelParams(theta=1.0, lam=0.2, chi=1.0,
                                              epsilon=0.05),
                          source=SourceSpec(components=(
                              (0.5, (-1.0, 0.0), 0.5), (0.5, (1.0, 0.5), 1.0))),
                          n_particles=n, dt=0.02, n_steps=24, n_replicas=6,
                          seed=5 + n, init=S.InitSpec("gaussian", sigma=1.0),
                          history_cutoff=0.1)
        noise = S.draw_noise(cfg)
        noise[2, 15, 0, 0] = np.inf
        ens = S.run(cfg, noise=noise)
        assert ens.blowups == [(2, 16)]
        return ens

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("horizon", [None, 0.3])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_hit_equals_miss(self, n, horizon, threads, monkeypatch):
        # sums that fit the budget mean a run of one block, so threads take
        # no part in a run that keeps them; KSPP_THREADS = 2 pins that
        monkeypatch.setenv("KSPP_THREADS", threads)
        ens = self.blown_ensemble(n)
        ep = dataclasses.replace(EP, horizon=horizon)
        assert ens.drift_memo is not None
        # both read run's sums: no history sums, no pair geometry
        with mock.patch.object(E, "_history_sums",
                               wraps=E._history_sums) as sums:
            dom = E.drift_domination_check(ens, ep)
        with mock.patch.object(E, "_pair_geometry",
                               wraps=E._pair_geometry) as geometry:
            hold = E.holder_modulus(ens, ep)
        assert sums.call_count == 0
        assert all(c.args[1].ndim == 3 for c in geometry.call_args_list)
        assert dom.excluded == hold.excluded == (horizon is None)
        miss_dom = E.drift_domination_check(without_memo(ens), ep)
        miss_hold = fresh_holder(ens, ep)
        assert (dom.checked, dom.violations) == (miss_dom.checked,
                                                 miss_dom.violations)
        assert same_bits(dom.worst_margin, miss_dom.worst_margin)
        assert_same_holder(hold, miss_hold)

    def test_run_over_the_budget_keeps_no_memo(self):
        cfg = S.SimConfig(params=KernelParams(theta=1.0, chi=1.0, epsilon=0.05),
                          n_particles=4, dt=0.02, n_steps=20, n_replicas=4,
                          seed=3, init=S.InitSpec("gaussian", sigma=1.0))
        sums_bytes = 4 * 21 * 4 * 3 * 16
        with mock.patch.object(S, "DRIFT_BUDGET_BYTES", sums_bytes):
            assert S.run(cfg).drift_memo.sums.nbytes == sums_bytes
        with mock.patch.object(S, "DRIFT_BUDGET_BYTES", sums_bytes - 1):
            assert S.run(cfg).drift_memo is None
        # nor does a run without drift keep anything
        assert S.run(cfg).drift_memo is not None
        assert S.run(dataclasses.replace(
            cfg, params=KernelParams(theta=1.0, chi=0.0, epsilon=0.05))
        ).drift_memo is None

    def test_memo_within_the_budget(self):
        # pair_ensemble's N = 2 and 100 steps at the most replicas whose
        # sums fit the budget: what `run` leaves allocated besides the
        # positions is the memo, within DRIFT_BUDGET_BYTES; one replica
        # more keeps no memo
        budget = S.DRIFT_BUDGET_BYTES
        per_replica = 16 * 101 * 2
        r_n = budget // per_replica
        cfg = S.SimConfig(params=KernelParams(theta=1.0, chi=1.0, epsilon=0.05),
                          n_particles=2, dt=0.01, n_steps=100,
                          n_replicas=r_n, seed=5,
                          init=S.InitSpec("gaussian", sigma=1.0))
        initial, noise = S.draw_initial(cfg), S.draw_noise(cfg)
        tracemalloc.start()
        try:
            ens = S.run(cfg, initial=initial, noise=noise)
            held = tracemalloc.get_traced_memory()[0] - ens.positions.nbytes
        finally:
            tracemalloc.stop()
        assert ens.drift_memo.sums.nbytes == r_n * per_replica <= budget
        assert held <= budget + 64 * 1024
        # the hit path copies none of the memo: its peak is under the miss
        # path's, which forms the Gaussian factors
        peaks = []
        for target in (ens, without_memo(ens)):
            tracemalloc.start()
            try:
                E.drift_domination_check(target, EP)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1]
        assert S.run(dataclasses.replace(cfg, n_replicas=r_n + 1)
                     ).drift_memo is None


class TestTestFunctions:
    def test_compact_bump_support_and_fd(self):
        bump = E.CompactBump(radius=2.0)
        assert bump.value(np.array([2.5, 0.0])) == 0.0
        assert bump.value(np.array([0.0, 0.0])) == pytest.approx(1.0)
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.uniform(-1.6, 1.6, 2)
            h = 1e-6
            fd = np.array([
                (bump.value(x + [h, 0]) - bump.value(x - [h, 0])) / (2 * h),
                (bump.value(x + [0, h]) - bump.value(x - [0, h])) / (2 * h)])
            np.testing.assert_allclose(bump.grad(x), fd, rtol=1e-4, atol=1e-9)
            h2 = 1e-5
            lap_fd = (bump.value(x + [h2, 0]) + bump.value(x - [h2, 0])
                      + bump.value(x + [0, h2]) + bump.value(x - [0, h2])
                      - 4 * bump.value(x)) / h2 ** 2
            assert bump.lap(x) == pytest.approx(lap_fd, rel=1e-3, abs=1e-6)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0])
    def test_compact_bump_radius_validated(self, radius):
        # with a NaN radius every residual is 0 and with an infinite one
        # the bump is the constant 1: the martingale check would pass
        # vacuously
        with pytest.raises(ValueError, match="radius"):
            E.CompactBump(radius)

    def test_gaussian_bump_heat_operator(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            u = rng.uniform(0, 2)
            x = rng.uniform(-2, 2, 2)
            h = 1e-5
            dt_fd = (gauss_value(u + h, x) - gauss_value(u - h, x)) / (2 * h)
            lap_fd = (gauss_value(u, x + [h, 0]) + gauss_value(u, x - [h, 0])
                      + gauss_value(u, x + [0, h]) + gauss_value(u, x - [0, h])
                      - 4 * gauss_value(u, x)) / h ** 2
            assert gauss_heat(u, x) == pytest.approx(
                dt_fd + lap_fd, rel=1e-4, abs=1e-7)

    @pytest.mark.parametrize("radius", [3.0, 0.7])
    def test_compact_bump_matches_expression(self, radius):
        # the in-place value, grad and lap against the whole-array
        # expressions, bit for bit, inside, outside and on strided windows
        bump = E.CompactBump(radius)
        rng = np.random.default_rng(7)
        points = rng.uniform(-1.2 * radius, 1.2 * radius, (5, 33, 16, 2))
        for x in (points, points[:, 1:], points[0, 0, 0]):
            got = (bump.value(x), bump.grad(x), bump.lap(x))
            for a, b in zip(got, compact_bump_expressions(radius, x)):
                assert type(a) is type(b)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_compact_bump_extreme_inputs(self):
        # |x|^2 as x0 x0 + x1 x1 has the bits of the einsum in the
        # whole-array expressions on NaN, infinite, signed-zero, subnormal
        # and overflowing inputs, and a square that overflows warns of
        # nothing. An infinite |x|^2 makes 0 * inf outside the support
        # (grad's, lap's) invalid, as it did with einsum
        bump = E.CompactBump()
        rng = np.random.default_rng(8)
        finite = [0.0, -0.0, 5e-324, -2.5e-310, 1e-160, 0.3, -2.9, 3.0,
                  1e150, -1e200, 1.7e308]
        points = rng.choice(finite, (4, 9, 2))
        odd = np.array([[math.nan, 0.1], [0.2, math.nan], [math.inf, 0.0],
                        [-0.3, -math.inf], [math.inf, math.nan]])
        for x in (points, points[:, 1:], points[0, 0], odd):
            with np.errstate(invalid="ignore"):
                got = (bump.value(x), bump.grad(x), bump.lap(x))
            with np.errstate(all="ignore"):
                want = compact_bump_expressions(bump.radius, x)
            for a, b in zip(got, want):
                assert type(a) is type(b)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("chi", [0.0, 0.5])
    def test_compact_bump_far_replica_warns_nothing(self, chi):
        # finite points far outside the support, where |x|^2 overflows to
        # inf (1e200) or lands near the float maximum (1e154): lap is 0
        # there and warns of nothing, for a radius below 1 too, and so is
        # a replica that far out in martingale_residual
        far = np.array([[1e200, -3.0], [1e154, 0.0], [-7e153, 7e153]])
        ens = brownian_ensemble(n_particles=3, n_steps=16, n_replicas=4,
                                chi=chi)
        ens.positions[1] *= 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bump in (E.CompactBump(), E.CompactBump(0.5)):
                assert np.asarray(bump.lap(far)).tobytes() == bytes(24)
            rep = E.martingale_residual(ens, None, ("const",), s=0.125, t=0.25)
        assert rep.excluded == 0
        assert rep.per_replica[1] == 0.0
        assert np.isfinite(rep.per_replica).all()

    def test_compact_bump_lap_memory(self):
        # one martingale_residual block at N = 64 (31 replicas, 33 window
        # rows): lap holds at most six (B, T, N) arrays; the whole-array
        # expression held seven
        ens = brownian_ensemble(n_particles=64, n_steps=64, n_replicas=31)
        assert [len(b) for b in S.budget_blocks(31, 16 * 64 * 65)] == [31]
        window = ens.positions[:, 32:]
        tracemalloc.start()
        try:
            out = E.CompactBump().lap(window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * out.nbytes


def compact_bump_expressions(radius, x):
    """CompactBump's value, grad and lap as whole-array expressions."""
    x = np.asarray(x, float)
    sq = np.einsum("...c,...c->...", x, x)
    rho = sq / radius ** 2
    inside = rho < 1.0
    one_m = np.where(inside, 1.0 - rho, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        val = np.where(inside, np.exp(1.0 - 1.0 / one_m), 0.0)
    gp = -one_m ** -2.0
    gpp = -2.0 * one_m ** -3.0
    r2 = radius ** 2
    grad = np.where(inside, val * gp * 2.0 / r2, 0.0)[..., None] * x
    lap = np.where(inside,
                   val * ((gp ** 2 + gpp) * 4.0 * sq / r2 ** 2 + 4.0 * gp / r2),
                   0.0)
    return val, grad, lap


class TestItoBalance:
    def test_gaussian_chi_zero_residual(self):
        ens = brownian_ensemble(n_steps=128, n_replicas=500, seed=42,
                                dt=1.0 / 128)
        rep = E.ito_balance_check(ens, EP, f_spec="gaussian-bump")
        assert rep.passes
        assert abs(rep.mean) < 5 * max(rep.stderr, 1e-12)

    def test_gaussian_with_drift_and_source(self):
        # exercises the background-field and interaction terms end to end
        params = KernelParams(theta=1.0, chi=0.5, epsilon=0.1)
        source = SourceSpec(components=((1.0, (0.0, 0.0), 1.0),))
        cfg = S.SimConfig(params=params, source=source, n_particles=3,
                          dt=1.0 / 64, n_steps=64, n_replicas=300, seed=10,
                          init=S.InitSpec("gaussian", sigma=1.0))
        rep = E.ito_balance_check(S.run(cfg), EP, f_spec="gaussian-bump")
        assert rep.passes

    def test_gaussian_long_horizon_frozen_pair(self):
        # t = 800: F = e^(s - u - |x|^2) above the diagonal, where the
        # weights are 0, overflowed and made the residual NaN. At unit
        # distance F(u, x) = e^(-u - 1) and its heat operator is -F
        dt, m_t = 10.0, 80
        ens = frozen_pair_ensemble(dt=dt, n_steps=m_t, chi=0.0)
        rep = E.ito_balance_check(ens, EP, n_boot=5)
        w_tr = E._trap_weights(m_t, dt)

        def f(lag):
            return math.exp(-min(lag + 1.0, EXP_CLAMP))

        lhs = math.fsum(w_tr[s] * f((m_t - s) * dt) for s in range(m_t + 1))
        t1 = math.fsum(w_tr) * f(0.0)
        t2 = math.fsum(w_tr[u] * w * -f((u - s) * dt)
                       for u in range(1, m_t + 1)
                       for s, w in enumerate(E._trap_weights(u, dt)))
        assert rep.per_replica[0] == pytest.approx(lhs - t1 - t2, rel=1e-12)

    def test_unknown_spec(self):
        ens = brownian_ensemble(n_steps=8, n_replicas=2)
        for f_spec in ("mystery", "pair-potential"):
            with pytest.raises(ValueError, match="unknown test function"):
                E.ito_balance_check(ens, EP, f_spec=f_spec)

    @pytest.mark.parametrize("kw, match", [({"n_boot": 0}, "n_boot"),
                                           ({"n_boot": -3}, "n_boot"),
                                           ({"level": 2.0}, "level"),
                                           ({"level": math.nan}, "level")])
    def test_bootstrap_arguments_checked_before_the_grid(self, kw, match):
        # a bad level or n_boot is rejected before any pair geometry is
        # formed, not after the whole (u, s) grid pass
        ens = brownian_ensemble(n_steps=8, n_replicas=2)
        with mock.patch.object(E, "_pair_geometry",
                               side_effect=AssertionError("grid formed")):
            with pytest.raises(ValueError, match=match):
                E.ito_balance_check(ens, EP, **kw)


class TestMartingaleResidual:
    def test_chi_zero_centered(self):
        ens = brownian_ensemble(n_particles=4, n_steps=64, n_replicas=2000,
                                seed=8, dt=1.0 / 64)
        rep = E.martingale_residual(ens, None, ("const",), s=0.5, t=1.0)
        assert rep.passes

    def test_adapted_window_centered(self):
        ens = brownian_ensemble(n_particles=4, n_steps=64, n_replicas=2000,
                                seed=9, dt=1.0 / 64)
        rep = E.martingale_residual(ens, None, ("window", 0.5, -1.0, 1.0),
                                    s=0.5, t=1.0)
        assert rep.passes

    def test_negative_control_detects_misuse(self):
        # a path functional living after s correlates with the increment
        params = KernelParams(theta=1.0, chi=0.5, epsilon=0.05)
        cfg = S.SimConfig(params=params, n_particles=4, dt=1.0 / 32,
                          n_steps=32, n_replicas=3000, seed=12,
                          init=S.InitSpec("gaussian", sigma=0.5))
        ens = S.run(cfg)
        bump = E.CompactBump(radius=2.0)
        rep = E.martingale_residual(ens, bump, ("window", 1.0, -0.5, 0.5),
                                    s=0.5, t=1.0)
        assert abs(rep.mean) > 5 * rep.stderr
        assert not rep.passes

    @pytest.mark.parametrize("lo, hi, match", [
        (math.nan, 1.0, "window bounds"), (-1.0, math.nan, "window bounds"),
        (-math.inf, 1.0, "window bounds"), (1.0, -1.0, "window bounds"),
        (100.0, 101.0, "holds no particle")],
        ids=["nan_lo", "nan_hi", "infinite_lo", "inverted", "empty"])
    def test_window_selecting_nothing_rejected(self, lo, hi, match):
        # each window selects no particle: the residuals would all be 0,
        # with stderr 0 and a check that passes vacuously
        ens = brownian_ensemble(n_particles=4, n_steps=4, n_replicas=50,
                                dt=0.25)
        with pytest.raises(ValueError, match=match):
            E.martingale_residual(ens, None, ("window", 0.5, lo, hi),
                                  s=0.5, t=1.0)

    @pytest.mark.parametrize("level", [-0.1, 1.0, 1.5, math.nan])
    def test_level_outside_unit_interval_rejected(self, level):
        # 1.5 raised StatisticsError from the normal quantile, and NaN
        # gave a NaN interval
        ens = brownian_ensemble(n_steps=16, n_replicas=4)
        with pytest.raises(ValueError, match="level must lie in"):
            E.martingale_residual(ens, None, ("const",), s=0.25, t=0.5,
                                  level=level)

    def test_time_validation(self):
        ens = brownian_ensemble(n_steps=16, n_replicas=2)
        with pytest.raises(ValueError):
            E.martingale_residual(ens, None, ("const",), s=1.0, t=0.5)
        with pytest.raises(ValueError):
            E.martingale_residual(ens, None, ("nope",), s=0.25, t=0.5)

    def test_off_grid_times_rejected(self):
        # dt = 1/4: an off-grid s or tau raises, like an off-grid t,
        # instead of being rounded to a grid time (s = 0.3 to 0.25)
        ens = brownian_ensemble(n_steps=4, n_replicas=2, dt=0.25)
        for s, t in ((0.3, 1.0), (0.5, 0.9)):
            with pytest.raises(ValueError, match="not on the dt=0.25 grid"):
                E.martingale_residual(ens, None, ("const",), s=s, t=t)
        for tau in (-0.1, 0.3, -0.25, 1.25):
            with pytest.raises(ValueError, match="window time"):
                E.martingale_residual(ens, None, ("window", tau, -1.0, 1.0),
                                      s=0.5, t=1.0)
        for tau in (0.0, 1.0):   # the ends of [0, t]
            rep = E.martingale_residual(ens, None, ("window", tau, -1.0, 1.0),
                                        s=0.5, t=1.0)
            assert rep.per_replica.shape == (2,)


def reference_drifts(pos, cfg, m_lo, m_hi):
    """Interaction mean drift and background gradient on every particle of
    one replica's path at steps m_lo..m_hi, one pair_drifts call and one
    background_field call per step."""
    n = pos.shape[1]
    pairs = E.ordered_pairs(n)
    i_idx = np.array([i for i, _ in pairs])
    j_idx = np.array([j for _, j in pairs])
    d = np.stack([O.pair_drifts(pos[None], cfg, m, i_idx, j_idx)[0]
                  for m in range(m_lo, m_hi + 1)])
    grad_b = np.zeros((m_hi - m_lo + 1, n, 2))
    if not cfg.source.is_zero:
        grad_b = np.stack([background_field(m * cfg.dt + cfg.params.epsilon,
                                            pos[m], cfg.source, cfg.params)[1]
                           for m in range(m_lo, m_hi + 1)])
    return d.reshape(-1, n, n - 1, 2).sum(axis=2) / (n - 1), grad_b


def reference_ito(ens):
    """Per-replica Gaussian-bump Ito-balance residuals, one replica and
    one pair at a time, the background and interaction terms taken
    separately."""
    cfg, dt, chi = ens.config, ens.config.dt, ens.config.params.chi
    m_t, n = ens.n_steps, ens.n_particles
    w_tr = E._trap_weights(m_t, dt)
    times = np.arange(m_t + 1) * dt
    w_inner = np.zeros((m_t + 1, m_t + 1))
    for m in range(1, m_t + 1):
        w_inner[m, : m + 1] = E._trap_weights(m, dt)
    lag_mat = times[:, None] - times[None, :]
    out = []
    for r in range(ens.n_replicas):
        pos = ens.positions[r]
        drift = np.zeros((m_t + 1, n, 2))
        grad_b = np.zeros((m_t + 1, n, 2))
        if chi != 0.0:
            drift, grad_b = reference_drifts(pos, cfg, 0, m_t)
        per_pair = []
        for i, j in E.ordered_pairs(n):
            xi, xj = pos[:, i], pos[:, j]
            lhs = float(w_tr @ gauss_value(times[m_t] - times, xi[m_t][None] - xj))
            t1 = float(w_tr @ gauss_value(0.0, xi - xj))
            diff = xi[:, None, :] - xj[None, :, :]
            t2 = float(w_tr @ np.sum(w_inner * gauss_heat(lag_mat, diff), axis=1))
            grad_int = np.einsum("us,usc->uc", w_inner, gauss_grad(lag_mat, diff))
            t3 = chi * float(w_tr @ np.einsum("uc,uc->u", grad_int, grad_b[:, i]))
            t4 = chi * float(w_tr @ np.einsum("uc,uc->u", grad_int, drift[:, i]))
            per_pair.append(lhs - t1 - t2 - t3 - t4)
        out.append(math.fsum(per_pair) / len(per_pair))
    return np.array(out)


def reference_martingale(ens, path_spec, m_s):
    """Per-replica martingale residuals over [m_s dt, T], one replica at a
    time."""
    cfg, dt, chi = ens.config, ens.config.dt, ens.config.params.chi
    m_e, n = ens.n_steps, ens.n_particles
    phi = E.CompactBump()
    w_in = E._trap_weights(m_e - m_s, dt)
    out = []
    for r in range(ens.n_replicas):
        pos = ens.positions[r]
        window = pos[m_s: m_e + 1]
        gen = phi.lap(window)
        if chi != 0.0:
            drift, grad_b = reference_drifts(pos, cfg, m_s, m_e)
            gen = gen + chi * np.einsum("wnc,wnc->wn", phi.grad(window),
                                        drift + grad_b)
        integral = w_in @ gen
        vals = []
        for i in range(n):
            f = 1.0
            if path_spec[0] == "window":
                _, tau, lo, hi = path_spec
                pt = pos[int(round(tau / dt)), i]
                f = float(lo <= pt[0] <= hi and lo <= pt[1] <= hi)
            vals.append(f * (float(phi.value(pos[m_e, i]) - phi.value(pos[m_s, i]))
                             - float(integral[i])))
        out.append(math.fsum(vals) / n)
    return np.array(out)


class TestResidualBlocks:
    """The replica-block residuals equal the per-replica, per-pair loop:
    bit for bit at chi = 0; with a drift to rtol 1e-12 (atol 1e-14), since
    the block code takes the background and interaction terms as one total
    drift, the integrator's own, whose interaction sum runs in another
    order."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 5), replicas=st.integers(1, 5),
           steps=st.integers(3, 12), seed=st.integers(0, 2 ** 16),
           chi=st.sampled_from([0.0, 0.5]), source=st.booleans(),
           window=st.booleans(), data=st.data())
    def test_matches_reference(self, n, replicas, steps, seed, chi, source,
                               window, data):
        dt = 0.05
        cfg = S.SimConfig(
            params=KernelParams(theta=1.0, lam=0.2, chi=chi, epsilon=0.05),
            source=SourceSpec(components=((1.0, (0.5, 0.0), 1.0),)
                              if source else ()),
            n_particles=n, dt=dt, n_steps=steps, n_replicas=replicas,
            seed=seed, init=S.InitSpec("gaussian", sigma=1.0))
        ens = S.run(cfg)
        m_s = data.draw(st.integers(1, steps - 1))
        path = ("const",)
        if window:
            m_tau = data.draw(st.integers(0, steps))
            path = ("window", m_tau * dt, -0.8, 0.8)
            pt = ens.positions[:, m_tau]
            if not ((-0.8 <= pt) & (pt <= 0.8)).all(axis=-1).any():
                # a window that holds no particle raises instead of giving
                # all-zero residuals; the rest of the example runs on const
                with pytest.raises(ValueError, match="holds no particle"):
                    E.martingale_residual(ens, None, path, s=m_s * dt,
                                          t=steps * dt)
                path = ("const",)
        ito = E.ito_balance_check(ens, EP, f_spec="gaussian-bump", n_boot=20)
        mart = E.martingale_residual(ens, None, path, s=m_s * dt,
                                     t=steps * dt)
        ref_ito, ref_mart = reference_ito(ens), \
            reference_martingale(ens, path, m_s)
        assert ito.excluded == mart.excluded == 0
        if chi == 0.0:
            assert np.array_equal(ito.per_replica, ref_ito)
            assert np.array_equal(mart.per_replica, ref_mart)
        else:
            # atol: a residual is a difference of O(1) terms and may cancel
            # to near 0, where a few-ulp change in a term is a large
            # relative one
            np.testing.assert_allclose(ito.per_replica, ref_ito, rtol=1e-12,
                                       atol=1e-14)
            np.testing.assert_allclose(mart.per_replica, ref_mart, rtol=1e-12,
                                       atol=1e-14)

    def test_martingale_memory_bounded(self):
        # 40 replicas at N = 64, T = 65: a block is sized by its path copy
        # and lap's five (B, T, N) arrays; sized by the path copy alone, one
        # 31-replica block peaked at 4.8 MB
        ens = brownian_ensemble(n_particles=64, n_steps=64, n_replicas=40)
        tracemalloc.start()
        try:
            rep = E.martingale_residual(ens, None, ("const",), s=0.5, t=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(rep.per_replica).all()
        assert peak < S.DRIFT_BUDGET_BYTES

    def test_finite_replicas_memory_bounded(self):
        # the whole (R, T, N, 2) boolean array is 2.5 MB, over the budget;
        # the blocks' temporaries fit it, plus O(R) bytes of indices
        r_n, n_steps, n = 300, 64, 64
        cfg = S.SimConfig(params=KernelParams(theta=1.0), n_particles=n,
                          dt=1.0 / n_steps, n_steps=n_steps, n_replicas=r_n)
        pos = np.zeros((r_n, n_steps + 1, n, 2))
        assert pos.size > S.DRIFT_BUDGET_BYTES   # one boolean byte a value
        pos[3, 10:] = np.nan
        pos[161, 64, 5, 1] = np.inf      # past the m_t = 40 horizon
        pos[250, 30, 0, 0] = -np.inf
        pos[299, 0, 63, 1] = np.nan
        ens = S.TrajectoryEnsemble(positions=pos, config=cfg, rng_provenance={})
        for m_t in (n_steps, 40):
            tracemalloc.start()
            try:
                kept = E._finite_replicas(ens, m_t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            whole = np.isfinite(pos[:, : m_t + 1]).all(axis=(1, 2, 3))
            np.testing.assert_array_equal(kept, np.flatnonzero(whole))
            assert peak < S.DRIFT_BUDGET_BYTES + 16 * r_n
        assert 161 in kept and 250 not in kept

    @pytest.mark.parametrize("chi", [0.0, 0.5])
    def test_gaussian_blocks_share_grids(self, chi):
        # blocks of two of five replicas: the last block uses part of the
        # grids allocated for the first
        cfg = S.SimConfig(params=KernelParams(theta=1.0, chi=chi, epsilon=0.05),
                          n_particles=3, dt=0.05, n_steps=8, n_replicas=5,
                          seed=9, init=S.InitSpec("gaussian", sigma=1.0))
        ens = S.run(cfg)
        whole = E.ito_balance_check(ens, EP, n_boot=20)
        per_replica = 16 * 6 * 9 ** 2   # 6 pairs, (n_steps + 1)^2 grid
        with mock.patch.object(S, "DRIFT_BUDGET_BYTES", 2 * per_replica):
            assert [len(b) for b in S.budget_blocks(5, per_replica)] == [2, 2, 1]
            blocked = E.ito_balance_check(ens, EP, n_boot=20)
        assert np.array_equal(blocked.per_replica, whole.per_replica)

    @pytest.mark.parametrize("chi", [0.0, 0.5])
    def test_gaussian_u_tiles_match_whole_grid(self, chi):
        # a budget of two u rows per replica (24 * 6 pairs * 9 bytes a row:
        # two grids and the padded rows): the (u, s) grid of one replica
        # splits into 5 tiles, the last one row; every u row is still summed
        # over all 9 columns
        cfg = S.SimConfig(params=KernelParams(theta=1.0, chi=chi, epsilon=0.05),
                          n_particles=3, dt=0.05, n_steps=8, n_replicas=3,
                          seed=9, init=S.InitSpec("gaussian", sigma=1.0))
        ens = S.run(cfg)
        with mock.patch.object(E, "ITO_TILE_ROWS", 9):
            whole = E.ito_balance_check(ens, EP, n_boot=20)
        budget = 2 * 24 * 6 * 9
        with mock.patch.object(S, "DRIFT_BUDGET_BYTES", budget), \
                mock.patch.object(E, "_inner_tables",
                                  wraps=E._inner_tables) as tables:
            tiled = E.ito_balance_check(ens, EP, n_boot=20)
        assert sorted({c.args[2:] for c in tables.call_args_list}) == [
            (0, 2), (2, 4), (4, 6), (6, 8), (8, 9)]
        assert np.array_equal(tiled.per_replica, whole.per_replica)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("chi", [0.0, 0.5])
    @pytest.mark.parametrize("n_t", [127, 128, 129, 201])
    def test_gaussian_long_rows_match_whole_grid(self, n_t, chi, n):
        # rows of T >= 128 columns reach numpy's 128-element pairwise-sum
        # block, where a row summed over fewer columns than T would change
        # its bits: tiles of 1 to 16 rows over blocks of two replicas equal
        # the whole grid, and at chi = 0 the per-pair reference
        cfg = S.SimConfig(params=KernelParams(theta=1.0, chi=chi, epsilon=0.05),
                          n_particles=n, dt=1.0 / 128, n_steps=n_t - 1,
                          n_replicas=3, seed=n_t, init=S.InitSpec("gaussian",
                                                                  sigma=1.0))
        ens = S.run(cfg)
        row_bytes = 24 * n * (n - 1) * n_t   # two grids and the padded rows
        with mock.patch.object(E, "ITO_TILE_ROWS", n_t), \
                mock.patch.object(S, "DRIFT_BUDGET_BYTES", 3 * n_t * row_bytes):
            whole = E.ito_balance_check(ens, EP, n_boot=20).per_replica
        for rows in (1, 7, 8, 16):
            with mock.patch.object(E, "ITO_TILE_ROWS", rows), \
                    mock.patch.object(S, "DRIFT_BUDGET_BYTES",
                                      2 * rows * row_bytes):
                assert [len(b) for b in S.budget_blocks(
                    3, rows * row_bytes)] == [2, 1]
                tiled = E.ito_balance_check(ens, EP, n_boot=20).per_replica
            assert np.array_equal(tiled, whole)
        if chi == 0.0:
            assert np.array_equal(whole, reference_ito(ens))

    def test_gaussian_memory_bounded(self):
        # one N = 2 replica at M = 2000: the whole (u, s) grid would take
        # 16 * 2 * 2001^2 bytes, 128 MB; its u tiles fit the budget
        ens = brownian_ensemble(n_steps=2000, n_replicas=1, dt=1.0 / 2000)
        tracemalloc.start()
        try:
            rep = E.ito_balance_check(ens, EP, n_boot=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(rep.per_replica).all()
        assert peak < 4 * S.DRIFT_BUDGET_BYTES

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 5), replicas=st.integers(1, 5),
           steps=st.integers(2, 12), seed=st.integers(0, 2 ** 16),
           data=st.data())
    def test_e1_and_divergent_count_match_reference(self, n, replicas, steps,
                                                    seed, data):
        ens = brownian_ensemble(n_particles=n, n_steps=steps,
                                n_replicas=replicas, seed=seed)
        # pin particle 1 onto particle 0 from some step on in some replicas
        for r in range(replicas):
            m = data.draw(st.integers(0, steps + 1))
            ens.positions[r, m:, 1] = ens.positions[r, m:, 0]
        rep = E.paper_moments(ens, EP)
        pairs = E.ordered_pairs(n)
        i_idx = np.array([i for i, _ in pairs])
        j_idx = np.array([j for _, j in pairs])
        w_tr = E._trap_weights(steps, ens.config.dt)
        q = 2.0 * (EP.gamma - 1.0)
        e1, e1_gemv, divergent = [], [], 0
        for path in ens.positions:
            d_same = path[:, i_idx, :] - path[:, j_idx, :]
            dist = np.sqrt(np.einsum("mkc,mkc->mk", d_same, d_same))
            divergent += int((dist == 0.0).sum())
            with np.errstate(divide="ignore"):
                integrand = np.where(dist == 0.0, 0.0, dist ** (-q))
            e1.append(math.fsum(step_order(w_tr, integrand)) / len(pairs))
            e1_gemv.append(math.fsum(w_tr @ integrand) / len(pairs))
        assert rep.divergent_terms == divergent
        assert np.array_equal(rep.estimates["E1"].per_replica, e1)
        np.testing.assert_allclose(rep.estimates["E1"].per_replica, e1_gemv,
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("f_spec", ["gaussian-bump"])
    def test_nonfinite_replica_excluded_and_counted(self, f_spec):
        source = SourceSpec(components=((1.0, (0.5, 0.0), 1.0),))
        cfg = S.SimConfig(params=KernelParams(theta=1.0, chi=0.9, epsilon=0.05),
                          source=source, n_particles=3, dt=0.05, n_steps=12,
                          n_replicas=3, seed=4,
                          init=S.InitSpec("gaussian", sigma=1.0))
        ens = S.run(cfg)
        finite = dataclasses.replace(
            ens, positions=ens.positions[[0, 2]].copy(),
            config=dataclasses.replace(cfg, n_replicas=2))
        ens.positions[1, 5:] = np.nan

        def residuals(e):
            return (E.ito_balance_check(e, EP, f_spec=f_spec, n_boot=50),
                    E.martingale_residual(e, None, ("window", 0.2, -1.0, 1.0),
                                          s=0.3, t=0.6))

        for rep, clean in zip(residuals(ens), residuals(finite)):
            assert rep.excluded == 1 and clean.excluded == 0
            np.testing.assert_array_equal(rep.per_replica, clean.per_replica)
            assert ((rep.mean, rep.stderr, rep.ci_low, rep.ci_high, rep.passes)
                    == (clean.mean, clean.stderr, clean.ci_low, clean.ci_high,
                        clean.passes))

        # every replica blown: no estimate, and the check fails
        ens.positions[:, 5:] = np.nan
        for rep in residuals(ens):
            assert rep.excluded == 3 and rep.per_replica.size == 0
            assert math.isnan(rep.mean) and not rep.passes


def one_shot_bootstrap(values, level=0.99, n_boot=2000, seed=0):
    """bootstrap_mean_ci with the whole (n_boot, R) resample drawn at once."""
    rng = np.random.default_rng(seed)
    values = np.asarray(values, float)
    idx = rng.integers(0, len(values), size=(n_boot, len(values)))
    means = values[idx].mean(axis=1)
    lo, hi = np.quantile(means, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
    return float(lo), float(hi)


class TestBootstrap:
    @pytest.mark.parametrize("n, n_boot", [(1, 5), (3, 2000), (7, 2000),
                                           (10_000, 300), (10_007, 61)])
    def test_equals_one_shot_draw(self, n, n_boot):
        vals = np.random.default_rng(n).standard_normal(n)
        assert (E.bootstrap_mean_ci(vals, n_boot=n_boot, seed=n)
                == one_shot_bootstrap(vals, n_boot=n_boot, seed=n))

    @pytest.mark.parametrize("level", [0.0, 0.5, 0.9, 0.95, 1.0])
    @pytest.mark.parametrize("n_boot", [1, 2, 61, 2000])
    def test_levels_equal_np_quantile(self, n_boot, level):
        # the order-statistic percentiles are np.quantile's, at the ends of
        # [0, 1] and on both sides of numpy's _lerp switch at weight 1/2
        vals = np.random.default_rng(n_boot).standard_normal(9)
        assert (E.bootstrap_mean_ci(vals, level=level, n_boot=n_boot, seed=1)
                == one_shot_bootstrap(vals, level=level, n_boot=n_boot,
                                      seed=1))

    def test_memory_bounded(self):
        vals = np.random.default_rng(0).standard_normal(10_000)
        tracemalloc.start()
        try:
            E.bootstrap_mean_ci(vals)  # the one-shot draw peaked at 320 MB
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * S.DRIFT_BUDGET_BYTES

    @pytest.mark.parametrize("level", [-0.5, 1.5, math.nan])
    def test_level_outside_unit_interval_rejected(self, level):
        with pytest.raises(ValueError):
            E.bootstrap_mean_ci(np.arange(5.0), level=level)

    @pytest.mark.parametrize("n_boot", [0, -3])
    def test_no_resample_rejected(self, n_boot):
        # 0 divided by zero and -3 raised numpy's negative dimensions error
        with pytest.raises(ValueError, match="n_boot must be >= 1"):
            E.bootstrap_mean_ci(np.arange(5.0), n_boot=n_boot)

    def test_leaves_out_numpy_ma(self):
        # np.quantile's first call imports numpy.ma
        src = str(Path(kspp.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        code = ("import sys\n"
                "from kspp import estimators as E, simulator as S\n"
                "from kspp.kernels import KernelParams\n"
                "cfg = S.SimConfig(params=KernelParams(theta=1.0, chi=0.0), "
                "n_particles=2, dt=0.125, n_steps=8, n_replicas=4, seed=1, "
                "init=S.InitSpec('gaussian', sigma=1.0))\n"
                "E.ito_balance_check(S.run(cfg), "
                "E.EstimatorParams(gamma=1.6, alpha=0.05))\n"
                "print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_shifted_sample_excludes_zero(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(1.0, 0.1, 400)
        lo, hi = E.bootstrap_mean_ci(vals, level=0.99, seed=1)
        assert lo > 0.5
        assert lo < 1.0 < hi

import dataclasses
import itertools
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from kspp import simulator as S
from kspp.kernels import (EXP_CLAMP, KernelParams, SourceSpec,
                          background_field)


def make_config(**kw):
    params = kw.pop("params", KernelParams(theta=1.0, chi=0.0, epsilon=0.05))
    defaults = dict(params=params, n_particles=2, dt=0.01, n_steps=20,
                    n_replicas=1, seed=0, init=S.InitSpec("gaussian", sigma=1.0))
    defaults.update(kw)
    return S.SimConfig(**defaults)


class TestInit:
    def test_point_mass(self):
        cfg = make_config(init=S.InitSpec("point", center=(0.0, 0.0)),
                          n_replicas=3)
        ens = S.init_ensemble(cfg)
        np.testing.assert_array_equal(ens.positions[:, 0], 0.0)

    def test_gaussian_law_of_large_numbers(self):
        cfg = make_config(init=S.InitSpec("gaussian", sigma=1.0),
                          n_particles=2, n_replicas=50000)
        x0 = S.draw_initial(cfg)
        n = x0.shape[0] * x0.shape[1]
        mean = x0.reshape(-1, 2).mean(axis=0)
        assert np.all(np.abs(mean) < 4.0 / math.sqrt(n))

    def test_mirrored_pair(self):
        cfg = make_config(init=S.InitSpec("mirrored_pair", center=(0.7, -0.1)))
        x0 = S.draw_initial(cfg)
        np.testing.assert_array_equal(x0[0, 0], [0.7, -0.1])
        np.testing.assert_array_equal(x0[0, 1], [-0.7, 0.1])

    def test_uniform_disk(self):
        cfg = make_config(init=S.InitSpec("uniform_disk", center=(1.0, 1.0),
                                          radius=2.0), n_replicas=2000)
        x0 = S.draw_initial(cfg).reshape(-1, 2)
        r = np.linalg.norm(x0 - [1.0, 1.0], axis=-1)
        assert np.all(r <= 2.0)
        # mean radius of a uniform disk is 2R/3
        assert r.mean() == pytest.approx(4.0 / 3.0, abs=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            S.InitSpec("blob")
        with pytest.raises(ValueError):
            make_config(n_particles=1)
        with pytest.raises(ValueError):
            make_config(dt=0.0)
        with pytest.raises(ValueError):
            make_config(noise_mode="spicy")
        with pytest.raises(ValueError):
            make_config(noise_mode="mirrored", n_particles=3)
        with pytest.raises(ValueError):
            make_config(init=S.InitSpec("mirrored_pair"), n_particles=4)
        with pytest.raises(ValueError):
            make_config(history_cutoff=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_values_rejected(self, bad):
        for field, build in (
                ("dt", lambda: make_config(dt=bad)),
                ("history_cutoff", lambda: make_config(history_cutoff=bad)),
                ("sigma", lambda: S.InitSpec("gaussian", sigma=bad)),
                ("radius", lambda: S.InitSpec("uniform_disk", radius=bad)),
                ("center", lambda: S.InitSpec("point", center=(0.0, bad)))):
            with pytest.raises(ValueError, match=field):
                build()


def reference_draws(cfg):
    """Initial positions and noise from a fresh Generator(Philox(key)) per
    (replica, particle, purpose): the stream definition, written out."""
    def stream(r, i, purpose):
        key = np.array([cfg.seed % 2 ** 64, (purpose << 62) | (r << 31) | i],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    r_n, m, n = cfg.n_replicas, cfg.n_steps, cfg.n_particles
    spec, center = cfg.init, np.asarray(cfg.init.center, dtype=float)
    initial = np.empty((r_n, n, 2))
    noise = np.empty((r_n, m, n, 2))
    root_dt = math.sqrt(cfg.dt)
    for r in range(r_n):
        for i in range(n):
            gen = stream(r, i, 0)
            if spec.kind == "gaussian":
                initial[r, i] = center + spec.sigma * gen.standard_normal(2)
            else:
                rad = spec.radius * math.sqrt(gen.uniform())
                ang = gen.uniform(0.0, 2.0 * math.pi)
                initial[r, i] = center + rad * np.array([math.cos(ang),
                                                         math.sin(ang)])
        if cfg.noise_mode == "mirrored":
            w = root_dt * stream(r, 0, 1).standard_normal((m, 2))
            noise[r, :, 0], noise[r, :, 1] = w, -w
        else:
            for i in range(n):
                noise[r, :, i] = root_dt * stream(r, i, 1).standard_normal((m, 2))
    return initial, noise


class TestStreams:
    """One reused generator draws exactly the per-(replica, particle) streams."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["gaussian", "uniform_disk"]),
           mirrored=st.booleans(), n=st.integers(2, 5),
           replicas=st.integers(1, 4), steps=st.integers(0, 12),
           seed=st.one_of(st.sampled_from([0, -1, -987654321, 2 ** 63,
                                           2 ** 63 + 5, 2 ** 64 - 1]),
                          st.integers(-2 ** 70, 2 ** 70)),
           dt=st.floats(1e-4, 1.0), sigma=st.floats(0.1, 3.0),
           cx=st.floats(-5.0, 5.0))
    @example(kind="gaussian", mirrored=False, n=5, replicas=3, steps=7,
             seed=0, dt=0.01, sigma=1.0, cx=0.5)
    @example(kind="uniform_disk", mirrored=True, n=2, replicas=3, steps=7,
             seed=-12345, dt=0.01, sigma=2.0, cx=-1.0)
    @example(kind="uniform_disk", mirrored=False, n=3, replicas=2, steps=5,
             seed=2 ** 63 + 5, dt=0.3, sigma=0.5, cx=0.0)
    @example(kind="gaussian", mirrored=True, n=2, replicas=2, steps=5,
             seed=2 ** 64 - 1, dt=0.3, sigma=0.5, cx=0.0)
    def test_equal_to_fresh_generators(self, kind, mirrored, n, replicas,
                                       steps, seed, dt, sigma, cx):
        cfg = make_config(n_particles=2 if mirrored else n, n_steps=steps,
                          n_replicas=replicas, seed=seed, dt=dt,
                          noise_mode="mirrored" if mirrored else "standard",
                          init=S.InitSpec(kind, center=(cx, -0.5),
                                          sigma=sigma, radius=sigma))
        initial, noise = reference_draws(cfg)
        assert np.array_equal(S.draw_initial(cfg), initial)
        assert np.array_equal(S.draw_noise(cfg), noise)
        # a range of replicas, as a block of `run` draws it
        assert np.array_equal(S.draw_noise(cfg, range(1, replicas)), noise[1:])

    def test_reselecting_rewinds_the_stream(self):
        select = S._streams(7, purpose=1)
        first = select(3, 2).standard_normal(5)
        select(3, 1).standard_normal(9)
        assert np.array_equal(select(3, 2).standard_normal(5), first)

    @pytest.mark.parametrize("replica, particle",
                             [(2 ** 31, 0), (0, 2 ** 31), (-1, 0), (0, -1)])
    def test_key_range(self, replica, particle):
        select = S._streams(0, purpose=1)
        with pytest.raises(ValueError, match="31-bit"):
            select(replica, particle)


class TestHistoryDrift:
    def test_empty_history_is_zero(self):
        cfg = make_config(params=KernelParams(theta=1.0, chi=1.0, epsilon=0.05))
        ens = S.run(cfg)
        d = S.pair_drifts(ens.positions, cfg, 0, [0, 1], [1, 0])
        np.testing.assert_array_equal(d, np.zeros((1, 2, 2)))

    def test_frozen_pair_matches_oracle(self):
        # positions pinned by chi = 0 and zero noise; criterion tolerance
        params = KernelParams(theta=1.0, lam=0.0, chi=0.0, epsilon=1e-4)
        cfg = make_config(params=params, dt=1e-4, n_steps=10000,
                          noise_mode="zero")
        init = np.array([[[0.0, 0.0], [1.0, 0.0]]])
        ens = S.run(cfg, initial=init)
        d_hat = S.pair_drifts(ens.positions, cfg, 10000, [0], [1])[0, 0]
        oracle = S.frozen_drift_oracle(
            np.array([-1.0, 0.0]), 1.0, KernelParams(theta=1.0, chi=1.0))
        rel = np.linalg.norm(d_hat - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-3

    def test_pair_antisymmetry_mirrored_frozen(self):
        params = KernelParams(theta=1.0, chi=0.0, epsilon=0.01)
        cfg = make_config(params=params, noise_mode="zero",
                          init=S.InitSpec("mirrored_pair", center=(0.4, 0.2)),
                          n_steps=10)
        ens = S.run(cfg)
        for m in range(11):
            d12 = S.pair_drifts(ens.positions, cfg, m, [0], [1])[0, 0]
            d21 = S.pair_drifts(ens.positions, cfg, m, [1], [0])[0, 0]
            np.testing.assert_array_equal(d12, -d21)

    def test_history_cutoff_truncates(self):
        params = KernelParams(theta=1.0, chi=0.0, epsilon=0.05)
        cfg = make_config(params=params, n_steps=30, seed=5)
        ens = S.run(cfg)
        pos = ens.positions[0]
        m = 30
        cut = dataclasses.replace(cfg, history_cutoff=5 * cfg.dt)
        d_cut = S.pair_drifts(ens.positions, cut, m, [0], [1])[0, 0]
        # manual sum over the last five history rows
        p = cfg.params
        manual = np.zeros(2)
        for l in range(m - 5, m):
            u = (m - l) * cfg.dt
            diff = pos[m, 0] - pos[l, 1]
            w = p.theta / (8 * math.pi * (u + p.epsilon) ** 2)
            manual += -cfg.dt * w * math.exp(
                -min(p.theta * float(diff @ diff) / (4 * u), EXP_CLAMP)) * diff
        np.testing.assert_allclose(d_cut, manual, rtol=1e-12)
        full = dataclasses.replace(cfg, history_cutoff=10.0)
        np.testing.assert_array_equal(
            S.pair_drifts(ens.positions, full, m, [0], [1])[0, 0],
            S.pair_drifts(ens.positions, cfg, m, [0], [1])[0, 0])

    def test_envelope_dominates_discrete_drift(self):
        from kspp.kernels import grad_envelope
        params = KernelParams(theta=1.0, chi=1.0, epsilon=0.05)
        cfg = make_config(params=params, n_steps=40, seed=9)
        ens = S.run(cfg)
        pos = ens.positions[0]
        alpha = 0.08
        for m in (1, 10, 40):
            d = S.pair_drifts(ens.positions, cfg, m, [0], [1])[0, 0]
            lags = (m - np.arange(m)) * cfg.dt
            diffs = pos[m, 0][None, :] - pos[:m, 1, :]
            env_sum = cfg.dt * float(np.sum(
                grad_envelope(lags, diffs, alpha, params)))
            assert np.linalg.norm(d) <= env_sum * (1 + 1e-12)

    @pytest.mark.parametrize("source", [False, True])
    @pytest.mark.parametrize("cutoff", [None, 0.05])
    def test_two_particles_drift_is_the_pair_drift(self, source, cutoff):
        # at N = 2 each particle has one other: the interaction drift is
        # D^{0,1} and D^{1,0} themselves, bit for bit, with no self pair
        # added and taken away
        params = KernelParams(theta=1.0, lam=0.2, chi=1.0, epsilon=0.05)
        cfg = make_config(params=params, n_steps=25, n_replicas=4, seed=11,
                          history_cutoff=cutoff,
                          source=_MIXTURE if source else SourceSpec())
        x = S.run(cfg).positions
        steps = range(cfg.n_steps + 1)
        want = np.stack([S.pair_drifts(x, cfg, m, [0, 1], [1, 0])
                         for m in steps], axis=1)
        if source:
            t = np.asarray(steps) * cfg.dt + params.epsilon
            want += background_field(t[:, None], x, cfg.source, params)[1]
        np.testing.assert_array_equal(S.step_drifts(x, steps, cfg), want)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 9), steps=st.integers(1, 20),
           replicas=st.integers(1, 3), seed=st.integers(0, 2 ** 16),
           cutoff=st.booleans(), data=st.data())
    def test_mean_drift_matches_label_order_mean(self, n, steps, replicas,
                                                 seed, cutoff, data):
        # the kernel sums over j != i in cyclic order from i + 1: the mean
        # of pair_drifts summed in label order agrees to 1e-15 of the
        # largest |D^{i,j}| of each (replica, i); 600 random configs of
        # this shape gave at most 2.8e-16
        params = KernelParams(theta=1.0, lam=0.2, chi=1.0, epsilon=0.05)
        cfg = make_config(params=params, n_particles=n, n_steps=steps,
                          n_replicas=replicas, seed=seed, dt=0.02,
                          history_cutoff=0.1 if cutoff else None)
        pos = S.run(cfg).positions
        m = data.draw(st.integers(1, steps), label="m")
        work = S._drift_workspace(replicas, n, S._drift_window(m, cfg))
        got = S._mean_drifts(S._split_history(pos), m, cfg, work)
        i_idx, j_idx = zip(*[(i, j) for i in range(n) for j in range(n)
                             if j != i])
        pair = S.pair_drifts(pos, cfg, m, i_idx, j_idx).reshape(
            replicas, n, n - 1, 2)
        want = pair.sum(axis=2) / (n - 1)
        scale = np.abs(pair).max(axis=(2, 3))[..., None]
        assert np.all(np.abs(got - want) <= 1e-15 * scale)


class TestStepAndRun:
    def test_chi_zero_increments_are_noise(self):
        cfg = make_config(n_steps=30, n_replicas=4, seed=2)
        noise = S.draw_noise(cfg)
        ens = S.run(cfg, noise=noise)
        inc = np.diff(ens.positions, axis=1)
        np.testing.assert_allclose(inc, math.sqrt(2.0) * noise,
                                   rtol=1e-12, atol=1e-15)

    def test_chi_zero_variance(self):
        cfg = make_config(dt=0.02, n_steps=50, n_replicas=100, seed=3,
                          init=S.InitSpec("point"))
        ens = S.run(cfg)
        inc = np.diff(ens.positions[:, :, 0, :], axis=1).reshape(-1, 2)
        n = inc.shape[0] * 2
        var = float(inc.var(ddof=1))
        se = 2 * cfg.dt * math.sqrt(2.0 / (n - 1))
        assert abs(var - 2 * cfg.dt) < 5 * se

    def test_attraction_moves_particles_together(self):
        params = KernelParams(theta=1.0, chi=2.0, epsilon=0.01)
        cfg = make_config(params=params, n_steps=100, noise_mode="zero")
        init = np.array([[[0.5, 0.0], [-0.5, 0.0]]])
        ens = S.run(cfg, initial=init)
        x1 = ens.positions[0, :, 0, 0]
        assert np.all(np.diff(x1[1:]) < 0)
        assert x1[-1] < x1[0]
        # mirror pair stays mirrored under zero noise
        np.testing.assert_allclose(ens.positions[0, :, 0, :],
                                   -ens.positions[0, :, 1, :], atol=1e-15)

    def test_bit_reproducibility(self):
        params = KernelParams(theta=1.0, chi=0.8, epsilon=0.05)
        cfg = make_config(params=params, n_steps=15, n_replicas=3, seed=21)
        a, b = S.run(cfg), S.run(cfg)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_replica_prefix_stability(self):
        cfg2 = make_config(n_replicas=2, seed=9)
        cfg4 = make_config(n_replicas=4, seed=9)
        np.testing.assert_array_equal(S.run(cfg2).positions,
                                      S.run(cfg4).positions[:2])

    def test_exchangeability_permutation(self):
        params = KernelParams(theta=1.0, chi=1.0, epsilon=0.05)
        cfg = make_config(params=params, n_particles=3, n_steps=2, seed=11)
        init = S.draw_initial(cfg)
        noise = S.draw_noise(cfg)
        perm = [2, 0, 1]
        a = S.run(cfg, initial=init, noise=noise)
        b = S.run(cfg, initial=init[:, perm], noise=noise[:, :, perm])
        np.testing.assert_array_equal(a.positions[:, :, perm], b.positions)

    @pytest.mark.parametrize("cutoff", [None, 0.05])
    @pytest.mark.parametrize("n, noise_mode", [(2, "standard"), (2, "mirrored"),
                                               (32, "standard")])
    @pytest.mark.parametrize("chi", [0.0, 0.8])
    def test_step_prefix_stability(self, chi, n, noise_mode, cutoff):
        # a run over k steps is the first k + 1 rows of a run over K > k:
        # every stream is prefix-stable and step m reads only rows 0..m
        params = KernelParams(theta=1.0, lam=0.2, chi=chi, epsilon=0.05)
        cfg = make_config(params=params, n_particles=n, n_steps=100,
                          n_replicas=2, seed=31, noise_mode=noise_mode,
                          history_cutoff=cutoff)
        short = S.run(dataclasses.replace(cfg, n_steps=30))
        full = S.run(cfg)
        np.testing.assert_array_equal(short.positions, full.positions[:, :31])
        if n == 32 and chi != 0.0 and cutoff is None:
            # the two runs step their replicas in different blocks
            assert (short.counters["replica_blocks"],
                    full.counters["replica_blocks"]) == (1, 2)

    def test_mirror_symmetry_exact(self):
        params = KernelParams(theta=1.0, lam=0.3, chi=1.0, epsilon=0.05)
        cfg = make_config(params=params, n_steps=50, n_replicas=3, seed=7,
                          init=S.InitSpec("mirrored_pair", center=(0.7, -0.2)),
                          noise_mode="mirrored")
        ens = S.run(cfg)
        np.testing.assert_array_equal(ens.positions[:, :, 0, :],
                                      -ens.positions[:, :, 1, :])

    def test_zero_steps_equals_init(self):
        cfg = make_config(n_steps=0, n_replicas=2, seed=13)
        ens = S.run(cfg)
        np.testing.assert_array_equal(ens.positions[:, 0],
                                      S.draw_initial(cfg))
        assert ens.positions.shape[1] == 1

    @pytest.mark.parametrize("source", [False, True])
    @pytest.mark.parametrize("cutoff", [None, 0.05])
    def test_step_drifts_reproduce_euler_steps(self, source, cutoff):
        # zero noise: each Euler step adds exactly chi * dt * step_drifts
        params = KernelParams(theta=1.0, lam=0.2, chi=0.8, epsilon=0.05)
        cfg = make_config(params=params, n_particles=4, n_steps=25,
                          n_replicas=3, seed=5, noise_mode="zero",
                          history_cutoff=cutoff,
                          source=_MIXTURE if source else SourceSpec())
        x = S.run(cfg).positions
        drift = S.step_drifts(x, range(cfg.n_steps), cfg)
        np.testing.assert_array_equal(x[:, 1:],
                                      x[:, :-1] + params.chi * drift * cfg.dt)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 9), steps=st.integers(1, 30),
           seed=st.integers(0, 2 ** 16), source=st.booleans(), data=st.data())
    def test_relabeling_within_tolerance(self, n, steps, seed, source, data):
        # the contract stated in run's docstring: relabeled inputs give the
        # relabeled paths to 1e-12, not bit for bit (the j-sum runs in
        # cyclic order from i + 1)
        params = KernelParams(theta=1.0, lam=0.2, chi=1.0, epsilon=0.05)
        cfg = make_config(params=params, n_particles=n, n_steps=steps,
                          seed=seed, dt=0.02,
                          source=_MIXTURE if source else SourceSpec())
        perm = data.draw(st.permutations(range(n)))
        init, noise = S.draw_initial(cfg), S.draw_noise(cfg)
        a = S.run(cfg, initial=init, noise=noise)
        b = S.run(cfg, initial=init[:, perm], noise=noise[:, :, perm])
        np.testing.assert_allclose(b.positions, a.positions[:, :, perm],
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_relabeling_exact_up_to_three_particles(self, n):
        # each particle's sum over the others has at most two terms, and
        # a + b == b + a: every relabeling permutes the paths bit for bit
        params = KernelParams(theta=1.0, lam=0.2, chi=1.0, epsilon=0.05)
        cfg = make_config(params=params, n_particles=n, n_steps=30,
                          n_replicas=3, seed=17, dt=0.02, source=_MIXTURE)
        init, noise = S.draw_initial(cfg), S.draw_noise(cfg)
        a = S.run(cfg, initial=init, noise=noise)
        for perm in itertools.permutations(range(n)):
            perm = list(perm)
            b = S.run(cfg, initial=init[:, perm], noise=noise[:, :, perm])
            np.testing.assert_array_equal(b.positions, a.positions[:, :, perm])

    def test_epsilon_required_with_drift(self):
        params = KernelParams(theta=1.0, chi=1.0, epsilon=0.0)
        cfg = make_config(params=params)
        with pytest.raises(ValueError):
            S.run(cfg)

    def test_blowup_marks_only_its_replica(self):
        params = KernelParams(theta=1.0, chi=1e308, epsilon=1e-12)
        cfg = S.SimConfig(params=params, n_particles=2, dt=10.0, n_steps=4,
                          n_replicas=3, seed=1,
                          init=S.InitSpec("gaussian", sigma=1e-3))
        ens = S.run(cfg)
        assert ens.blowups
        blown = {r for r, _ in ens.blowups}
        for r in range(3):
            finite = np.isfinite(ens.positions[r]).all()
            if r in blown:
                step = dict(ens.blowups)[r]
                assert not np.isfinite(ens.positions[r, step:]).all()
                assert np.isfinite(ens.positions[r, : step]).all()
            else:
                assert finite

    @pytest.mark.parametrize("chi", [0.0, 1.0])
    def test_blowups_at_several_steps_keep_every_row(self, chi):
        # one block, replicas blown at steps 3, 11 and 31 by an infinite
        # increment: each keeps its rows before the blow-up, NaN from it on,
        # and the other replicas' paths are those of the clean run
        params = KernelParams(theta=1.0, chi=chi, epsilon=0.05)
        cfg = make_config(params=params, n_particles=3, dt=0.01, n_steps=40,
                          n_replicas=12, seed=4)
        noise = S.draw_noise(cfg)
        clean = S.run(cfg, noise=noise)
        for r, m in ((2, 2), (5, 10), (11, 30)):
            noise[r, m, 0, 1] = np.inf
        ens = S.run(cfg, noise=noise)
        assert ens.counters["replica_blocks"] == 1
        assert ens.blowups == [(2, 3), (5, 11), (11, 31)]
        for r, step in ens.blowups:
            np.testing.assert_array_equal(ens.positions[r, :step],
                                          clean.positions[r, :step])
            assert np.isnan(ens.positions[r, step:]).all()
        kept = [r for r in range(12) if r not in (2, 5, 11)]
        np.testing.assert_array_equal(ens.positions[kept],
                                      clean.positions[kept])

    def test_thread_parallel_matches_serial(self):
        params = KernelParams(theta=1.0, chi=0.9, epsilon=0.05)
        cfg = make_config(params=params, n_steps=10, n_replicas=4, seed=23)
        # blocks of one replica, so that the threads have blocks to share
        with mock.patch.object(S, "DRIFT_BUDGET_BYTES", 16 * 2 * 1 * 10):
            assert len(S.budget_blocks(4, 16 * 2 * 1 * 10)) == 4
            a = S.run(cfg)
            with mock.patch.dict(os.environ, {"KSPP_THREADS": "3"}):
                b = S.run(cfg)
        np.testing.assert_array_equal(a.positions, b.positions)
        assert a.counters == b.counters

    def test_thread_env_variable(self, monkeypatch):
        params = KernelParams(theta=1.0, chi=0.9, epsilon=0.05)
        cfg = make_config(params=params, n_steps=10, n_replicas=4, seed=23)
        serial = S.run(cfg)
        monkeypatch.setenv("KSPP_THREADS", "2")
        np.testing.assert_array_equal(serial.positions, S.run(cfg).positions)
        monkeypatch.setenv("KSPP_THREADS", "not-a-number")
        np.testing.assert_array_equal(serial.positions, S.run(cfg).positions)

    def test_replica_blocks_follow_the_budget(self):
        # one replica's drift temporary holds 16 * N(N - 1) pairs * rows bytes
        assert S.budget_blocks(300, 16 * 2 * 1 * 100) == [range(0, 300)]
        assert S.budget_blocks(2, 16 * 32 * 31 * 200) == [range(0, 1),
                                                          range(1, 2)]
        per = 16 * 9 * 10
        with mock.patch.object(S, "DRIFT_BUDGET_BYTES", 2 * per + per // 2):
            assert S.budget_blocks(5, per) == [range(0, 2), range(2, 4),
                                               range(4, 5)]
        # no drift temporary (chi = 0): every replica in one block
        assert S.budget_blocks(500, 0) == [range(0, 500)]
        assert S.budget_blocks(0, 0) == S.budget_blocks(0, per) == []

    def test_run_memory_is_positions_plus_workspace(self):
        # N = 32, M = 60: blocks of two replicas, each with one workspace of
        # three (B, N, N - 1, M) arrays and a (2, B, 2N - 1, M) doubled
        # history window sliced at every step; fresh per-step arrays held
        # four (B, N, N, m) at once
        import tracemalloc
        params = KernelParams(theta=1.0, lam=0.1, chi=1.0, epsilon=0.05)
        cfg = make_config(params=params, n_particles=32, n_steps=60,
                          n_replicas=4, seed=3)
        initial, noise = S.draw_initial(cfg), S.draw_noise(cfg)
        blocks = S.budget_blocks(4, 16 * 32 * 31 * 60)
        assert [len(b) for b in blocks] == [2, 2]
        block_array = 8 * 2 * 32 * 31 * 60
        tracemalloc.start()
        try:
            ens = S.run(cfg, initial=initial, noise=noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (ens.positions.nbytes + 3 * block_array
                       + block_array // 2)
        assert ens.counters == {"replica_blocks": 2, "drift_workspace_bytes":
                                3 * block_array + 8 * 2 * 2 * 63 * 60,
                                "drift_tile_rows": 32}
        assert not ens.blowups

    def test_counters(self):
        params = KernelParams(theta=1.0, chi=1.0, epsilon=0.05)
        cfg = make_config(params=params, n_particles=3, n_steps=5,
                          n_replicas=2, history_cutoff=0.03)
        want = {"replica_blocks": 1,  # three grids and the window, 3 rows
                "drift_workspace_bytes": (3 * 8 * 2 * 3 * 2 + 8 * 2 * 2 * 5) * 3,
                "drift_tile_rows": 3}
        assert S.run(cfg).counters == want
        assert S.run(make_config(n_replicas=2)).counters == {
            "replica_blocks": 1, "drift_workspace_bytes": 0,
            "drift_tile_rows": 0}

    def test_drift_seconds_reported(self):
        params = KernelParams(theta=1.0, chi=1.0, epsilon=0.05)
        cfg = make_config(params=params, n_steps=20)
        assert S.run(cfg).drift_seconds > 0.0
        assert S.run(make_config(n_steps=20)).drift_seconds == 0.0


_MIXTURE = SourceSpec(components=((0.5, (-1.0, 0.0), 0.5),
                                  (0.5, (1.0, 0.0), 0.5)))


@st.composite
def batch_cases(draw):
    """A small config plus an optional (replica, step) whose noise is inf."""
    n = draw(st.integers(2, 5))
    steps = draw(st.integers(1, 8))
    replicas = draw(st.integers(3, 6))
    modes = ["standard", "zero"] + (["mirrored"] if n == 2 else [])
    cfg = make_config(
        params=KernelParams(theta=1.0, lam=0.2,
                            chi=draw(st.sampled_from([0.9, 0.0])),
                            epsilon=0.05),
        n_particles=n, n_steps=steps, n_replicas=replicas,
        seed=draw(st.integers(0, 2 ** 16)),
        history_cutoff=draw(st.sampled_from([None, 0.02, 0.05])),
        source=draw(st.sampled_from([SourceSpec(), _MIXTURE])),
        noise_mode=draw(st.sampled_from(modes)))
    blow = draw(st.none() | st.tuples(st.integers(0, replicas - 1),
                                      st.integers(0, steps - 1)))
    return cfg, blow


class TestBatchedStepping:
    """run() on R replicas equals R single-replica runs, bit for bit."""

    @staticmethod
    def check(cfg, blow, threads="1"):
        initial = S.draw_initial(cfg)
        noise = S.draw_noise(cfg)
        if blow is not None:
            noise[blow[0], blow[1], 0, 0] = np.inf
        with mock.patch.dict(os.environ, {"KSPP_THREADS": threads}):
            ens = S.run(cfg, initial=initial, noise=noise)
        single = dataclasses.replace(cfg, n_replicas=1)
        blowups = []
        for r in range(cfg.n_replicas):
            one = S.run(single, initial=initial[r: r + 1],
                        noise=noise[r: r + 1])
            np.testing.assert_array_equal(ens.positions[r], one.positions[0])
            blowups += [(r, step) for _, step in one.blowups]
        assert ens.blowups == blowups
        if blow is not None:
            assert (blow[0], blow[1] + 1) in ens.blowups
        for r, step in ens.blowups:
            assert np.isfinite(ens.positions[r, :step]).all()
            assert np.isnan(ens.positions[r, step:]).all()

    @settings(max_examples=40, deadline=None)
    @given(batch_cases())
    def test_one_block(self, case):
        self.check(*case)

    @settings(max_examples=40, deadline=None)
    @given(batch_cases())
    def test_blocks_of_two(self, case):
        cfg, blow = case
        n = cfg.n_particles
        rows = cfg.n_steps - S._history_start(cfg.n_steps, cfg)
        per_replica = 16 * n * (n - 1) * rows
        with mock.patch.object(S, "DRIFT_BUDGET_BYTES", 2 * per_replica):
            if cfg.params.chi != 0.0:
                assert len(S.budget_blocks(cfg.n_replicas, per_replica)) > 1
            self.check(cfg, blow)
            self.check(cfg, blow, threads="2")


class TestTargetTiles:
    """The drift kernel in i-tiles of target particles: every tile keeps
    its history rows whole, so the paths do not depend on the tiles."""

    @pytest.mark.parametrize("cutoff", [None, 0.1])
    @pytest.mark.parametrize("tile", [1, 2, 3, 5])
    def test_paths_do_not_depend_on_the_tiles(self, tile, cutoff):
        n = 5
        params = KernelParams(theta=1.0, lam=0.2, chi=1.0, epsilon=0.05)
        cfg = make_config(params=params, n_particles=n, n_steps=24,
                          n_replicas=3, seed=19, dt=0.02,
                          history_cutoff=cutoff, source=_MIXTURE)
        whole = S.run(cfg)
        assert whole.counters["drift_tile_rows"] == n
        steps = range(cfg.n_steps + 1)
        drifts = S.step_drifts(whole.positions, steps, cfg)
        # one replica's dx and dy over `tile` target particles: blocks of
        # one replica, each in tiles of `tile` rows
        rows = S._drift_rows(cfg)
        with mock.patch.object(S, "DRIFT_BUDGET_BYTES",
                               tile * 16 * (n - 1) * rows):
            tiled = S.run(cfg)
            assert len(S._drift_workspace(3, n, rows)[1][0]) == max(
                1, tile // 3)
            tiled_drifts = S.step_drifts(whole.positions, steps, cfg)
        assert tiled.counters["replica_blocks"] == 3
        assert tiled.counters["drift_tile_rows"] == tile
        assert tiled.counters["drift_workspace_bytes"] == 8 * rows * (
            2 * (2 * n - 1) + 3 * tile * (n - 1))
        np.testing.assert_array_equal(tiled.positions, whole.positions)
        np.testing.assert_array_equal(tiled_drifts, drifts)

    @pytest.mark.parametrize("chi", [0.0, 0.9])
    def test_noise_drawn_per_block(self, chi):
        # without `noise`, each block draws its own replicas' streams: the
        # paths are those of the noise drawn whole, in blocks of two
        # replicas stepped on two threads
        n, steps = 3, 12
        cfg = make_config(params=KernelParams(theta=1.0, chi=chi, epsilon=0.05),
                          n_particles=n, n_steps=steps, n_replicas=5, seed=29)
        passed = S.run(cfg, noise=S.draw_noise(cfg))
        # a replica's dx and dy, or without drift, its noise
        per_replica = 16 * n * ((n - 1) * steps if chi else steps)
        with mock.patch.object(S, "DRIFT_BUDGET_BYTES", 2 * per_replica), \
                mock.patch.dict(os.environ, {"KSPP_THREADS": "2"}):
            drawn = S.run(cfg)
        assert drawn.counters["replica_blocks"] == 3
        np.testing.assert_array_equal(drawn.positions, passed.positions)

    def test_simulate_memory_without_the_noise_array(self):
        # kspp simulate's path at perfbench's brownian_mart_64 shape (N = 64,
        # 64 steps, 500 replicas, chi = 0): blocks of replicas whose noise
        # fits the budget draw their own, so the peak is the positions plus
        # one block's noise, without the 33 MB (R, M, N, 2) noise array
        import tracemalloc
        cfg = make_config(n_particles=64, n_steps=64, n_replicas=500,
                          dt=1.0 / 64, seed=1)
        noise_bytes = 8 * 500 * 64 * 64 * 2
        tracemalloc.start()
        try:
            ens = S.run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.counters["replica_blocks"] == 16
        assert peak < ens.positions.nbytes + 2 * S.DRIFT_BUDGET_BYTES
        assert 2 * S.DRIFT_BUDGET_BYTES < noise_bytes // 4


class TestHistoryLayout:
    """Every pair-history pass sums the history rows along one contiguous
    last axis, so the bits of the drift contraction depend only on the
    number of rows: not on the replica blocks, the threads, the pair
    gather or the pairs' order."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 7), steps=st.integers(1, 16),
           replicas=st.integers(1, 5), seed=st.integers(0, 2 ** 16),
           cutoff=st.booleans(), data=st.data())
    def test_contraction_bits_depend_only_on_history_length(
            self, n, steps, replicas, seed, cutoff, data):
        params = KernelParams(theta=1.0, lam=0.2, chi=0.9, epsilon=0.05)
        cfg = make_config(params=params, n_particles=n, n_steps=steps,
                          n_replicas=replicas, seed=seed, dt=0.02,
                          history_cutoff=0.1 if cutoff else None)
        serial = S.run(cfg)
        # any split into replica blocks, stepped on two threads
        size = data.draw(st.integers(1, replicas), label="block size")
        rows = S._drift_rows(cfg)
        with mock.patch.object(S, "DRIFT_BUDGET_BYTES",
                               size * 16 * n * (n - 1) * rows), \
                mock.patch.dict(os.environ, {"KSPP_THREADS": "2"}):
            split = S.run(cfg)
        assert split.counters["replica_blocks"] == -(-replicas // size)
        np.testing.assert_array_equal(split.positions, serial.positions)

        # the full (R, i, j, l) grid at step m, contracted at once ...
        pos = serial.positions
        m = data.draw(st.integers(1, steps), label="m")
        l0, lags, w = S._conv_weights(m, cfg)
        h = S._split_history(pos).swapaxes(0, 1)
        dx, dy, sq = S._pair_geometry(h[:, :, :, None, m, None],
                                      h[:, :, None, :, l0:m])
        g = S._gauss_factor(sq, lags, cfg, out=sq)
        full = -cfg.dt * np.stack(S._history_sums(dx, dy, g, w), axis=-1)
        # ... equals each (replica, pair) row contracted alone (g now holds
        # the coefficients) ...
        for r, i, j in np.ndindex(full.shape[:3]):
            row = [np.einsum("l,l->", g[r, i, j].copy(), d[r, i, j].copy())
                   for d in (dx, dy)]
            assert np.array_equal(full[r, i, j], -cfg.dt * np.array(row))
        # ... and the kernel's (R, i, k, l) grid over the other particles
        # j = (i + 1 + k) mod N, formed from the doubled window ...
        rows = m - l0
        window = np.empty((2, len(pos), 2 * n - 1, rows))
        others = S._others(h, l0, m, window)
        assert not others.flags.writeable
        cx, cy, csq = S._pair_geometry(h[:, :, :, None, m, None], others)
        cg = S._gauss_factor(csq, lags, cfg, out=csq)
        cyclic = -cfg.dt * np.stack(S._history_sums(cx, cy, cg, w), axis=-1)
        for i, k in np.ndindex(n, n - 1):
            np.testing.assert_array_equal(cyclic[:, i, k],
                                          full[:, i, (i + 1 + k) % n])
        # ... and pair_drifts on any pair subset, in any order
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, n - 1)),
                                   min_size=1, max_size=12), label="pairs")
        i_idx, j_idx = (list(k) for k in zip(*pairs))
        np.testing.assert_array_equal(S.pair_drifts(pos, cfg, m, i_idx, j_idx),
                                      full[:, i_idx, j_idx])

    @pytest.mark.parametrize("into", [False, True])
    def test_pair_geometry_is_dx2_plus_dy2(self, into):
        # dx and dy by one subtraction and |d|^2 by one einsum over the
        # coordinates: the bits of dx * dx + dy * dy, with ±inf, NaN and
        # signed zeros among the inputs, into given arrays or fresh ones
        rng = np.random.default_rng(3)
        special = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e200, -1e-200]
        now = rng.standard_normal((2, 3, 4, 1)) * 10.0 ** rng.integers(
            -5, 6, (2, 3, 4, 1))
        past = rng.standard_normal((2, 3, 1, 37))
        now.flat[rng.choice(now.size, 5, replace=False)] = special[:5]
        past.flat[rng.choice(past.size, 7, replace=False)] = special
        out = (np.empty((2, 3, 4, 37)), np.empty((3, 4, 37))) if into else None
        dx, dy, sq = S._pair_geometry(now, past, out=out)
        with np.errstate(over="ignore", invalid="ignore"):
            want_x, want_y = now[0] - past[0], now[1] - past[1]
            want = want_x * want_x + want_y * want_y
        for got, ref in ((dx, want_x), (dy, want_y), (sq, want)):
            assert np.array_equal(np.isnan(got), np.isnan(ref))
            keep = ~np.isnan(ref)
            assert np.array_equal(got[keep].view(np.int64),
                                  ref[keep].view(np.int64))
        assert np.isinf(sq).any() and np.isnan(sq).any()
        if into:
            assert dx.base is out[0] and sq is out[1]


class TestFrozenDriftOracle:
    def test_closed_form_large_time(self):
        got = S.frozen_drift_oracle(np.array([1.0, 0.0]), 1e12,
                                    KernelParams(theta=1.0, chi=1.0))
        np.testing.assert_allclose(got, [-1 / (2 * math.pi), 0.0], rtol=1e-12)

    def test_closed_form_unit_time(self):
        got = S.frozen_drift_oracle(np.array([1.0, 0.0]), 1.0,
                                    KernelParams(theta=1.0, chi=1.0))
        want = [-math.exp(-0.25) / (2 * math.pi), 0.0]
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_quadrature_closed_form_consistency(self):
        r = np.array([1.0, 0.0])
        closed = S.frozen_drift_oracle(r, 1.0, KernelParams(theta=1.0, chi=1.0))
        smoothed = S.frozen_drift_oracle(
            r, 1.0, KernelParams(theta=1.0, chi=1.0, epsilon=1e-6))
        assert np.linalg.norm(smoothed - closed) < 1e-4

    def test_quadrature_against_direct_quad(self):
        params = KernelParams(theta=2.0, lam=0.5, chi=1.0, epsilon=0.02)
        r = np.array([0.6, -0.8])
        sq = float(r @ r)

        def w(u):
            return (params.theta / (8 * math.pi * (u + params.epsilon) ** 2)
                    * math.exp(-params.lam * u / params.theta)
                    * math.exp(-params.theta * sq / (4 * u)))

        ref, _ = quad(w, 0, 0.7, limit=300)
        got = S.frozen_drift_oracle(r, 0.7, params)
        np.testing.assert_allclose(got, -r * ref, rtol=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            S.frozen_drift_oracle(np.zeros(2), 1.0, KernelParams(theta=1.0, chi=1.0))
        with pytest.raises(ValueError):
            S.frozen_drift_oracle(np.ones(2), 0.0, KernelParams(theta=1.0, chi=1.0))


class TestBackgroundDrift:
    def test_source_gradient_enters_step(self):
        # single offset Gaussian source pulls a lone-pair system toward it
        source = SourceSpec(components=((5.0, (2.0, 0.0), 0.5),))
        params = KernelParams(theta=1.0, chi=1.0, epsilon=0.1)
        cfg = make_config(params=params, source=source, n_steps=50,
                          noise_mode="zero", init=S.InitSpec("point"))
        ens = S.run(cfg)
        x_end = ens.positions[0, -1, 0]
        assert x_end[0] > 0.1  # moved toward the source at (2, 0)
        assert abs(x_end[1]) < 1e-12

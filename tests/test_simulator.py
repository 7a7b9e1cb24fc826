import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from kspp import simulator as S
from kspp.kernels import EXP_CLAMP, KernelParams, SourceSpec


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

    def test_step_matches_run(self):
        params = KernelParams(theta=1.0, chi=0.7, epsilon=0.05)
        cfg = make_config(params=params, n_steps=3, n_replicas=2, seed=17)
        noise = S.draw_noise(cfg)
        full = S.run(cfg, noise=noise)
        ens = S.init_ensemble(cfg)
        for m in range(3):
            S.step(ens, m, noise[:, m])
        np.testing.assert_array_equal(ens.positions, full.positions)
        # without noise, step draws the same increments from the streams
        ens = S.init_ensemble(cfg)
        for m in range(3):
            S.step(ens, m)
        np.testing.assert_array_equal(ens.positions, full.positions)

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
        # label order)
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

    def test_step_draws_only_rows_up_to_m(self, monkeypatch):
        cfg = make_config(n_steps=40, n_replicas=2, seed=4)
        drawn = []
        real = S.draw_noise

        def spy(config):
            drawn.append(config.n_steps)
            return real(config)

        monkeypatch.setattr(S, "draw_noise", spy)
        ens = S.init_ensemble(cfg)
        for m in range(3):
            S.step(ens, m)
        assert drawn == [1, 2, 3]
        np.testing.assert_array_equal(ens.positions[:, :4],
                                      S.run(cfg).positions[:, :4])

    def test_step_index_validation(self):
        cfg = make_config(n_steps=2)
        ens = S.init_ensemble(cfg)
        with pytest.raises(ValueError):
            S.step(ens, 5)

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

    def test_thread_parallel_matches_serial(self):
        params = KernelParams(theta=1.0, chi=0.9, epsilon=0.05)
        cfg = make_config(params=params, n_steps=10, n_replicas=4, seed=23)
        a = S.run(cfg, n_threads=1)
        b = S.run(cfg, n_threads=3)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_thread_env_variable(self, monkeypatch):
        params = KernelParams(theta=1.0, chi=0.9, epsilon=0.05)
        cfg = make_config(params=params, n_steps=10, n_replicas=4, seed=23)
        serial = S.run(cfg)
        monkeypatch.setenv("KSPP_THREADS", "2")
        np.testing.assert_array_equal(serial.positions, S.run(cfg).positions)
        monkeypatch.setenv("KSPP_THREADS", "not-a-number")
        np.testing.assert_array_equal(serial.positions, S.run(cfg).positions)

    def test_replica_blocks_follow_the_budget(self):
        # one replica's drift temporary holds 16 * pairs * rows bytes
        assert S.replica_blocks(300, 2 * 2, 100) == [range(0, 300)]
        assert S.replica_blocks(2, 32 * 32, 200) == [range(0, 1), range(1, 2)]
        per = 16 * 9 * 10
        with mock.patch.object(S, "DRIFT_BUDGET_BYTES", 2 * per + per // 2):
            assert S.replica_blocks(5, 9, 10) == [range(0, 2), range(2, 4),
                                                  range(4, 5)]
        # no drift temporary (chi = 0): every replica in one block
        assert S.replica_blocks(500, 64 * 64, 0) == [range(0, 500)]

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
    def check(cfg, blow, n_threads=None):
        initial = S.draw_initial(cfg)
        noise = S.draw_noise(cfg)
        if blow is not None:
            noise[blow[0], blow[1], 0, 0] = np.inf
        ens = S.run(cfg, initial=initial, noise=noise, n_threads=n_threads)
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
        with mock.patch.object(S, "DRIFT_BUDGET_BYTES", 2 * 16 * n * n * rows):
            if cfg.params.chi != 0.0:
                assert len(S.replica_blocks(cfg.n_replicas, n * n, rows)) > 1
            self.check(cfg, blow)
            self.check(cfg, blow, n_threads=2)


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

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kspp import kernels as K
from kspp.constants import c0_const

import oracles as O

P1 = K.KernelParams(theta=1.0, chi=1.0)


def gl_box_quadrature(fn, half, n=400):
    """Tensor Gauss-Legendre integral of fn over [-half, half]^2."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    u = half * nodes
    w2 = np.outer(weights, weights) * half * half
    grid = np.stack(np.meshgrid(u, u, indexing="ij"), axis=-1)
    return float(np.sum(fn(grid) * w2))


class TestHeatKernel:
    def test_center_value(self):
        assert K.heat_kernel(1.0, [0.0, 0.0], P1) == pytest.approx(1 / (4 * math.pi), abs=1e-15)

    def test_offcenter_value(self):
        # (theta/4 pi t) e^{-1/(4*0.25)} = (1/pi) e^{-1}
        got = K.heat_kernel(0.25, [1.0, 0.0], P1)
        assert got == pytest.approx(math.exp(-1) / math.pi, rel=1e-14)

    @pytest.mark.parametrize("t,theta", [(1.0, 1.0), (0.2, 3.0), (5.0, 0.3)])
    def test_normalization(self, t, theta):
        params = K.KernelParams(theta=theta, chi=1.0)
        half = 20.0 * math.sqrt(t / theta)
        total = gl_box_quadrature(lambda g: K.heat_kernel(t, g, params), half)
        assert abs(total - 1.0) < 1e-6

    def test_time_scale_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = rng.uniform(0.05, 5.0)
            theta = rng.uniform(0.1, 10.0)
            x = rng.uniform(-3, 3, 2)
            a = K.heat_kernel(t, x, K.KernelParams(theta=theta, chi=1.0))
            b = K.heat_kernel(t / theta, x, P1)
            assert a == pytest.approx(b, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            K.heat_kernel(0.0, [0.0, 0.0], P1)
        with pytest.raises(ValueError):
            K.chemo_kernel(-1.0, [0.0, 0.0], P1)
        with pytest.raises(ValueError):
            K.chemo_kernel_grad(0.0, [1.0, 0.0], P1)


class TestGradients:
    def test_zero_at_origin(self):
        assert np.all(K.chemo_kernel_grad(0.7, [0.0, 0.0], P1) == 0.0)

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        params = K.KernelParams(theta=2.0, lam=0.4, chi=1.0)
        for _ in range(50):
            t = rng.uniform(0.05, 5.0)
            x = rng.uniform(-4, 4, 2)
            g1 = K.chemo_kernel_grad(t, x, params)
            g2 = K.chemo_kernel_grad(t, -x, params)
            np.testing.assert_array_equal(g1, -g2)

    def test_finite_differences(self):
        rng = np.random.default_rng(2)
        params = K.KernelParams(theta=2.3, lam=0.7, chi=1.0)
        worst = 0.0
        for _ in range(100):
            t = rng.uniform(0.1, 5.0)
            ang = rng.uniform(0, 2 * math.pi)
            x = rng.uniform(0.1, 5.0) * np.array([math.cos(ang), math.sin(ang)])
            h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
            fd = np.array([
                (K.chemo_kernel(t, x + [h, 0], params)
                 - K.chemo_kernel(t, x - [h, 0], params)) / (2 * h),
                (K.chemo_kernel(t, x + [0, h], params)
                 - K.chemo_kernel(t, x - [0, h], params)) / (2 * h),
            ])
            grad = K.chemo_kernel_grad(t, x, params)
            worst = max(worst, np.linalg.norm(fd - grad) / np.linalg.norm(grad))
        assert worst < 1e-5


class TestSmoothedGrad:
    def test_zero_time_limit(self):
        params = K.KernelParams(theta=1.0, chi=1.0, epsilon=0.1)
        np.testing.assert_array_equal(
            K.smoothed_grad(0.0, [3.0, -1.0], params), [0.0, 0.0])
        np.testing.assert_array_equal(
            K.smoothed_grad(0.0, [0.0, 0.0], params), [0.0, 0.0])

    def test_zero_time_unsmoothed_error(self):
        with pytest.raises(ValueError):
            K.smoothed_grad(0.0, [1.0, 0.0], P1)

    def test_matches_unsmoothed_at_eps0(self):
        got = K.smoothed_grad(1.0, [1.0, 0.0], P1)
        want = np.array([-math.exp(-0.25) / (8 * math.pi), 0.0])
        np.testing.assert_allclose(got, want, rtol=1e-14)
        np.testing.assert_array_equal(got, K.chemo_kernel_grad(1.0, [1.0, 0.0], P1))

    def test_dominated_by_unsmoothed(self):
        rng = np.random.default_rng(3)
        params = K.KernelParams(theta=1.7, lam=0.2, chi=1.0, epsilon=0.3)
        for _ in range(200):
            t = rng.uniform(1e-3, 5.0)
            x = rng.uniform(-4, 4, 2)
            h = np.linalg.norm(K.smoothed_grad(t, x, params))
            g = np.linalg.norm(K.chemo_kernel_grad(t, x, P1.__class__(
                theta=1.7, lam=0.2, chi=1.0)))
            assert h <= g * (1 + 1e-12)


class TestEnvelope:
    def test_origin_formula(self):
        theta, alpha = 2.0, 0.07
        params = K.KernelParams(theta=theta, chi=1.0)
        for t in (0.1, 1.0, 4.0):
            want = math.sqrt(theta) * c0_const(4 * alpha / theta) / (4 * math.pi * t ** 1.5)
            assert K.grad_envelope(t, [0.0, 0.0], alpha, params) == pytest.approx(want, rel=1e-12)

    def test_envelope_dominates_sweep(self):
        rng = np.random.default_rng(4)
        for eps in (0.0, 0.1):
            for _ in range(20):
                params = K.KernelParams(theta=float(rng.uniform(0.1, 10)),
                                        chi=1.0, epsilon=eps)
                alpha = float(rng.uniform(0.01, 0.3))
                ts = rng.uniform(0.0, 5.0, 1000)
                if eps == 0.0:
                    ts = np.maximum(ts, 1e-9)
                ang = rng.uniform(0, 2 * math.pi, 1000)
                xs = rng.uniform(0, 5, 1000)[:, None] * np.stack(
                    [np.cos(ang), np.sin(ang)], axis=-1)
                mags = np.linalg.norm(K.smoothed_grad(ts, xs, params), axis=-1)
                env = K.grad_envelope(ts, xs, alpha, params)
                assert np.all(mags <= env * (1 + 1e-12))

    def test_near_tightness(self):
        # the bound is attained where theta |x|^2 / 4t hits the C0 argmax
        params = K.KernelParams(theta=1.0, chi=1.0, epsilon=0.0)
        alpha = 0.08
        ts = np.geomspace(0.05, 5.0, 120)
        rs = np.geomspace(0.05, 5.0, 120)
        tt, rr = np.meshgrid(ts, rs, indexing="ij")
        xs = np.stack([rr, np.zeros_like(rr)], axis=-1)
        mags = np.linalg.norm(K.smoothed_grad(tt, xs, params), axis=-1)
        env = K.grad_envelope(tt, xs, alpha, params)
        ratio = env / mags
        assert np.all(ratio >= 1.0 - 1e-12)
        assert ratio.min() < 1.01

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            K.grad_envelope(1.0, [0.0, 0.0], 0.0, P1)


class TestBackgroundField:
    def test_empty_source(self):
        b, gb = K.background_field(0.3, [1.0, 2.0], K.SourceSpec(), P1)
        assert b == 0.0
        np.testing.assert_array_equal(gb, [0.0, 0.0])

    def test_single_gaussian_closed_form(self):
        source = K.SourceSpec(components=((1.0, (0.0, 0.0), 1.0),))
        for t in (0.1, 0.5, 2.0):
            for x in ([0.0, 0.0], [0.3, 0.4], [-1.0, 2.0]):
                b, _ = K.background_field(t, x, source, P1)
                v = 1.0 + 2.0 * t
                want = math.exp(-(x[0] ** 2 + x[1] ** 2) / (2 * v)) / (2 * math.pi * v)
                assert b == pytest.approx(want, rel=1e-13)

    def test_convolution_quadrature_oracle(self):
        # independent route: numerically convolve the heat kernel with c0
        source = K.SourceSpec(components=((0.7, (0.5, -0.3), 0.8),
                                          (0.4, (-1.0, 0.2), 1.5)))
        params = K.KernelParams(theta=1.5, lam=0.3, chi=1.0)
        t, x = 0.6, np.array([0.4, 0.9])

        def integrand(y):
            return (K.heat_kernel(t, x - y, params) * O.source_density(source, y)
                    * math.exp(-params.lam * t / params.theta))

        ref = gl_box_quadrature(integrand, 14.0, n=600)
        b, _ = K.background_field(t, x, source, params)
        assert b == pytest.approx(ref, rel=1e-5)

    def test_gradient_matches_finite_differences(self):
        source = K.SourceSpec(components=((0.7, (0.5, -0.3), 0.8),
                                          (0.4, (-1.0, 0.2), 1.5)))
        params = K.KernelParams(theta=1.5, lam=0.3, chi=1.0)
        rng = np.random.default_rng(5)
        for _ in range(25):
            t = rng.uniform(0.1, 3.0)
            x = rng.uniform(-2, 2, 2)
            h = 1e-6
            fdx = (K.background_field(t, x + [h, 0], source, params)[0]
                   - K.background_field(t, x - [h, 0], source, params)[0]) / (2 * h)
            fdy = (K.background_field(t, x + [0, h], source, params)[0]
                   - K.background_field(t, x - [0, h], source, params)[0]) / (2 * h)
            _, gb = K.background_field(t, x, source, params)
            np.testing.assert_allclose(gb, [fdx, fdy], rtol=2e-5, atol=1e-12)

    def test_gradient_sup_bound(self):
        # sup_x |grad b_t| <= ||grad g_t||_{p'} ||c0||_p with p = 4
        source = K.SourceSpec(components=((1.0, (0.0, 0.0), 1.0),))
        params = K.KernelParams(theta=1.0, chi=1.0, p=4.0)
        p_prime = 4.0 / 3.0
        c0_norm = O.source_lp_norm(source, 4.0)
        xs = np.stack(np.meshgrid(np.linspace(-4, 4, 41),
                                  np.linspace(-4, 4, 41), indexing="ij"), axis=-1)
        for t in (0.05, 0.2, 1.0, 3.0):
            _, gb = K.background_field(t, xs, source, params)
            sup = float(np.linalg.norm(gb, axis=-1).max())
            bound = O.heat_grad_lp_norm(t, p_prime, params) * c0_norm
            assert sup <= bound * (1 + 1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            K.background_field(0.0, [0.0, 0.0], K.SourceSpec(), P1)


class TestBackgroundGrad:
    """background_grad is background_field's gradient without b, bit for bit."""

    COMPONENTS = ((0.7, (0.5, -0.3), 0.8), (0.4, (0.0, 0.0), 1.5),
                  (1.3, (-1.0, 0.2), 0.05))
    PARAMS = K.KernelParams(theta=1.5, lam=0.3, chi=1.0, epsilon=0.05)

    @staticmethod
    def same_bits(a, b):
        a, b = np.asarray(a, float), np.asarray(b, float)
        return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                     b.view(np.int64))

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_bits_equal_background_field(self, k):
        source = K.SourceSpec(components=self.COMPONENTS[:k])
        rng = np.random.default_rng(k)
        # random points, every center exactly (d = +0), -0 against the
        # center at the origin (d = -0), and points past the exponent's
        # clamp of the narrowest component
        x = np.concatenate([rng.uniform(-3, 3, (20, 2)),
                            [c for _, c, _ in self.COMPONENTS],
                            [[-0.0, -0.0], [0.0, -0.0], [-0.0, 5.0]],
                            [[12.0, -9.0], [-40.0, 3.0], [1e3, 1e3]]])
        for t in (0.01, 0.7, 25.0, np.array([0.3, 1e-9, 4.0])[:, None]):
            got = K.background_grad(t, x, source, self.PARAMS)
            want = K.background_field(t, x, source, self.PARAMS)[1]
            assert self.same_bits(got, want)

    def test_steps_shaped_time(self):
        # the (S, 1) times and (B, S, N, 2) positions that step_drifts passes
        source = K.SourceSpec(components=self.COMPONENTS)
        x = np.random.default_rng(3).standard_normal((4, 6, 5, 2))
        t = (np.arange(7, 13) * 0.01 + 0.05)[:, None]
        got = K.background_grad(t, x, source, self.PARAMS)
        assert got.shape == (4, 6, 5, 2)
        assert self.same_bits(
            got, K.background_field(t, x, source, self.PARAMS)[1])


COORD = st.one_of(st.floats(-6.0, 6.0), st.sampled_from([0.0, -0.0]))
COMPONENT = st.tuples(st.floats(0.01, 5.0), st.tuples(COORD, COORD),
                      st.floats(0.01, 4.0))


class TestMixtureTerms:
    """The one-pass component terms against the per-component sum
    (`oracles.background_reference`), bit for bit, -0.0 included."""

    @staticmethod
    def same_bits(a, b):
        a, b = np.asarray(a, float), np.asarray(b, float)
        return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                     b.view(np.int64))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(comps=st.lists(COMPONENT, min_size=1, max_size=4),
           lam=st.sampled_from([0.0, 0.3]),
           t=st.floats(1e-6, 30.0),
           pts=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=6))
    def test_scalar_time(self, comps, lam, t, pts):
        source = K.SourceSpec(components=tuple(comps))
        params = K.KernelParams(theta=1.5, lam=lam, epsilon=0.05)
        # the points, each component's center (d = 0) and a point past
        # the exponent's clamp
        x = np.array(pts + [c for _, c, _ in comps] + [(1e3, -1e3)])
        for xs in (x, x[0]):
            b, grad = K.background_field(t, xs, source, params)
            want_b, want_grad = O.background_reference(t, xs, source, params)
            assert self.same_bits(b, want_b)
            assert self.same_bits(grad, want_grad)
            assert self.same_bits(K.background_grad(t, xs, source, params),
                                  want_grad)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(comps=st.lists(COMPONENT, min_size=1, max_size=4),
           steps=st.integers(1, 6), n=st.integers(1, 5), seed=st.integers(0, 99))
    def test_steps_shaped_time(self, comps, steps, n, seed):
        # step_drifts' (S, 1) times against (B, S, N, 2) positions
        source = K.SourceSpec(components=tuple(comps))
        params = K.KernelParams(theta=1.5, lam=0.3, epsilon=0.05)
        x = 2.0 * np.random.default_rng(seed).standard_normal((2, steps, n, 2))
        t = (np.arange(3, 3 + steps) * 0.01 + 0.05)[:, None]
        want_b, want_grad = O.background_reference(t, x, source, params)
        b, grad = K.background_field(t, x, source, params)
        assert self.same_bits(b, want_b)
        assert self.same_bits(grad, want_grad)
        assert self.same_bits(K.background_grad(t, x, source, params), want_grad)


class TestNonFiniteArguments:
    """A NaN time passes no `t <= 0` or `t < 0` test: each function rejects
    it instead of returning NaN."""

    SOURCE = K.SourceSpec(components=((1.0, (0.0, 0.0), 1.0),))
    SMOOTHED = K.KernelParams(theta=1.0, chi=1.0, epsilon=0.05)

    @pytest.mark.parametrize("t", [math.nan, [0.5, math.nan]])
    def test_heat_kernel(self, t):
        with pytest.raises(ValueError, match="heat_kernel requires t > 0"):
            K.heat_kernel(t, [0.3, 0.1], P1)

    @pytest.mark.parametrize("t", [math.nan, [0.5, math.nan]])
    def test_chemo_kernel(self, t):
        with pytest.raises(ValueError, match="chemo_kernel requires t > 0"):
            K.chemo_kernel(t, [0.3, 0.1], P1)

    @pytest.mark.parametrize("t", [math.nan, [0.5, math.nan]])
    def test_chemo_kernel_grad(self, t):
        with pytest.raises(ValueError, match="chemo_kernel_grad requires"):
            K.chemo_kernel_grad(t, [0.3, 0.1], P1)

    @pytest.mark.parametrize("t", [math.nan, [0.0, math.nan]])
    def test_smoothed_grad(self, t):
        with pytest.raises(ValueError, match="smoothed_grad requires t >= 0"):
            K.smoothed_grad(t, [0.3, 0.1], self.SMOOTHED)

    @pytest.mark.parametrize("t", [math.nan, [0.0, math.nan]])
    def test_grad_envelope(self, t):
        with pytest.raises(ValueError, match="grad_envelope requires t >= 0"):
            K.grad_envelope(t, [0.3, 0.1], 0.5, self.SMOOTHED)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
    def test_grad_envelope_alpha(self, alpha):
        # NaN used to reach c0_const and raise there, about beta
        with pytest.raises(ValueError, match="alpha must be finite and > 0"):
            K.grad_envelope(1.0, [0.3, 0.1], alpha, self.SMOOTHED)

    @pytest.mark.parametrize("t", [math.nan, [0.5, math.nan]])
    def test_background_field(self, t):
        with pytest.raises(ValueError, match="background_field requires"):
            K.background_field(t, [0.3, 0.1], self.SOURCE, P1)

    @pytest.mark.parametrize("t", [math.nan, [0.5, math.nan], 0.0])
    def test_background_grad(self, t):
        with pytest.raises(ValueError, match="background_grad requires"):
            K.background_grad(t, [0.3, 0.1], self.SOURCE, P1)


class TestValidation:
    def test_kernel_params(self):
        with pytest.raises(ValueError):
            K.KernelParams(theta=0.0)
        with pytest.raises(ValueError):
            K.KernelParams(theta=1.0, lam=-0.1)
        with pytest.raises(ValueError):
            K.KernelParams(theta=1.0, chi=-1.0)
        with pytest.raises(ValueError):
            K.KernelParams(theta=1.0, epsilon=-1e-9)
        with pytest.raises(ValueError):
            K.KernelParams(theta=1.0, p=2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_kernel_params_nonfinite(self, bad):
        for field, kw in (("theta", {"theta": bad}), ("lam", {"lam": bad}),
                          ("chi", {"chi": bad}), ("epsilon", {"epsilon": bad}),
                          ("p", {"p": bad})):
            with pytest.raises(ValueError, match=field):
                K.KernelParams(**{"theta": 1.0, **kw})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_source_spec_nonfinite(self, bad):
        for comp in ((bad, (0.0, 0.0), 1.0), (1.0, (bad, 0.0), 1.0),
                     (1.0, (0.0, 0.0), bad)):
            with pytest.raises(ValueError):
                K.SourceSpec(components=(comp,))

    def test_source_spec(self):
        with pytest.raises(ValueError):
            K.SourceSpec(components=((0.0, (0.0, 0.0), 1.0),))
        with pytest.raises(ValueError):
            K.SourceSpec(components=((1.0, (0.0, 0.0), 0.0),))

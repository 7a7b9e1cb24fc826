import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from kspp import funineq as F
from kspp.constants import kappa


class TestStepFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            F.StepFunction((), (1.0,), 0.0)
        with pytest.raises(ValueError):
            F.StepFunction((0.5, 0.4), (1.0, 1.0, 1.0), 1.0)  # not increasing
        with pytest.raises(ValueError):
            F.StepFunction((1.5,), (1.0, 1.0), 1.0)  # breakpoint beyond horizon
        with pytest.raises(ValueError):
            F.StepFunction((), (-1.0,), 1.0)
        with pytest.raises(ValueError):
            F.StepFunction((0.5,), (1.0,), 1.0)  # value count mismatch

    def test_edges(self):
        f = F.StepFunction((0.25, 0.5), (1.0, 2.0, 3.0), 1.0)
        np.testing.assert_array_equal(f.edges(), [0.0, 0.25, 0.5, 1.0])


class TestEvaluateInequality:
    def test_constant_one(self):
        f = F.StepFunction((), (1.0,), 1.0)
        res = F.evaluate_inequality(f, 0.5, 1.0)
        assert res.lhs == pytest.approx(2 * (1 - 1 / math.sqrt(2)), rel=1e-14)
        assert res.rhs == pytest.approx(1.5, rel=1e-14)
        assert res.ratio == pytest.approx(0.3905, abs=1e-4)
        assert not res.divergent

    def test_zero_function_divergent(self):
        f = F.StepFunction((), (0.0,), 1.0)
        res = F.evaluate_inequality(f, 0.5, 1.0)
        assert res.divergent
        assert math.isinf(res.lhs) and math.isinf(res.rhs)

    def test_invalid_exponents(self):
        f = F.StepFunction((), (1.0,), 1.0)
        with pytest.raises(ValueError):
            F.evaluate_inequality(f, 1.0, 0.5)

    def test_seeded_sweep(self):
        sweep = F.random_sweep(2000, seed=7)
        assert sweep.violations == 0
        assert sweep.worst_ratio <= 1.0 + 1e-12

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_property_random_steps(self, data):
        t = data.draw(st.floats(1e-2, 1e2))
        n_pieces = data.draw(st.integers(1, 8))
        cuts = sorted(data.draw(st.lists(
            st.floats(1e-6, 1.0 - 1e-6), min_size=n_pieces - 1,
            max_size=n_pieces - 1, unique=True)))
        values = data.draw(st.lists(st.floats(1e-4, 1e2),
                                    min_size=n_pieces, max_size=n_pieces))
        b = data.draw(st.floats(0.05, 3.0))
        a = data.draw(st.floats(0.01, 0.99)) * b
        breakpoints = tuple(c * t for c in cuts)
        # rounding c * t can merge two distinct cuts; StepFunction rightly
        # rejects breakpoints that are not strictly increasing
        assume(all(lo < hi for lo, hi in zip(breakpoints, breakpoints[1:])))
        f = F.StepFunction(breakpoints, tuple(values), t)
        res = F.evaluate_inequality(f, a, b)
        assert res.divergent or res.ratio <= 1.0 + 1e-12


class TestExtremalProfile:
    def test_unit_scale(self):
        i_a, i_b, ratio = F.extremal_profile(1.0, 0.5, 1.0)
        assert i_a == pytest.approx(3.0, rel=1e-14)
        assert i_b == pytest.approx(2.0, rel=1e-14)
        assert ratio == pytest.approx(3 / math.sqrt(2), rel=1e-14)

    def test_scale_invariance(self):
        ref = F.extremal_profile(1.0, 0.3, 0.9)[2]
        for k in (0.1, 1.0, 10.0):
            assert F.extremal_profile(k, 0.3, 0.9)[2] == pytest.approx(ref, abs=1e-12)

    def test_matches_kappa_grid(self):
        for a in np.linspace(0.1, 2.0, 10):
            for off in np.linspace(0.1, 1.0, 10):
                b = a + off
                want = kappa(float(a), float(b))
                for k in (0.1, 1.0, 10.0):
                    _, _, ratio = F.extremal_profile(k, float(a), float(b))
                    assert abs(ratio - want) < 1e-9

    def test_quadrature_oracle(self):
        # independent numerical integration of min(k, 1/s)^(1+a), truncated
        k, a = 1.0, 1.0
        head, _ = quad(lambda s: min(k, 1 / s) ** (1 + a), 0.0, 1 / k)
        tail, _ = quad(lambda s: min(k, 1 / s) ** (1 + a), 1 / k, 1e6 / k,
                       limit=400)
        i_a = F.extremal_profile(k, a, 2.0)[0]
        assert head + tail == pytest.approx(i_a, rel=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            F.extremal_profile(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            F.extremal_profile(1.0, 1.0, 0.5)


class TestTightnessScan:
    def test_monotone_increase(self):
        ratios = F.tightness_scan([1e-1, 1e-2, 1e-3], 0.5, 1.0, 1.0)
        assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))
        assert all(r < 1.0 for r in ratios)

    def test_small_eps_beats_large(self):
        r_hi, r_lo = F.tightness_scan([1e-1, 1e-4], 0.5, 1.0, 1.0)
        assert r_lo > r_hi

    def test_limit_value(self):
        (ratio,) = F.tightness_scan([1e-6], 0.5, 1.0, 1.0)
        assert ratio >= 0.99

    def test_matches_explicit_two_piece_formula(self):
        eps, t, a, b = 1e-2, 1.0, 0.4, 1.3
        lhs = eps ** -a + (eps ** -a - t ** -a) / a
        rhs = kappa(a, b) * (eps ** -b + (eps ** -b - t ** -b) / b) ** (a / b)
        (ratio,) = F.tightness_scan([eps], a, b, t)
        assert ratio == pytest.approx(lhs / rhs, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            F.tightness_scan([1.5], 0.5, 1.0, 1.0)

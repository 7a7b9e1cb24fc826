import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kspp import constants as C
import oracles as O

NONFINITE = [math.nan, math.inf, -math.inf]


def _h(u, beta):
    return np.sqrt(u) * (1.0 + beta * u) ** 1.5 * np.exp(-u)


def _golden_max(f, lo, hi, xtol):
    """Golden-section maximization of a unimodal f on [lo, hi]."""
    inv_phi, inv_phi2 = (math.sqrt(5.0) - 1.0) / 2.0, (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    h = b - a
    if h <= xtol:
        return f(0.5 * (a + b))
    n = int(math.ceil(math.log(xtol / h) / math.log(inv_phi)))
    c, d = a + inv_phi2 * h, a + inv_phi * h
    yc, yd = f(c), f(d)
    for _ in range(n):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= inv_phi
            c = a + inv_phi2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= inv_phi
            d = a + inv_phi * h
            yd = f(d)
    return f(0.5 * (a + b))


def _c0_reference(beta):
    """C0 as a numerical supremum: a 2048-point log-spaced scan, then a
    golden-section polish (xtol 1e-10) of the bracketing interval."""
    def h(u):
        return math.sqrt(u) * (1.0 + beta * u) ** 1.5 * math.exp(-u)

    grid = np.geomspace(1e-6, 50.0, 2048)
    vals = _h(grid, beta)
    i = int(np.argmax(vals))
    lo = grid[i - 1] if i > 0 else 0.0
    hi = grid[i + 1] if i + 1 < grid.size else grid[-1]
    return max(_golden_max(h, lo, hi, 1e-10), float(vals[i]))


BETAS = st.one_of(st.just(0.0), st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e))


class TestC0:
    def test_beta_zero_closed_form(self):
        # sup of sqrt(u) e^{-u} is attained at u = 1/2
        exact = math.sqrt(0.5) * math.exp(-0.5)
        assert abs(C.c0_const(0.0) - exact) <= math.ulp(exact)
        assert C.c0_const(0.0) == pytest.approx(0.429, abs=1e-3)

    @settings(max_examples=300, deadline=None)
    @given(beta=BETAS)
    def test_matches_numerical_supremum(self, beta):
        assert C.c0_const(beta) == pytest.approx(_c0_reference(beta), rel=2e-15)

    @settings(max_examples=100, deadline=None)
    @given(beta=BETAS)
    def test_is_the_supremum(self, beta):
        # a dense log grid plus a linear one over [1/2, 2], which holds the
        # maximiser for every beta; each evaluation of h rounds by a few ulps
        c0 = C.c0_const(beta)
        u = np.concatenate([np.geomspace(1e-8, 1e3, 20001),
                            np.linspace(0.5, 2.0, 20001)])
        assert _h(u, beta).max() <= c0 * (1.0 + 8.0 * np.finfo(float).eps)

    def test_reference_point(self):
        assert C.c0_const(0.52) == pytest.approx(0.6895, abs=5e-4)

    def test_monotone_in_beta(self):
        vals = [C.c0_const(b) for b in np.arange(0.0, 2.01, 0.1)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            C.c0_const(-1e-12)

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_nonfinite(self, bad):
        with pytest.raises(ValueError, match="beta"):
            C.c0_const(bad)


class TestKappa:
    def test_half_one(self):
        assert C.kappa(0.5, 1.0) == pytest.approx(3 / math.sqrt(2), rel=1e-14)

    def test_reference_points(self):
        assert C.kappa(0.5, 0.63) == pytest.approx(1.411, abs=1e-3)
        val = C.kappa(0.13, 0.63)
        assert val == pytest.approx(7.14, abs=5e-3)
        assert val < 7.751

    def test_domain(self):
        for a, b in ((1.0, 1.0), (2.0, 1.0), (0.0, 1.0), (-0.5, 1.0)):
            with pytest.raises(ValueError):
                C.kappa(a, b)


class TestStructuralConstants:
    def test_c1_reference(self):
        sp = C.StructuralParams(gamma=1.63, alpha=0.08, theta=1.0, p=3.51)
        sc = C.structural_constants(sp)
        assert sc.c1 == pytest.approx(0.502, abs=1e-3)
        assert sc.c1 == pytest.approx(0.63 * (1 - 4 * 0.08 * 0.63), rel=1e-14)

    def test_c1_small_alpha_limit(self):
        sp = C.StructuralParams(gamma=1.7, alpha=1e-9, theta=1.0)
        assert C.structural_constants(sp).c1 == pytest.approx(0.7, abs=1e-8)

    def test_large_theta_coefficients(self):
        # at (gamma, alpha) = (1.63, 0.08) the chi-linear coefficients of
        # C2 and C3, divided by C0(4 alpha/theta) sqrt(theta), are ~0.286
        # and ~0.537
        g, a = 1.63, 0.08
        k_half = C.kappa(0.5, g - 1.0)
        k_low = C.kappa(g - 1.5, g - 1.0)
        coef2 = math.sqrt(a) * (g - 1.0) * k_half * k_low / (2 * math.pi)
        coef3 = k_half / (4 * math.pi * math.sqrt(a) * (4 - 2 * g))
        assert coef2 == pytest.approx(0.286, abs=1e-3)
        assert coef3 == pytest.approx(0.537, abs=1e-3)
        # consistency with the full constants at large theta
        theta = 1e6
        sp = C.StructuralParams(gamma=g, alpha=a, theta=theta, p=3.51)
        sc = C.structural_constants(sp)
        c0 = C.c0_const(4 * a / theta)
        assert sc.c2 == pytest.approx(coef2 * c0 * math.sqrt(theta), rel=1e-12)
        assert sc.c3 == pytest.approx(coef3 * c0 * math.sqrt(theta), rel=1e-12)

    def test_c2_vanishes_with_alpha(self):
        thetas = [C.structural_constants(
            C.StructuralParams(gamma=1.7, alpha=a, theta=2.0)).c2
            for a in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(b < a for a, b in zip(thetas, thetas[1:]))
        assert thetas[-1] < 1e-4

    def test_r_p(self):
        sp = C.StructuralParams(gamma=1.6, alpha=0.05, theta=1.0, p=4.0)
        assert sp.r_p == pytest.approx(1 - 0.6 * 1.5, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            C.StructuralParams(gamma=1.4, alpha=0.01, theta=1.0)
        with pytest.raises(ValueError):
            C.StructuralParams(gamma=2.0, alpha=0.01, theta=1.0)
        with pytest.raises(ValueError):
            C.StructuralParams(gamma=1.6, alpha=0.5, theta=1.0)  # >= 1/(4(g-1))
        with pytest.raises(ValueError):
            C.StructuralParams(gamma=1.6, alpha=0.05, theta=0.0)
        with pytest.raises(ValueError):
            C.StructuralParams(gamma=1.6, alpha=0.05, theta=1.0, p=1.5)

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_nonfinite(self, bad):
        for field in ("theta", "p"):
            with pytest.raises(ValueError, match=field):
                C.StructuralParams(**{"gamma": 1.6, "alpha": 0.05,
                                      "theta": 1.0, field: bad})


class TestAdmissibility:
    SP = C.StructuralParams(gamma=1.62, alpha=0.045, theta=1.0, p=3.31)

    def test_small_chi_admissible(self):
        assert O.admissible(1e-8, self.SP)

    def test_reference_point(self):
        assert O.admissible(1.39, self.SP)
        assert not O.admissible(100.0, self.SP)

    def test_chi_for_is_the_transition(self):
        root = C.chi_for(self.SP)
        assert O.admissible(root * (1 - 1e-6), self.SP)
        assert not O.admissible(root * (1 + 1e-6), self.SP)

    def test_chi_for_reference_values(self):
        assert C.chi_for(self.SP) >= 1.39
        sp10 = C.StructuralParams(gamma=1.63, alpha=0.067, theta=10.0, p=3.51)
        assert C.chi_for(sp10) >= 0.51
        sp_small = C.StructuralParams(gamma=1.5 + 1e-3, alpha=0.13e-6,
                                      theta=1e-6, p=4.0)
        assert 3.27 <= C.chi_for(sp_small) <= 3.30

    def test_chi_domain(self):
        with pytest.raises(ValueError):
            O.admissible(0.0, self.SP)


class TestChiStar:
    def test_audit_consistency(self):
        res = C.chi_star(1.0, 3.31)
        chis = [chi for _, _, chi in res.audit]
        assert res.chi_star == max(chis)
        assert (res.best_gamma, res.best_alpha, res.chi_star) in [
            (g, a, c) for g, a, c in res.audit]
        g_hi = C.gamma_upper(3.31)
        for g, a, _ in res.audit:
            assert 1.5 < g < g_hi
            assert 0.0 < a < 1.0 / (4.0 * (g - 1.0))

    def test_dominates_fixed_point(self):
        res = C.chi_star(1.0, 3.31)
        sp = C.StructuralParams(gamma=1.62, alpha=0.045, theta=1.0, p=3.31)
        assert res.chi_star >= C.chi_for(sp) * (1 - 1e-6)

    def test_gamma_upper(self):
        assert C.gamma_upper(3.31) == pytest.approx((2 * 3.31 + 2) / (3.31 + 2))
        with pytest.raises(ValueError):
            C.gamma_upper(2.0)

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_nonfinite(self, bad):
        with pytest.raises(ValueError, match="p must"):
            C.gamma_upper(bad)
        with pytest.raises(ValueError, match="theta"):
            C.chi_star(bad, 3.31)
        with pytest.raises(ValueError, match="p must"):
            C.chi_star(1.0, bad)

    def test_no_admissible_point_near_p_2(self):
        # the margin puts every gamma of the range (3/2, (2p+2)/(p+2)) at or
        # below 3/2: a ValueError, before any refinement round warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "no admissible (gamma, alpha) point on the coarse grid at "
                    "theta = 1.0, p = 2.000000000000001")):
                C.chi_star(1.0, 2.000000000000001)

    def test_p_just_above_2_is_still_searched(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = C.chi_star(1.0, 2 + 4e-16)
        assert len(got.audit) == 2700
        assert _bits(got) == _bits(O.chi_star_reference(1.0, 2 + 4e-16))


REMARK_ROWS = [(1e-6, 4.0), (0.1, 2.61), (1.0, 3.31), (10.0, 3.51), (1e4, 3.51)]


def _bits(res):
    return (res.chi_star, res.best_gamma, res.best_alpha, res.audit)


@st.composite
def points(draw):
    """(theta, gamma, alpha): theta log-uniform over [1e-6, 1e4], gamma in
    (3/2, 2), alpha a log-uniform fraction of its bound 1/(4(gamma - 1))."""
    theta = 10.0 ** draw(st.floats(-6.0, 4.0))
    gamma = draw(st.floats(1.5, 2.0, exclude_min=True, exclude_max=True))
    frac = 10.0 ** draw(st.floats(-9.0, 0.0, exclude_max=True))
    alpha = frac / (4.0 * (gamma - 1.0))
    assume(alpha < 1.0 / (4.0 * (gamma - 1.0)))
    return theta, gamma, alpha


class TestLockstepBisection:
    """`_chi_roots` against the scalar bisection (`oracles.bisect_reference`),
    bit for bit."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(pt=points())
    def test_chi_for_matches_reference(self, pt):
        theta, gamma, alpha = pt
        sp = C.StructuralParams(gamma=gamma, alpha=alpha, theta=theta)
        assert C.chi_for(sp) == O.chi_for_reference(sp)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(pts=st.lists(points(), min_size=1, max_size=40))
    def test_batch_matches_each_point_alone(self, pts):
        # a point's root does not depend on what else is in the batch
        rows = [C.structural_constants(C.StructuralParams(
            gamma=g, alpha=a, theta=th))[:3] + (g,) for th, g, a in pts]
        got = C._chi_roots(*np.array(rows).T)
        assert got.tolist() == [O.bisect_reference(*row) for row in rows]

    def test_bracket_doubles(self):
        # chi > 1 at small theta: the bracket [0, 1] doubles before the
        # bisection starts
        sp = C.StructuralParams(gamma=1.52, alpha=1e-3, theta=1e-3)
        assert C.chi_for(sp) > 1.0
        assert C.chi_for(sp) == O.chi_for_reference(sp)

    def test_small_theta_fixed_point(self):
        sp = C.StructuralParams(gamma=1.5 + 1e-3, alpha=0.13e-6,
                                theta=1e-6, p=4.0)
        assert C.chi_for(sp) == O.chi_for_reference(sp)
        assert 3.27 <= C.chi_for(sp) <= 3.30

    @pytest.mark.parametrize("c1", [0.0, -0.5])
    def test_c1_not_positive(self, c1):
        for roots in (C._chi_roots, O.bisect_reference):
            with pytest.raises(ValueError, match="C1 must be > 0"):
                roots(c1, 1.0, 1.0, 1.7)
        with pytest.raises(ValueError, match="C1 must be > 0"):
            C._chi_roots([0.5, c1], [1.0, 1.0], [1.0, 1.0], [1.7, 1.7])

    def test_unbracketed_root(self):
        # C2 and C3 so small that the gap stays positive past chi = 1e300
        for roots in (C._chi_roots, O.bisect_reference):
            with pytest.raises(RuntimeError, match="bracket"):
                roots(1.0, 1e-310, 1e-310, 1.75)

    def test_admissible_is_the_scalar_sign(self):
        sp = C.StructuralParams(gamma=1.62, alpha=0.045, theta=1.0, p=3.31)
        sc = C.structural_constants(sp)
        root = C.chi_for(sp)
        for chi in (root, math.nextafter(root, 0), math.nextafter(root, 10),
                    0.5 * root, 2.0 * root, math.inf, math.nan):
            want = sc.c1 - (chi * sc.c2 + (chi * sc.c3) ** (2.0 * (sp.gamma - 1.0))) > 0
            assert O.admissible(chi, sp) == want


class TestChiStarReference:
    """chi_star against the point-by-point search (`oracles.chi_star_reference`):
    the best point and every audit triple, in order, bit for bit."""

    @pytest.mark.parametrize("theta, p", REMARK_ROWS)
    def test_remark_rows(self, theta, p):
        assert _bits(C.chi_star(theta, p)) == _bits(O.chi_star_reference(theta, p))

    @pytest.mark.parametrize("theta, p", REMARK_ROWS[1:])
    def test_collapsed_alpha_grid(self, theta, p, monkeypatch):
        # with margin 0.48 the incumbent sits on its alpha bound, and a
        # refinement round's alpha range for a gamma below it collapses:
        # _alpha_grid falls back to lo * (1 + 1e-12)
        collapsed = []
        grid = C._alpha_grid

        def spy(gamma, lo_frac, hi_frac, n):
            a = grid(gamma, lo_frac, hi_frac, n)
            collapsed.append(a[-1] <= a[0] * (1.0 + 2e-12))
            return a

        monkeypatch.setattr(C, "SEARCH_MARGIN", 0.48)
        monkeypatch.setattr(C, "_alpha_grid", spy)
        got = C.chi_star(theta, p)
        assert any(collapsed)
        assert _bits(got) == _bits(O.chi_star_reference(theta, p))

    def test_points_outside_the_box_are_skipped(self, monkeypatch):
        # alphas at and beyond the bound, zero and negative ones are left
        # out of the audit, as StructuralParams rejects them
        grid = C._alpha_grid

        def wide(gamma, lo_frac, hi_frac, n):
            a_max = 1.0 / (4.0 * (gamma - 1.0))
            return np.concatenate([[-1.0, 0.0], grid(gamma, lo_frac, hi_frac, n),
                                   [a_max, 2.0 * a_max]])

        monkeypatch.setattr(C, "_alpha_grid", wide)
        got = C.chi_star(1.0, 3.31)
        assert len(got.audit) == 4500
        assert _bits(got) == _bits(O.chi_star_reference(1.0, 3.31))

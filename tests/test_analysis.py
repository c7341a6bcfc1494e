import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphyper as sp
from sphyper.harmonics import SPHERE_AREA


def sobolev_weights(s, max_degree):
    """The weights a_l that sobolev_norm applies: 1 / ||Y_{l,1}||_{H^s}^2."""
    a = []
    for ell in range(max_degree + 1):
        coeffs = np.zeros((max_degree + 1) ** 2)
        coeffs[sp.flat_index(ell, 1)] = 1.0
        a.append(sp.sobolev_norm(coeffs, s) ** -2)
    return np.array(a)


class TestSobolevWeights:
    def test_values(self):
        assert np.allclose(sobolev_weights(1.0, 3), [1.0, 1 / 3, 1 / 7, 1 / 13],
                           rtol=1e-15)

    def test_strictly_decreasing_for_positive_s(self):
        a = sobolev_weights(2.5, 12)
        assert np.all(np.diff(a) < 0)

    def test_polynomial_envelope(self):
        # a_l (1+l)^{2s} in [1, (4/3)^s]: ratio (1+l)^2 / (1+l(l+1)) peaks
        # at l = 1
        for s in (0.5, 1.5, 3.0):
            a = sobolev_weights(s, 20)
            ratio = a * (1.0 + np.arange(21)) ** (2 * s)
            assert ratio.min() >= 1.0 - 1e-12
            assert ratio.max() <= (4 / 3) ** s + 1e-12


class TestSobolevNorm:
    def test_unit_coefficient(self):
        for ell, k, s in ((0, 1, 2.0), (3, 4, 1.5), (5, 2, 0.0)):
            coeffs = np.zeros(36)
            coeffs[sp.flat_index(ell, k)] = 1.0
            lam = sp.lb_eigenvalue(2, ell)
            assert sp.sobolev_norm(coeffs, s) == pytest.approx(
                (1.0 + lam) ** (s / 2), rel=1e-12)

    def test_s_zero_is_l2(self):
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal(25)
        assert sp.sobolev_norm(coeffs, 0.0) == pytest.approx(
            float(np.linalg.norm(coeffs)), rel=1e-14)

    def test_constant_independent_of_s(self):
        coeffs = np.array([2.5])
        for s in (0.0, 1.0, 3.5):
            assert sp.sobolev_norm(coeffs, s) == pytest.approx(2.5, rel=1e-15)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            sp.sobolev_norm(np.zeros(7), 1.0)

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            sp.sobolev_norm(np.zeros(4), -1.0)

    @settings(max_examples=30)
    @given(st.integers(0, 8), st.floats(0.0, 4.0))
    def test_dominates_l2(self, n, s):
        rng = np.random.default_rng(n)
        coeffs = rng.standard_normal((n + 1) ** 2)
        l2 = float(np.linalg.norm(coeffs))
        hs = sp.sobolev_norm(coeffs, s)
        lam_n = sp.lb_eigenvalue(2, n)
        assert hs >= l2 - 1e-12
        # the reverse inequality that powers degree-n estimates
        assert hs <= (1.0 + lam_n) ** (s / 2) * l2 * (1 + 1e-12)


class TestFitRate:
    def test_exact_power_law(self):
        samples = [(10.0 ** i, 5.0 * 10.0 ** (-i)) for i in range(1, 6)]
        fit = sp.fit_rate(samples)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 5

    def test_quarter_rate(self):
        samples = [(m, 2.0 * m ** (-0.25)) for m in (100, 1000, 10000)]
        assert sp.fit_rate(samples).slope == pytest.approx(-0.25, abs=1e-12)

    def test_constant_series(self):
        fit = sp.fit_rate([(10, 3.0), (100, 3.0), (1000, 3.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sp.fit_rate([(10, 1.0), (100, 0.0)])
        with pytest.raises(ValueError):
            sp.fit_rate([(-10, 1.0), (100, 1.0)])

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            sp.fit_rate([(10, 1.0)])

    @settings(max_examples=25)
    @given(st.floats(0.01, 100.0), st.floats(-2.0, 0.0))
    def test_error_scale_invariance(self, scale, rate):
        base = [(m, m ** rate) for m in (10, 100, 1000, 10000)]
        scaled = [(m, scale * e) for m, e in base]
        assert sp.fit_rate(scaled).slope == pytest.approx(
            sp.fit_rate(base).slope, abs=1e-9)


class TestUniformNorm:
    def test_constant_function(self):
        f = lambda pts: np.full(len(pts), -2.5)
        assert sp.uniform_norm_refined(f) == pytest.approx(2.5, abs=0)

    def test_harmonic_bounded_by_theory(self):
        for k in (1, 2, 3):
            flat = sp.flat_index(1, k)
            f = lambda pts: sp.eval_basis_block(1, pts)[flat]
            est = sp.uniform_norm_refined(f)
            bound = math.sqrt(3 / SPHERE_AREA)
            assert est <= bound + 1e-9
            assert est > 0.9 * bound

    def test_zonal_sup_attained_at_pole(self):
        # the equal-area grid contains the north pole where the zonal
        # degree-1 harmonic attains its sup exactly
        flat = sp.flat_index(1, 1)
        f = lambda pts: sp.eval_basis_block(1, pts)[flat]
        assert sp.uniform_norm_refined(f) == pytest.approx(
            math.sqrt(3 / SPHERE_AREA), rel=1e-14)

    def test_f1_supremum(self):
        # sup f1 = 3 at (1,1,1)/sqrt(3); the grid gets close from below
        est = sp.uniform_norm_refined(sp.f1)
        assert 2.99 <= est <= 3.0


class TestL2Error:
    def test_zero_for_identical(self):
        ref = sp.reference_rule_for(5)
        assert sp.l2_error(sp.f3, sp.f3, ref) == 0.0

    def test_orthogonal_pythagoras(self):
        # for chi in P_n, ||f - chi||^2 = ||f - P_n f||^2 + ||P_n f - chi||^2;
        # validated with f3 and its own projection perturbed inside P_n
        n = 8
        ref = sp.reference_rule_for(n)
        proj = sp.project_reference(sp.f3, n, ref)
        perturbed = proj.coeffs.copy()
        perturbed[5] += 0.25
        chi = sp.Hyperinterpolant(n=n, coeffs=perturbed)
        lhs = sp.l2_error(sp.f3, chi, ref) ** 2
        rhs = sp.l2_error(sp.f3, proj, ref) ** 2 + 0.25 ** 2
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_matches_coefficient_norm_for_polynomials(self):
        coeffs = np.arange(1.0, 17.0)
        h = sp.Hyperinterpolant(n=3, coeffs=coeffs)
        zero = sp.Hyperinterpolant(n=3, coeffs=np.zeros(16))
        ref = sp.reference_rule_for(3)
        assert sp.l2_error(h, zero, ref) == pytest.approx(
            float(np.linalg.norm(coeffs)), rel=1e-12)

    def test_sample_length_checked(self):
        # a length-1 array must not broadcast against the reference nodes
        ref = sp.reference_rule_for(3)
        with pytest.raises(ValueError, match="sample values"):
            sp.l2_error(sp.f3, np.array([1.0]), ref)

    def test_nan_samples_rejected(self):
        ref = sp.reference_rule_for(3)
        values = sp.f3(ref.points)
        values[7] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            sp.l2_error(sp.f3, values, ref)


class TestReferenceRule:
    def test_exactness_budget(self):
        for n in (0, 4, 10):
            rule = sp.reference_rule_for(n)
            assert sp.exactness_degree(rule, 2 * n + 21).degree >= 2 * n + 20

    def test_margin_scales(self):
        small = sp.reference_rule_for(5, margin=10)
        big = sp.reference_rule_for(5, margin=40)
        assert big.m > small.m


class TestDegreeNormEstimates:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10), st.sampled_from([0.5, 1.5, 2.0, 3.5]))
    def test_sobolev_vs_l2_on_polynomials(self, n, s):
        # ||chi||_{H^s} <= (1 + lambda_n)^{s/2} ||chi||_{L2} for chi in P_n
        rng = np.random.default_rng(n + 100)
        coeffs = rng.standard_normal((n + 1) ** 2)
        bound = (1.0 + sp.lb_eigenvalue(2, n)) ** (s / 2)
        assert sp.sobolev_norm(coeffs, s) <= bound * float(
            np.linalg.norm(coeffs)) * (1 + 1e-12)

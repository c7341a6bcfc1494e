import math

import numpy as np
import pytest

import sphyper as sp
from sphyper.harmonics import SPHERE_AREA


def harmonic_samples(ell, k):
    flat = sp.flat_index(ell, k)
    return lambda pts: sp.eval_basis_block(max(ell, 1), pts)[flat]


class TestFit:
    def test_recovers_single_harmonic(self):
        rule = sp.product_gauss_rule(8)
        h = sp.fit(rule, harmonic_samples(1, 1), 3)
        expected = np.zeros(16)
        expected[sp.flat_index(1, 1)] = 1.0
        assert np.abs(h.coeffs - expected).max() < 1e-10

    def test_constant_coefficient(self):
        rule = sp.equal_weight_rule(sp.random_uniform(500, seed=1), "random")
        h = sp.fit(rule, lambda pts: np.ones(len(pts)), 0)
        # sum_j w_j * 1 * Y_0 = 4*pi / sqrt(4*pi), exactly, for any rule
        # whose weights sum to 4*pi
        assert h.coeffs[0] == pytest.approx(math.sqrt(SPHERE_AREA), rel=1e-14)

    def test_reproduces_low_degree_polynomial(self):
        rule = sp.product_gauss_rule(10)
        f1 = sp.by_name("f1")
        h = sp.fit(rule, f1, 4)
        pts = sp.random_uniform(50, seed=2)
        assert np.abs(sp.evaluate_block(h, pts) - f1(pts)).max() < 1e-10

    def test_zero_samples_gives_zero(self):
        rule = sp.product_gauss_rule(4)
        h = sp.fit(rule, np.zeros(rule.m), 2)
        assert np.all(h.coeffs == 0)

    def test_linearity(self):
        rule = sp.equal_weight_rule(sp.random_uniform(300, seed=3), "random")
        ya = np.cos(rule.points[:, 0])
        yb = rule.points[:, 2] ** 3
        ha = sp.fit(rule, ya, 5)
        hb = sp.fit(rule, yb, 5)
        hab = sp.fit(rule, 2 * ya - 3 * yb, 5)
        assert np.abs(hab.coeffs - (2 * ha.coeffs - 3 * hb.coeffs)).max() < 1e-12

    def test_sample_length_checked(self):
        rule = sp.product_gauss_rule(3)
        with pytest.raises(ValueError):
            sp.fit(rule, np.ones(rule.m - 1), 2)

    def test_nan_samples_rejected(self):
        rule = sp.product_gauss_rule(3)
        y = np.ones(rule.m)
        y[0] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            sp.fit(rule, y, 2)
        with pytest.raises(ValueError, match="not finite"):
            sp.fit(rule, lambda pts: np.full(len(pts), np.inf), 2)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            sp.fit(sp.product_gauss_rule(2), np.ones(8), -1)


class TestHyperinterpolantObject:
    def test_coefficient_count_enforced(self):
        with pytest.raises(ValueError):
            sp.Hyperinterpolant(n=2, coeffs=np.zeros(8))

    def test_callable_matches_evaluate_block(self):
        h = sp.Hyperinterpolant(n=1, coeffs=np.array([0.5, 0.0, 1.0, 0.0]))
        pts = sp.random_uniform(20, seed=4)
        assert np.array_equal(h(pts), sp.evaluate_block(h, pts))


class TestEvaluate:
    def test_single_harmonic_values(self):
        coeffs = np.zeros(9)
        coeffs[sp.flat_index(2, 3)] = 1.0
        h = sp.Hyperinterpolant(n=2, coeffs=coeffs)
        pts = sp.random_uniform(40, seed=5)
        direct = sp.eval_basis_block(2, pts)[sp.flat_index(2, 3)]
        assert np.abs(sp.evaluate_block(h, pts) - direct).max() < 1e-12

    def test_scalar_evaluate(self):
        h = sp.Hyperinterpolant(n=0, coeffs=np.array([2.0]))
        val = sp.evaluate_block(h, np.array([[0.0, 0.0, 1.0]]))
        assert val.shape == (1,)
        assert val[0] == pytest.approx(2.0 / math.sqrt(SPHERE_AREA), rel=1e-14)

    def test_kernel_path_agrees(self):
        rule = sp.equal_weight_rule(sp.random_uniform(400, seed=6), "random")
        f3 = sp.by_name("f3")
        y = f3(rule.points)
        h = sp.fit(rule, y, 6)
        targets = sp.random_uniform(30, seed=7)
        via_coeffs = sp.evaluate_block(h, targets)
        via_kernel = sp.evaluate_kernel(rule, y, 6, targets)
        assert np.abs(via_coeffs - via_kernel).max() < 1e-9


class TestAuditedFit:
    def test_accepts_healthy_rule(self):
        rule = sp.equal_weight_rule(sp.random_uniform(600, seed=8), "random")
        h = sp.audited_fit(rule, lambda pts: np.ones(len(pts)), 4)
        assert h.eta_used is not None
        assert 0 <= h.eta_used < 1

    def test_refuses_rank_deficient_rule(self):
        rule = sp.equal_weight_rule(sp.random_uniform(8, seed=9), "random")
        with pytest.raises(ValueError, match="rank deficient"):
            sp.audited_fit(rule, lambda pts: np.ones(len(pts)), 5)

    def test_plain_fit_never_gates(self):
        rule = sp.equal_weight_rule(sp.random_uniform(8, seed=9), "random")
        h = sp.fit(rule, np.ones(8), 5)  # eta >= 1 but fit still works
        assert h.coeffs.shape == (36,)


class TestClassicalLimit:
    def test_exact_rules_agree_on_polynomials(self):
        # for a polynomial input of degree p, any rule exact to n + p
        # produces exactly the L2 projection, so two such rules agree
        f1 = sp.by_name("f1")  # polynomial, degree 2
        a = sp.fit(sp.product_gauss_rule(4), f1, 4)   # exact to 7 > 4 + 2
        b = sp.fit(sp.product_gauss_rule(30), f1, 4)  # exact to 59
        assert np.abs(a.coeffs - b.coeffs).max() < 1e-12
        # degrees 3 and 4 of the projection of a degree-2 polynomial vanish
        assert np.abs(a.coeffs[9:]).max() < 1e-12


class TestProjectReference:
    def test_refuses_weak_reference(self):
        rule = sp.equal_weight_rule(sp.random_uniform(5000, seed=10), "random")
        with pytest.raises(ValueError, match="exactness"):
            sp.project_reference(sp.by_name("f1"), 4, rule)

    def test_degree_zero_projection(self):
        ref = sp.product_gauss_rule(20)
        f1 = sp.by_name("f1")
        h = sp.project_reference(f1, 0, ref)
        # mean of f1 over the sphere times sqrt(4*pi)
        mean = np.dot(ref.weights, f1(ref.points)) / SPHERE_AREA
        assert h.coeffs[0] == pytest.approx(mean * math.sqrt(SPHERE_AREA),
                                            rel=1e-12)

    def test_f3_energy_envelope_decays(self):
        ref = sp.reference_rule_for(10)
        h = sp.project_reference(sp.by_name("f3"), 10, ref)
        norms = [np.linalg.norm(h.coeffs[l * l:(l + 1) ** 2])
                 for l in range(11)]
        env = [max(norms[i:]) for i in range(11)]
        for lo, hi in zip(env, env[1:]):
            assert hi <= lo * (1 + 1e-12)
        assert env[10] < env[0] / 50

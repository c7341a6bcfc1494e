import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphyper as sp
from sphyper.pointsets import QuadratureRule
from sphyper.quadrature import discrete_gram


class TestMZConstant:
    def test_exact_rule_is_tiny(self):
        report = sp.mz_constant(sp.product_gauss_rule(8), 7)
        assert report.eta < 1e-10
        assert not report.rank_deficient
        assert report.dim == 64

    def test_single_point_degree_zero(self):
        rule = sp.equal_weight_rule(np.array([[0.0, 0.0, 1.0]]), "loaded")
        report = sp.mz_constant(rule, 0)
        assert report.eta == pytest.approx(0.0, abs=1e-14)

    def test_single_point_degree_one_deficient(self):
        rule = sp.equal_weight_rule(np.array([[0.0, 0.0, 1.0]]), "loaded")
        report = sp.mz_constant(rule, 1)
        assert report.rank_deficient
        assert report.lambda_min < 1e-12
        assert report.eta >= 1.0 - 1e-12

    def test_eta_definition(self):
        rule = sp.equal_weight_rule(sp.random_uniform(150, seed=5), "random")
        report = sp.mz_constant(rule, 4)
        expected = max(abs(report.lambda_min - 1), abs(report.lambda_max - 1))
        assert report.eta == pytest.approx(expected, rel=1e-12)

    def test_matches_dense_eigenvalues(self):
        rule = sp.equal_weight_rule(sp.random_uniform(300, seed=6), "random")
        report = sp.mz_constant(rule, 5)
        eigs = np.linalg.eigvalsh(discrete_gram(rule, 5))
        assert report.lambda_min == pytest.approx(eigs[0], abs=1e-10)
        assert report.lambda_max == pytest.approx(eigs[-1], abs=1e-10)

    def test_nondecreasing_in_degree(self):
        rule = sp.equal_weight_rule(sp.random_uniform(400, seed=7), "random")
        etas = [sp.mz_constant(rule, n).eta for n in range(1, 7)]
        for lo, hi in zip(etas, etas[1:]):
            assert hi >= lo - 1e-12

    def test_report_of_gram_matches(self):
        rule = sp.equal_weight_rule(sp.random_uniform(300, seed=6), "random")
        assert sp.mz_report(discrete_gram(rule, 5)) == sp.mz_constant(rule, 5)

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
    def test_overflowing_gram_rejected(self):
        # finite weights, but the Gram's zonal entries overflow at the pole
        rule = QuadratureRule(np.array([[0.0, 0.0, 1.0]] * 2),
                              np.full(2, 1.7e308), "loaded")
        with pytest.raises(ValueError, match="Gram is not finite"):
            sp.mz_constant(rule, 3)

    def test_negative_degree_rejected(self):
        rule = sp.product_gauss_rule(2)
        with pytest.raises(ValueError):
            sp.mz_constant(rule, -1)

    def test_lanczos_branch_repeats_and_matches_dense(self):
        # dim 2025 > 2000 takes the eigsh branch
        rule = sp.equal_weight_rule(sp.equal_area(2600), "equal_area")
        first, second = sp.mz_constant(rule, 44), sp.mz_constant(rule, 44)
        assert first.dim == 2025
        assert first.eta == second.eta
        lam = np.linalg.eigvalsh(discrete_gram(rule, 44))
        assert first.eta == pytest.approx(
            max(abs(lam[0] - 1.0), abs(lam[-1] - 1.0)), abs=1e-14)

    def test_rank_deficient_lanczos_falls_back_to_dense(self):
        # 80 azimuths alias orders k and 80 - k for k >= 36, so at n = 44 the
        # Gram is singular; eigsh(which="SA") stalls there without a bound
        rule = sp.product_gauss_rule(40)
        report = sp.mz_constant(rule, 44)
        assert report.dim == 2025
        assert report.rank_deficient
        lam = np.linalg.eigvalsh(discrete_gram(rule, 44))
        assert report.eta == pytest.approx(
            max(abs(max(lam[0], 0.0) - 1.0), abs(lam[-1] - 1.0)), abs=1e-12)
        with pytest.raises(ValueError, match="rank deficient"):
            sp.audited_fit(rule, sp.by_name("f3"), 44)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 100))
    def test_random_rule_spectrum_sane(self, n, seed):
        m = 4 * (n + 1) ** 2
        rule = sp.equal_weight_rule(sp.random_uniform(m, seed=seed), "random")
        report = sp.mz_constant(rule, n)
        assert report.eta >= 0
        assert 0 <= report.lambda_min <= report.lambda_max


class TestGramStructure:
    def test_symmetric(self):
        rule = sp.equal_weight_rule(sp.random_uniform(80, seed=8), "random")
        gram = discrete_gram(rule, 3)
        assert np.abs(gram - gram.T).max() < 1e-14

    def test_weight_scaling_doubles_gram(self):
        pts = sp.random_uniform(80, seed=9)
        base = sp.equal_weight_rule(pts, "random")
        doubled = QuadratureRule(pts, 2 * base.weights, "loaded")
        assert np.allclose(discrete_gram(doubled, 3),
                           2 * discrete_gram(base, 3), atol=1e-13)

    def test_exact_rule_gram_is_identity(self):
        gram = discrete_gram(sp.product_gauss_rule(6), 5)
        assert np.abs(gram - np.eye(36)).max() < 1e-12


class TestExactnessDegree:
    def test_gauss_orders(self):
        assert sp.exactness_degree(sp.product_gauss_rule(2), 6).degree == 3
        assert sp.exactness_degree(sp.product_gauss_rule(5), 12).degree == 9

    def test_random_rule_fails_immediately(self):
        rule = sp.equal_weight_rule(sp.random_uniform(100, seed=10), "random")
        report = sp.exactness_degree(rule, 3)
        assert report.degree == 0
        assert report.residuals[0] < 1e-12

    def test_wrong_total_weight_fails_at_constants(self):
        rule = QuadratureRule(sp.random_uniform(10, seed=11),
                              np.full(10, 1.0), "loaded")
        assert sp.exactness_degree(rule, 2).degree == -1

    def test_scan_cap(self):
        assert sp.exactness_degree(sp.product_gauss_rule(12), 5).degree == 5

    def test_residuals_cover_scan(self):
        report = sp.exactness_degree(sp.product_gauss_rule(2), 6)
        assert len(report.residuals) == 7
        assert report.residuals[4] > report.tol

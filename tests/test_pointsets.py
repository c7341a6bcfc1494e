import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphyper as sp
from sphyper.harmonics import SPHERE_AREA
from sphyper.pointsets import QuadratureRule, _gauss_legendre, bundled_tdesigns, unit_points


class TestRandomUniform:
    def test_shape_and_norms(self):
        pts = sp.random_uniform(500, seed=1)
        assert pts.shape == (500, 3)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1).max() < 1e-12

    def test_seed_reproducible(self):
        assert np.array_equal(sp.random_uniform(64, seed=7),
                              sp.random_uniform(64, seed=7))
        assert not np.array_equal(sp.random_uniform(64, seed=7),
                                  sp.random_uniform(64, seed=8))

    def test_mean_near_origin(self):
        pts = sp.random_uniform(20000, seed=2)
        assert np.linalg.norm(pts.mean(axis=0)) < 0.02

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sp.random_uniform(0, seed=0)

    @pytest.mark.parametrize("m, seed", [(1, 0), (2, 5), (17, 3), (1000, 1), (12345, 9)])
    def test_the_points_of_the_stacked_recipe(self, m, seed):
        # the in-place construction gives the bits of the recipe written as
        # whole-array expressions, in a C-ordered (m, 3) array
        rng = np.random.default_rng(seed)
        z = 2.0 * rng.random(m) - 1.0
        phi = 2.0 * np.pi * rng.random(m)
        s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        want = np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)
        got = sp.random_uniform(m, seed)
        assert np.array_equal(got, want) and got.flags.c_contiguous


@pytest.mark.parametrize("build, name, size", [
    (sp.equal_area, "m", 2.5),
    (lambda m: sp.random_uniform(m, 0), "m", 5.0),
    (sp.product_gauss_rule, "polar order N", 3.0),
    (sp.equal_area, "m", "12"),
])
def test_a_size_that_is_not_an_integer_is_refused(build, name, size):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got {size!r}$"):
        build(size)


class TestEqualArea:
    def test_small_counts(self):
        assert sp.equal_area(1).shape == (1, 3)
        assert np.allclose(sp.equal_area(2), [[0, 0, 1], [0, 0, -1]], atol=1e-14)

    def test_deterministic(self):
        assert np.array_equal(sp.equal_area(300), sp.equal_area(300))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 3000))
    def test_count_and_norms(self, m):
        pts = sp.equal_area(m)
        assert pts.shape == (m, 3)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1).max() < 1e-12

    def test_points_distinct(self):
        pts = sp.equal_area(1000)
        i, j = np.triu_indices(1000, k=1)
        closest = (pts[i] * pts[j]).sum(axis=1).max()
        assert closest < 1.0 - 1e-6  # nonzero geodesic separation

    def test_covers_both_caps(self):
        pts = sp.equal_area(100)
        assert pts[:, 2].max() > 0.95
        assert pts[:, 2].min() < -0.95


class TestRules:
    def test_equal_weight_rule(self):
        pts = sp.random_uniform(50, seed=3)
        rule = sp.equal_weight_rule(pts, "random")
        assert rule.m == 50
        assert rule.weight_sum == pytest.approx(SPHERE_AREA, rel=1e-14)
        assert np.ptp(rule.weights) == 0

    def test_positive_weights_required(self):
        pts = sp.random_uniform(4, seed=0)
        with pytest.raises(ValueError):
            QuadratureRule(pts, np.array([1.0, 1.0, 1.0, -0.1]), "loaded")

    def test_shape_mismatch_rejected(self):
        pts = sp.random_uniform(4, seed=0)
        with pytest.raises(ValueError):
            QuadratureRule(pts, np.ones(3), "loaded")

    def test_unknown_provenance_rejected(self):
        pts = sp.random_uniform(4, seed=0)
        with pytest.raises(ValueError):
            QuadratureRule(pts, np.ones(4), "mystery")

    @pytest.mark.parametrize("row, value", [
        (1, [np.nan, np.nan, np.nan]), (2, [np.inf, 0.0, 0.0]),
        (3, [0.0, 0.0, 1.0 + 2e-6]), (0, [0.0, 0.0, 0.0])])
    def test_bad_points_rejected(self, row, value):
        pts = sp.random_uniform(4, seed=0)
        pts[row] = value
        with pytest.raises(ValueError, match="unit vectors"):
            QuadratureRule(pts, np.ones(4), "loaded")

    def test_points_within_tolerance_accepted(self):
        pts = sp.random_uniform(4, seed=0)
        pts[1] *= 1.0 + 5e-7
        assert QuadratureRule(pts, np.ones(4), "loaded").m == 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        pts = sp.random_uniform(4, seed=0)
        with pytest.raises(ValueError, match="finite"):
            QuadratureRule(pts, np.array([1.0, bad, 1.0, 1.0]), "loaded")

    def test_complex_weights_rejected(self):
        # not cut to their real part with a ComplexWarning
        pts = sp.random_uniform(4, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="quadrature weights must be real numbers"):
                QuadratureRule(pts, np.ones(4) * (1.0 + 1e-3j), "loaded")

    @pytest.mark.parametrize("call", [
        pytest.param(unit_points, id="unit_points"),
        pytest.param(lambda pts: QuadratureRule(pts, np.ones(4), "loaded"), id="rule"),
        pytest.param(lambda pts: sp.evaluate_block(sp.Hyperinterpolant(2, np.ones(9)), pts),
                     id="evaluate_block"),
    ])
    def test_complex_points_rejected(self, call):
        pts = sp.random_uniform(4, seed=0) * (1.0 + 0j)
        pts[1, 0] += 1e-3j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="points must be real numbers"):
                call(pts)

    def test_overflowing_weight_sum_rejected(self):
        # finite weights whose sum is not: fit would return inf coefficients
        pts = np.array([[0.0, 0.0, 1.0]] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sum of the quadrature weights"):
                QuadratureRule(pts, np.full(4, 1.7e308), "loaded")


class TestSourceRule:
    def test_sources_and_provenance(self):
        for source, kwargs, m in (("random", dict(m=30, seed=2), 30),
                                  ("equal_area", dict(m=40), 40),
                                  ("gauss_product", dict(order=3), 18)):
            rule = sp.source_rule(source, **kwargs)
            assert rule.m == m and rule.provenance == source
        assert np.array_equal(sp.source_rule("random", m=30, seed=2).points,
                              sp.random_uniform(30, 2))
        assert np.array_equal(sp.source_rule("gauss_product", order=3).weights,
                              sp.product_gauss_rule(3).weights)

    def test_weights_only_where_the_source_has_them(self, tmp_path):
        assert sp.source_points("equal_area", m=10)[1] is None
        assert sp.source_points("gauss_product", order=2)[1].shape == (8,)
        path = tmp_path / "pts.txt"
        path.write_text("0 0 1\n1 0 0\n")
        assert sp.source_points("loaded", path=path)[1] is None
        rule = sp.source_rule("loaded", path=path)
        assert rule.provenance == "loaded"
        assert np.allclose(rule.weights, SPHERE_AREA / 2)

    @pytest.mark.parametrize("source", ["random", "equal_area", "gauss_product",
                                        "loaded", "hexagonal"])
    def test_missing_size_or_unknown_source(self, source):
        with pytest.raises(ValueError, match="point source"):
            sp.source_rule(source)


class TestProductGauss:
    def test_counts(self):
        assert sp.product_gauss_rule(3).m == 18
        assert sp.product_gauss_rule(8).m == 128

    def test_weight_sum(self):
        rule = sp.product_gauss_rule(5)
        assert rule.weight_sum == pytest.approx(SPHERE_AREA, rel=1e-14)

    def test_exactness_degree(self):
        assert sp.exactness_degree(sp.product_gauss_rule(3), 7).degree == 5
        assert sp.exactness_degree(sp.product_gauss_rule(4), 9).degree == 7

    def test_integrates_harmonics_to_zero(self):
        rule = sp.product_gauss_rule(6)
        block = sp.eval_basis_block(9, rule.points)
        integrals = block @ rule.weights
        assert abs(integrals[0] - np.sqrt(SPHERE_AREA)) < 1e-12
        assert np.abs(integrals[1:]).max() < 1e-11

    def test_order_validated(self):
        with pytest.raises(ValueError):
            sp.product_gauss_rule(0)

    @pytest.mark.parametrize("N", [9, 25, 49])
    def test_exact_rule_has_eta_zero_to_rounding(self, N):
        # exact to degree 2N - 1, so eta = 0 at n = N - 1 up to rounding:
        # measured 4.0e-15, 1.6e-14 and 6.4e-14 (with numpy's leggauss
        # weights: 4.2e-15, 9.1e-14 and 5.8e-13)
        assert sp.mz_constant(sp.product_gauss_rule(N), N - 1).eta <= 8e-14

    @pytest.mark.parametrize("N", [1, 2, 9, 61])
    def test_gauss_legendre_weights(self, N):
        x, w = _gauss_legendre(N)
        x_np, w_np = np.polynomial.legendre.leggauss(N)
        assert np.array_equal(x, x_np)
        assert np.abs(w / w_np - 1.0).max() <= 1e-11
        assert abs(w.sum() - 2.0) <= 1e-15


class TestLoadPointset:
    def write(self, tmp_path, text):
        path = tmp_path / "pts.txt"
        path.write_text(text)
        return path

    def test_three_columns(self, tmp_path):
        path = self.write(tmp_path, "# comment\n0 0 1\n1 0 0\n")
        pts, w = sp.load_pointset(path)
        assert pts.shape == (2, 3) and w is None

    def test_four_columns(self, tmp_path):
        path = self.write(tmp_path, "0 0 1 6.0\n1 0 0 6.3\n")
        pts, w = sp.load_pointset(path)
        assert np.allclose(w, [6.0, 6.3])

    def test_bad_column_count(self, tmp_path):
        path = self.write(tmp_path, "0 0 1\n1 0\n")
        with pytest.raises(ValueError, match="line 2"):
            sp.load_pointset(path)

    def test_non_numeric(self, tmp_path):
        path = self.write(tmp_path, "0 0 one\n")
        with pytest.raises(ValueError, match="line 1"):
            sp.load_pointset(path)

    @pytest.mark.parametrize("text", ["1 0 0\nnan nan nan\n",
                                      "1 0 0 1\n0 0 1 nan\n",
                                      "1 0 0 1\n0 0 1 inf\n"])
    def test_non_finite_rejected(self, tmp_path, text):
        path = self.write(tmp_path, text)
        with pytest.raises(ValueError, match="line 2"):
            sp.load_pointset(path)

    def test_off_sphere(self, tmp_path):
        path = self.write(tmp_path, "0 0 1.01\n")
        with pytest.raises(ValueError, match="line 1"):
            sp.load_pointset(path)

    def test_huge_finite_row_rejected_without_overflow(self, tmp_path):
        path = self.write(tmp_path, "1e308 1e308 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="line 1: point norm 1.41421356e"):
                sp.load_pointset(path)

    def test_near_sphere_renormalized(self, tmp_path):
        path = self.write(tmp_path, "0 0 0.9999999\n")
        pts, _ = sp.load_pointset(path)
        assert np.linalg.norm(pts[0]) == pytest.approx(1.0, abs=1e-15)

    def test_nonpositive_weight(self, tmp_path):
        path = self.write(tmp_path, "0 0 1 0.0\n")
        with pytest.raises(ValueError, match="line 1"):
            sp.load_pointset(path)


class TestBundledDesigns:
    def test_inventory(self):
        assert sorted(bundled_tdesigns()) == [1, 2, 3, 5, 8, 20]

    def test_rules_are_equal_weight(self):
        rule = sp.bundled_tdesign_rule(5)
        assert rule.m == 12
        assert np.ptp(rule.weights) == 0

    def test_exactness_meets_strength(self):
        for t in (1, 2, 3, 5, 8, 20):
            rule = sp.bundled_tdesign_rule(t)
            assert sp.exactness_degree(rule, t + 2).degree >= t

    def test_missing_strength_rejected(self):
        with pytest.raises(ValueError):
            sp.bundled_tdesign_rule(4)

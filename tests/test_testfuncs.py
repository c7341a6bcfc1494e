import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphyper as sp
from sphyper.testfuncs import FUNCTION_IDS, wendland_delta, wendland_phi

unit_vectors = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
).filter(lambda v: 0.1 < math.hypot(*v)).map(
    lambda v: np.array(v) / math.hypot(*v))


class TestF1:
    def test_symmetric_point(self):
        x = np.full(3, 1 / math.sqrt(3.0))
        assert sp.f1(x) == pytest.approx(3.0, abs=1e-12)

    def test_vectorized(self):
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        assert np.allclose(sp.f1(pts), [1.0, 1.0])

    @given(unit_vectors)
    def test_nonnegative(self, x):
        assert sp.f1(x)[0] >= 0


class TestF2:
    def test_axis_value(self):
        # 1 + sin(2)^2 at any axis point
        expected = 1.0 + math.sin(2.0) ** 2
        assert sp.f2(np.array([1.0, 0.0, 0.0]))[0] == pytest.approx(
            expected, abs=1e-14)
        assert expected == pytest.approx(1.826821810431806, abs=1e-14)

    def test_even_under_negation(self):
        pts = sp.random_uniform(40, seed=1)
        assert np.allclose(sp.f2(pts), sp.f2(-pts), atol=1e-14)

    def test_continuity_across_kink(self):
        # the plane x1+x2+x3 = 0 is the kink of |.|; values must match
        # from both sides
        base = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        tangent = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
        eps = 1e-8
        above = (base + eps * tangent) / np.linalg.norm(base + eps * tangent)
        below = (base - eps * tangent) / np.linalg.norm(base - eps * tangent)
        assert abs(sp.f2(above)[0] - sp.f2(below)[0]) < 1e-6


class TestF3:
    def test_reference_value(self):
        x = np.array([0.3, -0.4, math.sqrt(0.75)])
        assert sp.f3(x)[0] == pytest.approx(0.30529020753572067, rel=1e-14)

    def test_smooth_positive_region(self):
        pts = sp.random_uniform(200, seed=2)
        vals = sp.f3(pts)
        assert np.isfinite(vals).all()
        assert vals.max() < 2.5
        assert vals.min() > -0.25


class TestWendland:
    def test_deltas(self):
        three_sqrt_pi_half = 1.5 * math.sqrt(math.pi)
        assert wendland_delta(0) == pytest.approx(three_sqrt_pi_half, rel=1e-15)
        assert wendland_delta(1) == pytest.approx(three_sqrt_pi_half, rel=1e-15)
        assert wendland_delta(2) == pytest.approx(27 * math.sqrt(math.pi) / 16,
                                                  rel=1e-15)
        assert wendland_delta(3) == pytest.approx(math.gamma(3.5), rel=1e-15)

    def test_delta_formula(self):
        for sigma in range(5):
            direct = (3 * (sigma + 1) * math.gamma(sigma + 0.5)
                      / (2 * math.gamma(sigma + 1)))
            assert wendland_delta(sigma) == pytest.approx(direct, rel=1e-14)

    def test_original_profile_values(self):
        # phi~_1(1/2) = (1/2)^4 * 3 = 3/16, scaled via r = delta * 1/2
        r = wendland_delta(1) / 2
        assert wendland_phi(1, r) == pytest.approx(3 / 16, rel=1e-14)
        r2 = wendland_delta(2) / 2
        assert wendland_phi(2, r2) == pytest.approx(0.10807291666666667,
                                                    rel=1e-13)

    def test_endpoint_and_support(self):
        for sigma in range(5):
            assert wendland_phi(sigma, 0.0) == pytest.approx(1.0, rel=1e-14)
            assert wendland_phi(sigma, wendland_delta(sigma)) == 0.0
            assert wendland_phi(sigma, 10.0) == 0.0

    def test_monotone_decreasing_on_support(self):
        r = np.linspace(0, wendland_delta(2), 200)
        vals = wendland_phi(2, r)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            wendland_phi(5, 0.1)
        with pytest.raises(ValueError):
            wendland_delta(-1)


class TestF4:
    def test_value_at_center(self):
        # at +e1 the own bump contributes 1; +-e2, +-e3 sit at distance
        # sqrt(2) and the antipode at 2, possibly inside wider supports
        f = sp.f4(2)
        val = f(np.array([1.0, 0.0, 0.0]))[0]
        own = 1.0
        cross = 4 * wendland_phi(2, math.sqrt(2.0)) + wendland_phi(2, 2.0)
        assert val == pytest.approx(own + cross, rel=1e-13)
        assert val >= 1.0

    @settings(max_examples=30)
    @given(unit_vectors, st.permutations([0, 1, 2]),
           st.tuples(st.sampled_from([-1, 1]), st.sampled_from([-1, 1]),
                     st.sampled_from([-1, 1])))
    def test_octahedral_symmetry(self, x, perm, signs):
        f = sp.f4(1)
        y = np.array(signs, dtype=float) * x[list(perm)]
        assert f(y)[0] == pytest.approx(f(x)[0], abs=1e-12)

    def test_smoothness_families_distinct(self):
        pts = sp.random_uniform(50, seed=3)
        v0, v4 = sp.f4(0)(pts), sp.f4(4)(pts)
        assert not np.allclose(v0, v4)

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            sp.f4(7)


class TestRegistry:
    def test_function_ids(self):
        assert FUNCTION_IDS == ("f1", "f2", "f3", "f4_0", "f4_1", "f4_2",
                                "f4_3", "f4_4")

    def test_by_name_resolves_everything(self):
        x = sp.random_uniform(5, seed=4)
        for fid in FUNCTION_IDS:
            vals = sp.by_name(fid)(x)
            assert vals.shape == (5,)

    def test_by_name_unknown(self):
        with pytest.raises(ValueError):
            sp.by_name("f9")

"""eta of ring rules from their moments (`quadrature._ring_report`), against
the walk (`mz_constant`), which stays the oracle.  The path a call takes is
pinned by counting calls, not by timing."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest

import sphyper as sp
from sphyper import hyperinterp, quadrature
from sphyper.harmonics import SPHERE_AREA
from sphyper.pointsets import QuadratureRule
from sphyper.quadrature import _LANCZOS_PRODUCTS, _ring_moments, _ring_report, _rings, node_sum

# |eta from moments - eta from the walk|: measured at most 4.5e-14 on the
# audit's rules (equal_area(4 (n+1)^2) and product_gauss_rule(n+1), n = 30..46),
# where exact Gauss rules give eta <= 6.5e-14
ETA_TOL = 1e-13


def equal_area_rule(m):
    return sp.equal_weight_rule(sp.equal_area(m), "equal_area")


def rotated(rule, R):
    return QuadratureRule(rule.points @ R.T, rule.weights, rule.provenance)


def about_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def about_x(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def nudged_azimuth(rule, j=1000):
    """The rule with node j (inside a collar) turned 1e-9 about z."""
    points = rule.points.copy()
    x, y = points[j, :2]
    a, s = math.atan2(y, x) + 1e-9, math.hypot(x, y)
    points[j, :2] = s * math.cos(a), s * math.sin(a)
    return QuadratureRule(points, rule.weights, "loaded")


def unequal_weight(rule, j=1000):
    """The rule with the weight of node j (inside a collar) times 1.5."""
    weights = rule.weights.copy()
    weights[j] *= 1.5
    return QuadratureRule(rule.points, weights, "loaded")


class TestRings:
    @pytest.mark.parametrize("m", [3, 100, 2704, 10 ** 5])
    def test_equal_area_rings_are_its_collars_and_poles(self, m):
        rule = equal_area_rule(m)
        starts, counts = _rings(rule)
        assert counts.sum() == m
        assert counts[0] == counts[-1] == 1   # the poles
        assert starts.size == np.unique(rule.points[:, 2]).size
        assert np.array_equal(starts, np.append(0, np.cumsum(counts)[:-1]))

    @pytest.mark.parametrize("N", [1, 2, 26, 47])
    def test_gauss_product_rings_are_its_latitudes(self, N):
        starts, counts = _rings(sp.product_gauss_rule(N))
        assert np.array_equal(counts, np.full(N, 2 * N))
        assert counts.sum() == sp.product_gauss_rule(N).m

    def test_rotation_about_z_keeps_the_rings(self):
        rule = equal_area_rule(2704)
        starts, counts = _rings(rotated(rule, about_z(0.3)))
        assert np.array_equal(counts, _rings(rule)[1])

    def test_rotation_about_x_leaves_rings_of_one(self):
        assert np.array_equal(_rings(rotated(equal_area_rule(2704), about_x(0.3)))[1],
                              np.ones(2704, dtype=int))

    @pytest.mark.parametrize("broken", [nudged_azimuth, unequal_weight])
    def test_a_broken_ring_is_no_ring(self, broken):
        starts, counts = _rings(broken(equal_area_rule(2704)))
        assert np.array_equal(starts, np.arange(2704))
        assert np.array_equal(counts, np.ones(2704, dtype=int))

    @pytest.mark.parametrize("rule, L", [
        pytest.param(lambda: equal_area_rule(2704), 50, id="equal_area"),
        pytest.param(lambda: sp.product_gauss_rule(26), 50, id="gauss"),
        pytest.param(lambda: rotated(equal_area_rule(2704), about_z(1.0)), 50, id="rotated"),
    ])
    def test_moments_match_the_node_sum(self, rule, L):
        rule = rule()
        assert np.abs(_ring_moments(rule, *_rings(rule), L)
                      - node_sum(L, rule.points, rule.weights)).max() <= 1e-13


def node_sum_residuals(rule, L):
    """exactness_degree's residuals from the sums over every node."""
    integrals = node_sum(L, rule.points, rule.weights)
    errors = np.abs(integrals)
    errors[0] = abs(integrals[0] - math.sqrt(SPHERE_AREA))
    return [float(np.max(errors[ell * ell:(ell + 1) ** 2])) for ell in range(L + 1)]


class TestExactnessFromMoments:
    @pytest.mark.parametrize("rule, L, heads", [
        pytest.param(lambda: equal_area_rule(10 ** 4), 24, 89, id="equal_area"),
        pytest.param(lambda: sp.product_gauss_rule(26), 53, 26, id="gauss"),
    ])
    def test_ring_rules_walk_only_the_ring_heads(self, monkeypatch, rule, L, heads):
        rule, walks, walk = rule(), [], quadrature.basis_chunks

        def counted(n, points):
            walks.append((n, len(points)))
            return walk(n, points)

        with monkeypatch.context() as mp:
            mp.setattr(quadrature, "basis_chunks", counted)
            residuals = sp.exactness_degree(rule, L).residuals
        assert walks == [(L, heads)]
        assert np.abs(np.subtract(residuals, node_sum_residuals(rule, L))).max() <= 1e-13

    @pytest.mark.parametrize("rule, L", [
        pytest.param(lambda: sp.equal_weight_rule(sp.random_uniform(5000, 8), "random"), 12,
                     id="random"),
        pytest.param(lambda: sp.bundled_tdesign_rule(20), 21, id="t-design"),
    ])
    def test_rules_of_rings_of_one_give_the_node_sum_bit_for_bit(self, rule, L):
        rule = rule()
        assert sp.exactness_degree(rule, L).residuals == node_sum_residuals(rule, L)


class TestRingReport:
    @pytest.mark.parametrize("rule, n", [
        pytest.param(lambda: equal_area_rule(2704), 25, id="equal_area"),
        pytest.param(lambda: sp.product_gauss_rule(26), 25, id="gauss"),
        pytest.param(lambda: rotated(equal_area_rule(2704), about_z(0.3)), 25, id="about-z"),
    ])
    def test_matches_the_walk(self, rule, n):
        rule = rule()
        got, want = _ring_report(rule, n), sp.mz_constant(rule, n)
        assert got.dim == want.dim == (n + 1) ** 2
        for field in ("eta", "lambda_min", "lambda_max"):
            assert abs(getattr(got, field) - getattr(want, field)) <= ETA_TOL

    def test_exact_gauss_rule_has_eta_zero(self):
        assert _ring_report(sp.product_gauss_rule(31), 30).eta <= ETA_TOL

    @pytest.mark.parametrize("rule, n", [
        pytest.param(lambda: sp.equal_weight_rule(sp.random_uniform(2704, 3), "random"), 25,
                     id="random"),
        pytest.param(lambda: sp.bundled_tdesign_rule(20), 25, id="t-design"),
        pytest.param(lambda: rotated(equal_area_rule(2704), about_x(0.3)), 25, id="about-x"),
        pytest.param(lambda: nudged_azimuth(equal_area_rule(2704)), 25, id="nudged"),
        pytest.param(lambda: unequal_weight(equal_area_rule(2704)), 25, id="unequal-weight"),
        pytest.param(lambda: equal_area_rule(2500), 24, id="dim-625"),
        pytest.param(lambda: sp.product_gauss_rule(26), -30, id="negative-n"),
    ])
    def test_leaves_the_rule_to_the_walk(self, rule, n):
        assert _ring_report(rule(), n) is None

    def test_weights_that_overflow_the_gram_are_left_to_the_walk(self):
        # finite weights, but the pole's overflows G (and the moments): the
        # walk refuses the Gram, without a numpy RuntimeWarning
        rule = equal_area_rule(2704)
        weights = rule.weights.copy()
        weights[0] = 1.7e308
        rule = QuadratureRule(rule.points, weights, "loaded")
        assert _ring_report(rule, 25) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Gram is not finite"):
                sp.audited_fit(rule, sp.by_name("f3"), 25)

    def test_rotation_about_x_keeps_eta(self):
        rule = equal_area_rule(2704)
        assert abs(sp.mz_constant(rotated(rule, about_x(0.3)), 25).eta
                   - _ring_report(rule, 25).eta) <= ETA_TOL


def audited_fit_and_calls(monkeypatch, rule, f, n):
    """audited_fit(rule, f, n) (or the ValueError it raised) and the counts of
    its dsyrk calls, walks and Lanczos operator products."""
    calls = Counter()

    def counted(fn, name):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    def lanczos(product, dim):
        return extremes(counted(product, "products"), dim)

    extremes = quadrature._lanczos_extremes
    with monkeypatch.context() as mp:
        mp.setattr(quadrature, "_syrk", counted(quadrature._syrk, "syrk"))
        walk = counted(quadrature._gram_walk, "walks")
        for module in (quadrature, hyperinterp):
            mp.setattr(module, "_gram_walk", walk)
        mp.setattr(quadrature, "_lanczos_extremes", lanczos)
        try:
            result = sp.audited_fit(rule, f, n)
        except ValueError as exc:
            result = exc
    return result, calls


class TestAuditedFitPath:
    @pytest.mark.parametrize("rule", [
        pytest.param(lambda: equal_area_rule(4 * 676), id="equal_area"),
        pytest.param(lambda: sp.product_gauss_rule(26), id="gauss"),
    ])
    def test_ring_rule_above_625_skips_the_walk(self, monkeypatch, rule):
        rule, f = rule(), sp.by_name("f3")
        h, calls = audited_fit_and_calls(monkeypatch, rule, f, 25)
        assert calls["syrk"] == calls["walks"] == 0
        assert 0 < calls["products"] <= _LANCZOS_PRODUCTS
        assert np.array_equal(h.coeffs, sp.fit(rule, f, 25).coeffs)   # bit for bit
        assert abs(h.eta_used - sp.mz_constant(rule, 25).eta) <= ETA_TOL

    def test_aliased_gauss_rule_spends_the_budget_then_walks(self, monkeypatch):
        # 50 azimuths alias orders k and 50 - k for k >= 20: lambda_min = 0 at n = 30
        rule = sp.product_gauss_rule(25)
        result, calls = audited_fit_and_calls(monkeypatch, rule, sp.by_name("f3"), 30)
        assert isinstance(result, ValueError) and "rank deficient" in str(result)
        assert calls["products"] == _LANCZOS_PRODUCTS
        assert calls["walks"] == 1
        assert _ring_report(rule, 30) == sp.mz_constant(rule, 30)   # field by field

    @pytest.mark.parametrize("rule, n", [
        pytest.param(lambda: sp.equal_weight_rule(sp.random_uniform(16 * 676, 4), "random"),
                     25, id="random"),
        pytest.param(lambda: equal_area_rule(2500), 24, id="dim-625"),
    ])
    def test_other_rules_make_one_walk(self, monkeypatch, rule, n):
        rule, f = rule(), sp.by_name("f3")
        h, calls = audited_fit_and_calls(monkeypatch, rule, f, n)
        assert calls["walks"] == 1 and calls["syrk"] > 0
        assert h.eta_used == sp.mz_constant(rule, n).eta


def test_sphyper_check_compares_the_two_paths(capsys):
    from sphyper.cli import main
    assert main(["check", "--filter", "gauss-exactness"]) == 0
    out = capsys.readouterr().out
    assert "PASS gauss-exactness" in out and "|eta moments - walk|" in out

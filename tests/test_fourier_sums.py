"""Node sums of rules whose runs do not pay, from one pass over their nodes'
(theta, phi) Fourier sums (`quadrature._fourier_sums`), and their Gram from
the grid twin of their moments (`quadrature._twin_gram`), against the dense
basis product (`oracles.dense_gram`), which stays the oracle."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest

import sphyper as sp
from oracles import dense_gram
from sphyper import harmonics, hyperinterp, quadrature
from sphyper.harmonics import SPHERE_AREA, _legendre_table
from sphyper.pointsets import QuadratureRule
from sphyper.quadrature import _FOURIER_NODES, _fourier_sums, _gram, _theta_coefficients

# max |got - want| / max |want| for the node sums against the dense basis
# product, as for the run sums: measured at most 2.5e-15 (n <= 46)
RUN_SUM_TOL = 5e-15
# the same for the twin's Gram against the dense Gram (dense_gram), as for
# the run Gram: measured at most 6.9e-15 on RULES (n <= 25)
GRAM_TOL = 2e-14
# |eta of the twin's Gram - eta of the dense Gram|: measured at most 6.7e-15
# on RULES (n <= 25)
ETA_TOL = 1e-13


def rel_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def random_rule(m, seed, unequal=False):
    points = sp.random_uniform(m, seed)
    if not unequal:
        return sp.equal_weight_rule(points, "random")
    w = np.random.default_rng(seed).uniform(0.5, 1.5, m)
    return QuadratureRule(points, w * SPHERE_AREA / w.sum(), "loaded")


def with_poles(m, seed):
    """A random rule with nodes exactly at both poles (rho = 0) and on the
    equator's x and y axes."""
    points = np.vstack([[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]],
                        sp.random_uniform(m - 4, seed)])
    return sp.equal_weight_rule(points, "loaded")


RULES = {
    "equal": lambda: random_rule(2000, 1),
    "unequal": lambda: random_rule(2000, 2, unequal=True),
    "poles": lambda: with_poles(1500, 3),
}


class TestThetaCoefficients:
    # |series - table|: measured 3.3e-14 at L = 30 and 5.7e-13 at L = 92,
    # where the table itself is 1.6e-14 and 8.9e-13 from scipy's sph_harm_y
    @pytest.mark.parametrize("L, tol", [(0, 1e-16), (1, 1e-15), (7, 1e-14), (30, 1e-13),
                                        (92, 2e-12)])
    def test_series_give_the_table(self, L, tol):
        # the cos / sin series of A at theta in [0, 2 pi) against the
        # Legendre table at (sin theta, 0, cos theta)
        theta = np.random.default_rng(L).uniform(0.0, 2.0 * math.pi, 50)
        k = np.arange(L + 1)[:, None]
        A = _theta_coefficients(L)
        series = np.where((np.arange(L + 1) % 2 == 0)[:, None, None],
                          A @ np.cos(k * theta), A @ np.sin(k * theta))
        table = _legendre_table(L, np.cos(theta), np.sin(theta))
        assert np.abs(series - table).max() <= tol

    def test_well_conditioned_and_read_only(self):
        A = _theta_coefficients(92)
        assert np.abs(A).sum(axis=-1).max() <= 3.9
        assert np.all(A[1::2, :, 0] == 0.0)
        l = np.arange(93)
        assert np.all(A[:, (l[:, None] - l) % 2 == 1] == 0.0)   # k = l (mod 2) only
        with pytest.raises(ValueError, match="read-only"):
            A[0, 0, 0] = 1.0


class TestFourierSums:
    @pytest.mark.parametrize("L", [0, 1, 6, 15, 30, 46])
    @pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
    def test_match_the_basis_product_and_the_walk(self, rule, L):
        # against one basis block, and the dense oracle's walk over blocks
        rule = rule()
        v = rule.weights * sp.by_name("f3")(rule.points)
        got = _fourier_sums(rule.points, (L, v))[0]
        assert rel_gap(got, sp.eval_basis_block(L, rule.points) @ v) <= RUN_SUM_TOL
        assert rel_gap(got, dense_gram(rule, L, v, gram=False)[1]) <= RUN_SUM_TOL

    @pytest.mark.parametrize("n", [0, 1, 6, 15])
    @pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
    def test_one_pass_gives_c_and_the_moments(self, rule, n):
        # c at n and the moments at 2n from one pass, each against the dense
        # basis product, and c bit for bit the one-value pass's
        rule = rule()
        v = rule.weights * sp.by_name("f3")(rule.points)
        with quadrature._one_blas_thread():   # the BLAS as _gram runs it
            c, mu = _fourier_sums(rule.points, (n, v), (2 * n, rule.weights))
            assert np.array_equal(c, _fourier_sums(rule.points, (n, v))[0])
        B = sp.eval_basis_block(2 * n, rule.points)
        assert rel_gap(mu, B @ rule.weights) <= RUN_SUM_TOL
        assert rel_gap(c, B[:(n + 1) ** 2] @ v) <= RUN_SUM_TOL

    def test_n_zero_is_the_weighted_sum(self):
        rule = random_rule(300, 4, unequal=True)
        got = _fourier_sums(rule.points, (0, rule.weights))[0]
        assert got.shape == (1,)
        assert abs(got[0] - SPHERE_AREA / math.sqrt(SPHERE_AREA)) <= 1e-15 * math.sqrt(SPHERE_AREA)

    def test_blocks_add_up(self, monkeypatch):
        # three blocks of the constant width, the last of one node, against
        # one block
        rule, L = random_rule(2 * _FOURIER_NODES + 1, 5), 12
        v = rule.weights * sp.by_name("f3")(rule.points)
        blocks = _fourier_sums(rule.points, (L, v))[0]
        monkeypatch.setattr(quadrature, "_FOURIER_NODES", rule.m)
        assert rel_gap(blocks, _fourier_sums(rule.points, (L, v))[0]) <= RUN_SUM_TOL

    def test_two_values_blocks_add_up(self, monkeypatch):
        # the same for c at 6 and the moments at 12 side by side
        rule = random_rule(2 * _FOURIER_NODES + 1, 5)
        sums = (6, rule.weights * sp.by_name("f3")(rule.points)), (12, rule.weights)
        blocks = _fourier_sums(rule.points, *sums)
        monkeypatch.setattr(quadrature, "_FOURIER_NODES", rule.m)
        for got, want in zip(blocks, _fourier_sums(rule.points, *sums), strict=True):
            assert rel_gap(got, want) <= RUN_SUM_TOL

    def test_the_gram_makes_one_pass(self, monkeypatch):
        # c at n and the moments at 2n in one pass for _gram with a value,
        # the moments alone for mz_constant, n alone for fit
        rule, n = random_rule(3000, 11), 9
        v = rule.weights * sp.by_name("f3")(rule.points)
        calls, fourier = [], quadrature._fourier_sums

        def counted(points, *sums):   # the Ls of each pass over the nodes
            calls.append(tuple(L for L, _ in sums))
            return fourier(points, *sums)

        monkeypatch.setattr(quadrature, "_fourier_sums", counted)
        _gram(rule, n, v)
        assert calls == [(n, 2 * n)]
        calls.clear()
        sp.mz_constant(rule, n)
        assert calls == [(2 * n,)]
        calls.clear()
        sp.fit(rule, sp.by_name("f3"), n)
        assert calls == [(n,)]

    def test_no_basis_walk(self, monkeypatch):
        # fit, the exactness scan, the Gram and eta of a random rule never
        # evaluate the basis at its nodes
        rule, f = random_rule(3000, 6), sp.by_name("f3")
        monkeypatch.setattr(harmonics, "eval_basis_block", None)
        sp.fit(rule, f, 12)
        sp.exactness_degree(rule, 12)
        sp.mz_constant(rule, 30)
        sp.audited_fit(rule, f, 12)


class TestTwinGram:
    @pytest.mark.parametrize("n", [0, 1, 6, 12, 25])
    @pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
    def test_matches_the_walk(self, rule, n):
        # against the dense oracle's walk over basis blocks
        rule = rule()
        G, dense = _gram(rule, n)[0], dense_gram(rule, n)[0]
        assert np.array_equal(G, np.triu(G))   # the upper triangle alone
        assert rel_gap(G, dense) <= GRAM_TOL
        assert abs(sp.mz_report(G).eta - sp.mz_report(dense).eta) <= ETA_TOL

    def test_the_twin_is_2n_plus_1_runs(self, monkeypatch):
        rule, n, runs = random_rule(2000, 7), 9, Counter()
        run_gram = quadrature._run_gram

        def counted(n, points, weights, starts):
            runs[n, starts.size, len(points)] += 1
            return run_gram(n, points, weights, starts)

        monkeypatch.setattr(quadrature, "_run_gram", counted)
        _gram(rule, n)
        assert runs == {(n, 2 * n + 1, (2 * n + 1) * (4 * n + 2)): 1}

    @pytest.mark.parametrize("n", [6, 15])
    def test_fit_audited_fit_and_the_sweep_give_the_same_coefficients(self, n):
        rule, f = random_rule(10000, 8, unequal=True), sp.by_name("f3")   # eta 0.55, 0.91
        coeffs = sp.fit(rule, f, n).coeffs
        assert np.array_equal(sp.audited_fit(rule, f, n).coeffs, coeffs)
        assert np.array_equal(hyperinterp._gram_fit(rule, f, n)[1].coeffs, coeffs)

    def test_fewer_nodes_than_dim_is_rank_deficient(self):
        rule = random_rule(30, 9)
        report = sp.mz_constant(rule, 6)   # dim 49
        assert report.rank_deficient and report.lambda_min <= quadrature.RANK_TOL
        with pytest.raises(ValueError, match="rank deficient"):
            sp.audited_fit(rule, sp.by_name("f3"), 6)

    @pytest.mark.parametrize("n", [6, 30])   # the dense solver, and Lanczos's dims
    def test_weights_that_overflow_the_gram_are_refused(self, n):
        # finite weights whose sum overflows: the Gram is refused, without a
        # numpy RuntimeWarning
        rule = random_rule(2000, 10)
        weights = rule.weights.copy()
        weights[0] = 1.7e308
        rule = QuadratureRule(rule.points, weights, "loaded")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Gram is not finite"):
                sp.mz_constant(rule, n)
            with pytest.raises(ValueError, match="Gram is not finite"):
                sp.audited_fit(rule, sp.by_name("f3"), n)

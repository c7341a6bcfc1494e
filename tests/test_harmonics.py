import ast
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre, sph_harm_y

import sphyper as sp
from sphyper import quadrature
from sphyper.harmonics import (SPHERE_AREA, _BLOCK_VALUES, _chunk_points, _legendre_table,
                               basis_chunks, basis_indices)
from sphyper.quadrature import _gram

coords = st.floats(-1.0, 1.0).filter(lambda v: abs(v) > 1e-3)
raw_vectors = st.tuples(coords, coords, coords).filter(
    lambda v: 0.1 < math.hypot(*v))


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestDimensions:
    def test_laplacian_eigenvalues(self):
        assert sp.lb_eigenvalue(2, 0) == 0
        assert sp.lb_eigenvalue(2, 3) == 12
        assert sp.lb_eigenvalue(3, 2) == 8


class TestIndexing:
    def test_flat_index_layout(self):
        assert sp.flat_index(0, 1) == 0
        assert sp.flat_index(2, 1) == 4
        assert sp.flat_index(2, 5) == 8

    def test_roundtrip_with_basis_indices(self):
        pairs = basis_indices(6)
        assert len(pairs) == 49
        for flat, (ell, k) in enumerate(pairs):
            assert sp.flat_index(ell, k) == flat

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            sp.flat_index(2, 0)
        with pytest.raises(ValueError):
            sp.flat_index(2, 6)

    @pytest.mark.parametrize("k", [1.5, 2.0, True])
    def test_non_integer_order_index_rejected(self, k):
        with pytest.raises(ValueError, match="invalid basis index"):
            sp.flat_index(2, k)

    @pytest.mark.parametrize("d", [2.5, 2.0, 1, True, "3"])
    def test_sphere_dimension_must_be_an_integer_from_2(self, d):
        with pytest.raises(ValueError, match="sphere dimension d must be an integer >= 2"):
            sp.lb_eigenvalue(d, 3)


DEGREE_POINTS = sp.random_uniform(50, seed=20)
DEGREE_RULE = sp.equal_weight_rule(sp.equal_area(4000), "equal_area")
DEGREE_CALLS = {
    "lb_eigenvalue": lambda n: sp.lb_eigenvalue(2, n),
    "flat_index": lambda n: sp.flat_index(n, 1),
    "basis_indices": basis_indices,
    "eval_basis_block": lambda n: sp.eval_basis_block(n, DEGREE_POINTS),
    "basis_chunks": lambda n: basis_chunks(n, DEGREE_POINTS),
    "_legendre_table": lambda n: _legendre_table(n, DEGREE_POINTS[:, 2]),
    "kernel_dot": lambda n: sp.kernel_dot(n, 0.3),
    "Hyperinterpolant": lambda n: sp.Hyperinterpolant(n=n, coeffs=np.zeros(16)),
    "fit": lambda n: sp.fit(DEGREE_RULE, sp.by_name("f3"), n),
    "audited_fit": lambda n: sp.audited_fit(DEGREE_RULE, sp.by_name("f3"), n),
    "mz_constant": lambda n: sp.mz_constant(DEGREE_RULE, n),
    "exactness_degree": lambda n: sp.exactness_degree(DEGREE_RULE, n),
    "project_reference": lambda n: sp.project_reference(sp.by_name("f3"), n,
                                                        sp.product_gauss_rule(20)),
}


class TestDegreeCheck:
    """Every call that takes a degree refuses one that is not an integer,
    naming it, before any work; numpy's integers are integers."""

    @pytest.mark.parametrize("n", [2.5, 3.0, 30.5, True, False, "3", None])
    @pytest.mark.parametrize("call", DEGREE_CALLS.values(), ids=DEGREE_CALLS.keys())
    def test_refuses_a_non_integer(self, call, n):
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {n!r}")):
            call(n)

    @pytest.mark.parametrize("call", DEGREE_CALLS.values(), ids=DEGREE_CALLS.keys())
    def test_refuses_a_negative_integer(self, call):
        with pytest.raises(ValueError, match="must be >= 0, got -1"):
            call(-1)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64])
    def test_numpy_integers_give_the_plain_int_results(self, dtype):
        # a narrow integer must not wrap or overflow where sizes are computed
        # from it: every entry works on int(n)
        f3, rule = sp.by_name("f3"), sp.product_gauss_rule(22)
        for n in (5, 20):
            for call in (lambda n: sp.fit(rule, f3, n), lambda n: sp.audited_fit(rule, f3, n),
                         lambda n: sp.project_reference(f3, n, rule),
                         lambda n: sp.fit(DEGREE_RULE, f3, n)):
                got, want = call(dtype(n)), call(n)
                assert type(got.n) is int
                assert np.array_equal(got.coeffs, want.coeffs)
        assert sp.exactness_degree(rule, dtype(45)) == sp.exactness_degree(rule, 45)
        assert np.array_equal(sp.eval_basis_block(dtype(20), rule.points[:50]),
                              sp.eval_basis_block(20, rule.points[:50]))

    def test_numpy_integers_pass(self):
        f3 = sp.by_name("f3")
        assert sp.lb_eigenvalue(2, np.int64(3)) == 12
        assert np.array_equal(sp.kernel_dot(np.int32(4), [0.1, 0.7]), sp.kernel_dot(4, [0.1, 0.7]))
        assert np.array_equal(sp.fit(DEGREE_RULE, f3, np.int64(5)).coeffs,
                              sp.fit(DEGREE_RULE, f3, 5).coeffs)


def legendre(ell, t):
    """P_ell(t) read off kernel_dot: G_ell - G_{ell-1} = (2 ell + 1)/(4 pi) P_ell."""
    term = sp.kernel_dot(ell, t) - (sp.kernel_dot(ell - 1, t) if ell else 0.0)
    return term * SPHERE_AREA / (2 * ell + 1)


class TestLegendre:
    def test_degree_five_value(self):
        # (63 t^5 - 70 t^3 + 15 t)/8 at t = 0.7
        assert legendre(5, 0.7) == pytest.approx(-0.36519875, abs=1e-12)

    def test_endpoint_values(self):
        for ell in range(8):
            assert legendre(ell, 1.0) == pytest.approx(1.0, abs=1e-12)
            assert legendre(ell, -1.0) == pytest.approx((-1.0) ** ell, abs=1e-12)

    def test_array_input(self):
        t = np.linspace(-1, 1, 11)
        out = legendre(3, t)
        assert out.shape == t.shape
        assert out[5] == pytest.approx(0.0, abs=1e-15)

    @given(st.integers(0, 12), st.floats(-1.0, 1.0))
    def test_bounded_by_one(self, ell, t):
        assert abs(legendre(ell, t)) <= 1.0 + 1e-12


class TestBasisValues:
    def test_constant_mode(self):
        pts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], unit([1, 2, 2])])
        block = sp.eval_basis_block(0, pts)
        assert np.allclose(block, 1.0 / math.sqrt(SPHERE_AREA), atol=1e-15)

    def test_zonal_degree_one(self):
        # k = 1 is the m = 0 (zonal) function sqrt(3/(4*pi)) * x3
        block = sp.eval_basis_block(1, np.array([[0.0, 0.0, 1.0]]))
        assert block[sp.flat_index(1, 1), 0] == pytest.approx(
            math.sqrt(3 / SPHERE_AREA), abs=1e-14)

    def test_orthonormal_under_exact_rule(self):
        rule = sp.product_gauss_rule(9)
        block = sp.eval_basis_block(8, rule.points)
        assert block.shape == (81, rule.m)   # (n+1)^2 rows
        gram = (block * rule.weights) @ block.T
        assert np.abs(gram - np.eye(81)).max() < 1e-12

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            sp.eval_basis_block(2, np.zeros((3, 2)))

    @settings(max_examples=40)
    @given(raw_vectors, st.integers(0, 9))
    def test_pointwise_bound(self, v, ell):
        # addition theorem at x = y: sum_k Y^2 = (2*ell+1)/(4*pi)
        block = sp.eval_basis_block(ell, unit(v)[None, :])[ell * ell:, 0]
        assert np.abs(block).max() <= math.sqrt((2 * ell + 1) / SPHERE_AREA) + 1e-9


class TestAdditionTheoremAndKernel:
    def test_addition_theorem(self):
        rng = np.random.default_rng(3)
        x = unit(rng.standard_normal(3))
        y = unit(rng.standard_normal(3))
        bx, by = sp.eval_basis_block(9, np.stack([x, y])).T
        for ell in range(10):
            lo, hi = ell * ell, (ell + 1) ** 2
            lhs = float(bx[lo:hi] @ by[lo:hi])
            rhs = (2 * ell + 1) / SPHERE_AREA * np.polynomial.legendre.legval(
                float(x @ y), [0.0] * ell + [1.0])
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_kernel_matches_basis_sum(self):
        rng = np.random.default_rng(4)
        x = unit(rng.standard_normal(3))
        y = unit(rng.standard_normal(3))
        bx, by = sp.eval_basis_block(6, np.stack([x, y])).T
        direct = float(bx @ by)
        assert sp.kernel_dot(6, x @ y) == pytest.approx(direct, abs=1e-12)

    def test_kernel_diagonal(self):
        x = unit([1.0, 1.0, -0.5])
        for n in (0, 3, 10):
            assert sp.kernel_dot(n, x @ x) == pytest.approx(
                (n + 1) ** 2 / SPHERE_AREA, rel=1e-13)

    def test_kernel_dot_array(self):
        u = np.linspace(-1, 1, 7)
        out = sp.kernel_dot(5, u)
        assert out.shape == u.shape
        assert out[-1] == pytest.approx(36 / SPHERE_AREA, rel=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 40])
    def test_kernel_dot_is_legval(self, n):
        u = np.random.default_rng(6).uniform(-1.2, 1.2, (30, 40))
        want = np.polynomial.legendre.legval(np.clip(u, -1.0, 1.0),
                                             (2 * np.arange(n + 1) + 1) / SPHERE_AREA)
        assert np.abs(sp.kernel_dot(n, u) - want).max() <= 1e-14
        assert type(sp.kernel_dot(n, 0.3)) is np.float64

    def test_kernel_evaluation_holds_five_blocks(self):
        # 209 targets by 5000 nodes of inner products per block: the block,
        # and in kernel_dot its clipped copy, the two recurrence terms and
        # one product (legval's fresh array per step peaked near six)
        rule = sp.equal_weight_rule(sp.random_uniform(5000, seed=1), "random")
        targets, f3 = sp.random_uniform(1000, seed=2), sp.by_name("f3")
        sp.evaluate_kernel(rule, f3, 10, targets[:5])   # first-call costs outside
        tracemalloc.start()
        try:
            sp.evaluate_kernel(rule, f3, 10, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = (_BLOCK_VALUES // rule.m) * rule.m * 8
        assert peak <= 5.1 * block

    @pytest.mark.parametrize("n", [0, 1, 30, 100])
    def test_kernel_high_degree(self, n):
        # independent oracle: scipy's P_l, summed term by term
        u = np.linspace(-1.0, 1.0, 2001)
        want = sum((2 * ell + 1) / SPHERE_AREA * eval_legendre(ell, u)
                   for ell in range(n + 1))
        got = sp.kernel_dot(n, u)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def oracle_basis(n, points):
    """Real orthonormal basis from scipy's complex Y_l^m, row order as sphyper's.

    The colatitude comes from atan2(hypot(x, y), z), which keeps its
    accuracy at the poles where arccos(z) loses it.
    """
    theta = np.arctan2(np.hypot(points[:, 0], points[:, 1]), points[:, 2])
    phi = np.arctan2(points[:, 1], points[:, 0])
    rows = []
    for ell in range(n + 1):
        for k in range(ell + 1):
            y = sph_harm_y(ell, k, theta, phi)
            rows += [y.real] if k == 0 else [math.sqrt(2) * y.real, math.sqrt(2) * y.imag]
    return np.array(rows)


ORACLE_POINTS = {
    "random": sp.random_uniform(200, seed=21),
    "equal_area": sp.equal_area(200),
    # (x + iy)^m underflows at the last two for large m: the block must stay finite
    "poles": np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-9, 0.0, 1.0],
                       [1e-5, 1e-5, math.sqrt(1.0 - 2e-10)]]),
}


class TestAgainstOracle:
    """eval_basis_block equals scipy's basis up to one sign per row."""

    @pytest.mark.parametrize("kind", sorted(ORACLE_POINTS))
    @pytest.mark.parametrize("n", [10, 46, 100])
    def test_matches_scipy(self, n, kind):
        points = ORACLE_POINTS[kind]
        block = sp.eval_basis_block(n, points)
        assert np.all(np.isfinite(block))
        want = oracle_basis(n, points)
        # sign conventions (Condon-Shortley phase) may differ row by row
        signs = np.where(np.sum(block * want, axis=1) < 0, -1.0, 1.0)
        assert np.abs(block - signs[:, None] * want).max() <= 1e-12


def cos_rows_at(L, z, x=None):
    """eval_basis_block(L, (x_r, 0, z_r)) in its cos rows, as [M, l, r]: the
    harmonic of order M and degree l (Y_{l,1} at M = 0), 0 where l < M."""
    points = np.zeros((z.size, 3))
    points[:, 0], points[:, 2] = 1.0 if x is None else x, z
    B = np.vstack([sp.eval_basis_block(L, points), np.zeros(z.size)])
    return B[quadrature._order_rows(L)[0]]


def scalar_recurrence_basis(n, points):
    """The basis block with each recurrence coefficient from math.sqrt, one
    (l, m) at a time: the oracle of _recurrence's arrays."""
    x, y, z = points.T.copy()
    B = np.empty(((n + 1) ** 2, z.size))
    pmm = 1.0 / math.sqrt(SPHERE_AREA)
    re, im = np.full_like(z, math.sqrt(2.0)), np.zeros_like(z)
    for m in range(n + 1):
        if m > 0:
            pmm *= math.sqrt((2 * m + 1) / (2.0 * m))
            re, im = re * x - im * y, re * y + im * x
        p_prev, p = 0.0, pmm
        for l in range(m, n + 1):
            if l > m:
                a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
                p, p_prev = a * (z * p - b * p_prev), p
            if m == 0:
                B[l * l] = p
            else:
                np.multiply(p, re, out=B[l * l + 2 * m - 1])
                np.multiply(p, im, out=B[l * l + 2 * m])
    return B


def same_bits(got, want):
    """Equal values and equal signs of zero."""
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


class TestLegendreTable:
    """_legendre_table runs eval_basis_block's recurrence over every order at
    once: the same bits as the cos rows of eval_basis_block."""

    HEIGHTS = {
        "single": np.array([0.3]),
        "poles": np.array([-1.0, -0.5, 0.0, 1e-9, 0.5, 1.0]),   # rho = 0 at z = +-1
        "equal_area": np.unique(sp.equal_area(2704)[:, 2]),
    }

    @pytest.mark.parametrize("at", ["heights", "grid"])
    @pytest.mark.parametrize("heights", HEIGHTS.values(), ids=HEIGHTS.keys())
    @pytest.mark.parametrize("L", [0, 1, 2, 25, 92])
    def test_cos_rows_of_the_basis(self, L, heights, at):
        # at the run heights (1, 0, z), and on grid nodes (rho, 0, z)
        x = None if at == "heights" else np.sqrt((1.0 - heights) * (1.0 + heights))
        assert same_bits(_legendre_table(L, heights, x), cos_rows_at(L, heights, x))

    def test_split_heights_give_the_unsplit_table(self):
        z = self.HEIGHTS["equal_area"]
        whole = _legendre_table(46, z)
        parts = [_legendre_table(46, z[rows]) for rows in (slice(0, 7), slice(7, None))]
        assert same_bits(np.concatenate(parts, axis=2), whole)

    @pytest.mark.parametrize("n", [6, 15, 46])
    def test_recurrence_coefficients_keep_the_basis_bits(self, n):
        points = sp.random_uniform(3000, seed=22)
        assert same_bits(sp.eval_basis_block(n, points), scalar_recurrence_basis(n, points))


def two_blocks_and_one(n):
    """Random rule whose nodes span two full basis blocks at degree n and one more node."""
    return sp.equal_weight_rule(sp.random_uniform(2 * _chunk_points(n) + 1, seed=12), "random")


@pytest.fixture(scope="module")
def boundary_rule():
    return two_blocks_and_one(TestChunkBoundary.n)


@pytest.fixture(scope="module")
def floor_rule():
    return two_blocks_and_one(TestChunkBoundary.n_floor)


def assert_rel_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestChunkBoundary:
    """Every reduction over nodes matches one unchunked basis evaluation."""

    n = 6
    n_floor = 46    # blocks of _MIN_CHUNK points: the value budget gives fewer

    def check_chunks(self, rule, n):
        chunks = list(basis_chunks(n, rule.points))
        width = _chunk_points(n)
        assert [rows.stop - rows.start for rows, _ in chunks] == [width, width, 1]
        assert_rel_close(np.hstack([B for _, B in chunks]), sp.eval_basis_block(n, rule.points))

    def check_gram(self, rule, n):
        B = sp.eval_basis_block(n, rule.points)
        w = np.random.default_rng(14).uniform(0.5, 1.5, rule.m)
        unequal = sp.QuadratureRule(rule.points, w * SPHERE_AREA / w.sum())
        for r in (rule, unequal):
            G = sp.discrete_gram(r, n)
            assert_rel_close(G, (B * r.weights) @ B.T)
            # discrete_gram mirrors the triangle of _gram exactly
            assert np.array_equal(_gram(r, n)[0], np.triu(G))
            assert np.array_equal(G, G.T)

    def test_chunks_cover_points_in_order(self, boundary_rule):
        self.check_chunks(boundary_rule, self.n)

    def test_chunks_at_floor_width(self, floor_rule):
        assert _chunk_points(self.n_floor) == 2048
        self.check_chunks(floor_rule, self.n_floor)

    def test_discrete_gram(self, boundary_rule):
        self.check_gram(boundary_rule, self.n)

    def test_discrete_gram_at_floor_width(self, floor_rule):
        self.check_gram(floor_rule, self.n_floor)

    def test_fit_coefficients(self, boundary_rule):
        y = sp.by_name("f3")(boundary_rule.points)
        B = sp.eval_basis_block(self.n, boundary_rule.points)
        assert_rel_close(sp.fit(boundary_rule, y, self.n).coeffs,
                         B @ (boundary_rule.weights * y))

    def test_exactness_residuals(self, boundary_rule):
        integrals = sp.eval_basis_block(self.n, boundary_rule.points) @ boundary_rule.weights
        integrals[0] -= math.sqrt(SPHERE_AREA)
        want = [np.abs(integrals[ell * ell:(ell + 1) ** 2]).max()
                for ell in range(self.n + 1)]
        assert_rel_close(sp.exactness_degree(boundary_rule, self.n).residuals, want)

    def test_evaluate_block(self, boundary_rule):
        coeffs = np.random.default_rng(13).standard_normal((self.n + 1) ** 2)
        h = sp.Hyperinterpolant(n=self.n, coeffs=coeffs)
        assert_rel_close(sp.evaluate_block(h, boundary_rule.points),
                         coeffs @ sp.eval_basis_block(self.n, boundary_rule.points))


def test_harmonics_imports_only_math_and_numpy():
    """The basis module holds the basis, its blocks and the kernel; every BLAS
    product of a sum over a rule's nodes lives in quadrature."""
    tree = ast.parse(Path(sp.harmonics.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):   # imports inside functions too
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"math", "numpy"}

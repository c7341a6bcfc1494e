import math
import re
import sys
import threading
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg.blas
from hypothesis import given, settings
from hypothesis import strategies as st

import sphyper as sp
from sphyper import harmonics, quadrature
from sphyper.pointsets import QuadratureRule
from sphyper.quadrature import (_EXACTNESS_TOL, _LANCZOS_PRODUCTS, _blas_thread_calls,
                                _gram, _one_blas_thread, discrete_gram, node_sum)


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
        # a finite weight sum, but the Gram's zonal entries overflow at the pole
        rule = QuadratureRule(np.array([[0.0, 0.0, 1.0]] * 2),
                              np.full(2, 8.5e307), "loaded")
        with pytest.raises(ValueError, match="Gram is not finite"):
            sp.mz_constant(rule, 7)

    def test_negative_degree_rejected(self):
        rule = sp.product_gauss_rule(2)
        with pytest.raises(ValueError):
            sp.mz_constant(rule, -1)

    @pytest.mark.parametrize("walk", [
        sp.mz_constant, discrete_gram, lambda rule, n: node_sum(n, rule.points, rule.weights),
    ], ids=["mz_constant", "discrete_gram", "node_sum"])
    @pytest.mark.parametrize("n", [-1, -2, -10 ** 6])
    def test_every_walk_checks_its_degree(self, walk, n):
        # where the walk sizes its blocks, before it allocates anything
        with pytest.raises(ValueError, match=f"degree n must be >= 0, got {n}"):
            walk(sp.product_gauss_rule(2), n)

    @pytest.mark.parametrize("G", [np.eye(5), np.ones((4, 3)), np.ones(4), np.ones((0, 0)),
                                   np.float64(1.0)], ids=["dim-5", "4x3", "1-d", "empty", "0-d"])
    def test_gram_shape_checked(self, G):
        with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(G)}")):
            sp.mz_report(G)

    def test_nested_list_reports_as_the_array(self):
        G = discrete_gram(sp.equal_weight_rule(sp.random_uniform(60, seed=3), "random"), 2)
        assert sp.mz_report([[1.0]]) == sp.mz_report(np.array([[1.0]]))
        assert sp.mz_report(G.tolist()) == sp.mz_report(G)

    @pytest.mark.parametrize("G", [[[1.0, 0.0], [1.0]], [["a"]]], ids=["ragged", "text"])
    def test_list_that_is_not_a_float_array_refused(self, G):
        with pytest.raises(ValueError, match="a Gram is a square array of floats"):
            sp.mz_report(G)

    @pytest.mark.parametrize("G", [np.eye(4) * (1.0 + 1e-3j), np.eye(4, dtype=object)],
                             ids=["complex", "object"])
    def test_gram_that_is_not_real_refused(self, G):
        with pytest.raises(ValueError, match="must be real numbers"):
            sp.mz_report(G)

    def test_solver_failure_stays_a_runtime_error(self, monkeypatch):
        def failing(G):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(RuntimeError, match="eigensolver failed on the 4x4 Gram"):
            sp.mz_report(np.eye(4))

    def test_lanczos_branch_repeats_and_matches_dense(self):
        # dim 2025 > 625 takes the Lanczos branch
        rule = sp.equal_weight_rule(sp.equal_area(2600), "equal_area")
        first, second = sp.mz_constant(rule, 44), sp.mz_constant(rule, 44)
        assert first.dim == 2025
        assert first.eta == second.eta
        lam = np.linalg.eigvalsh(discrete_gram(rule, 44))
        assert first.eta == pytest.approx(
            max(abs(lam[0] - 1.0), abs(lam[-1] - 1.0)), abs=1e-14)

    def test_rank_deficient_gram_converges_on_the_lanczos_branch(self, monkeypatch):
        # 80 azimuths alias orders k and 80 - k for k >= 36, so at n = 44 the
        # Gram is singular; Lanczos finds lambda_min = 0 within its budget
        # (230 products measured), and the dense solver is not called
        rule = sp.product_gauss_rule(40)
        G = discrete_gram(rule, 44)
        report, calls = report_and_calls(monkeypatch, G)
        assert calls["_lanczos_extremes"] == 1 and calls["eigvalsh"] == 0
        assert report.dim == 2025
        assert report.rank_deficient
        lam = np.linalg.eigvalsh(G)
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


def report_and_calls(monkeypatch, G):
    """mz_report(G), and the counts of its Lanczos runs (_lanczos_extremes),
    Gram-vector products (dsymv) and dense eigvalsh calls; mz_report looks
    each up when it runs."""
    calls = Counter()

    def counted(fn, name):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    with monkeypatch.context() as mp:
        for module, name in ((quadrature, "_lanczos_extremes"),
                             (scipy.linalg.blas, "dsymv"), (np.linalg, "eigvalsh")):
            mp.setattr(module, name, counted(getattr(module, name), name))
        report = sp.mz_report(G)
    return report, calls


def random_gram(per_dim, n, seed):
    m = round(per_dim * (n + 1) ** 2)
    return discrete_gram(sp.equal_weight_rule(sp.random_uniform(m, seed), "random"), n)


class TestEigensolverBranch:
    """Which solver mz_report takes, pinned by counting calls, not by timing."""

    def test_equal_area_gram_above_625_takes_lanczos(self, monkeypatch):
        G = discrete_gram(sp.equal_weight_rule(sp.equal_area(4 * 676), "equal_area"), 25)
        report, calls = report_and_calls(monkeypatch, G)
        assert calls["_lanczos_extremes"] == 1 and calls["eigvalsh"] == 0
        assert 0 < calls["dsymv"] <= _LANCZOS_PRODUCTS
        assert sp.mz_report(G) == report   # bit for bit
        lam = np.linalg.eigvalsh(G)
        assert report.dim == 676
        assert abs(report.lambda_min - lam[0]) <= 1e-14
        assert abs(report.lambda_max - lam[-1]) <= 1e-14
        assert abs(report.eta - max(abs(lam[0] - 1.0), abs(lam[-1] - 1.0))) <= 1e-14

    @pytest.mark.parametrize("gram", [
        pytest.param(lambda: random_gram(1.2, 30, seed=1), id="random-1.2dim"),
    ])
    def test_near_singular_gram_spends_the_budget_then_goes_dense(self, monkeypatch, gram):
        # lambda_min = 1.2e-5, in a dense spread of small eigenvalues
        G = gram()
        report, calls = report_and_calls(monkeypatch, G)
        assert calls["_lanczos_extremes"] == 1
        assert calls["dsymv"] == _LANCZOS_PRODUCTS
        assert calls["eigvalsh"] == 1
        with _one_blas_thread():   # the solver's bits, as mz_report runs it
            lam = np.linalg.eigvalsh(G)
        assert report.lambda_min == max(lam[0], 0.0)
        assert report.lambda_max == lam[-1]

    @pytest.mark.parametrize("rule, n", [
        # 50 and 42 azimuths alias orders k and 50 - k (42 - k): lambda_min
        # = 0, in a cluster of eigenvalues at rounding level.  Measured: 218
        # and 143 products
        pytest.param(lambda: sp.product_gauss_rule(25), 30, id="gauss-25-n30"),
        pytest.param(lambda: sp.product_gauss_rule(21), 25, id="gauss-21-n25"),
    ])
    def test_aliased_gauss_gram_converges_at_lambda_min_zero(self, monkeypatch, rule, n):
        G = discrete_gram(rule(), n)
        report, calls = report_and_calls(monkeypatch, G)
        assert calls["_lanczos_extremes"] == 1 and calls["eigvalsh"] == 0
        assert 0 < calls["dsymv"] < _LANCZOS_PRODUCTS
        assert report.rank_deficient
        lam = np.linalg.eigvalsh(G)
        assert abs(report.lambda_min - lam[0]) <= 1e-14
        assert abs(report.lambda_max - lam[-1]) <= 1e-14

    def test_dim_625_stays_dense(self, monkeypatch):
        G = discrete_gram(sp.equal_weight_rule(sp.equal_area(2500), "equal_area"), 24)
        report, calls = report_and_calls(monkeypatch, G)
        assert report.dim == 625
        assert calls == {"eigvalsh": 1}

    def test_random_gram_with_eta_above_one_converges(self, monkeypatch):
        G = random_gram(8, 30, seed=5)
        report, calls = report_and_calls(monkeypatch, G)
        assert calls["_lanczos_extremes"] == 1 and calls["eigvalsh"] == 0
        assert report.eta == pytest.approx(1.28, abs=0.01)
        lam = np.linalg.eigvalsh(G)
        assert abs(report.lambda_min - lam[0]) <= 1e-14
        assert abs(report.lambda_max - lam[-1]) <= 1e-14


class TestLanczos:
    """_lanczos_extremes on operators whose spectrum is known."""

    @pytest.mark.parametrize("gap", [1e-1, 1e-3])
    def test_diagonal_with_clustered_extremes(self, gap):
        # each end a double eigenvalue and three more `gap` apart, the rest
        # spread in between, in a shuffled order
        rng = np.random.default_rng(3)
        cluster = gap * np.array([0, 0, 1, 2, 3])
        d = rng.permutation(np.concatenate([0.25 + cluster, rng.uniform(0.5, 2.5, 890),
                                            3.0 - cluster]))
        lam_min, lam_max = quadrature._lanczos_extremes(lambda x: d * x, d.size)
        want = np.linalg.eigvalsh(np.diag(d))
        assert abs(lam_min - want[0]) <= 1e-14
        assert abs(lam_max - want[-1]) <= 1e-14

    def test_identity_stops_at_beta_zero(self):
        # G v_0 = v_0: beta_0 = 0 (or rounding) closes the Krylov space after
        # one product, with no division by it
        products = []

        def identity(x):
            products.append(x)
            return x

        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert quadrature._lanczos_extremes(identity, 700) == [1.0, 1.0]
        assert len(products) == 1

    def test_identity_plus_rounding(self):
        # G = I + 1e-14 E, ||E|| = 1: the Gram of an exact rule
        rng = np.random.default_rng(4)
        E = rng.standard_normal((700, 700))
        E = (E + E.T) / 2
        G = np.eye(700) + 1e-14 * E / np.linalg.norm(E, 2)
        lam_min, lam_max = quadrature._lanczos_extremes(lambda x: G @ x, 700)
        want = np.linalg.eigvalsh(G)
        assert abs(lam_min - want[0]) <= 1e-14
        assert abs(lam_max - want[-1]) <= 1e-14

    def test_two_runs_agree_bit_for_bit(self):
        G = random_gram(8, 30, seed=5)
        product = quadrature._triangle_product(G)
        with _one_blas_thread():
            first = quadrature._lanczos_extremes(product, G.shape[0])
            second = quadrature._lanczos_extremes(product, G.shape[0])
        assert first == second


def equal_area_rule(m):
    return sp.equal_weight_rule(sp.equal_area(m), "equal_area")


class TestGramTriangle:
    """mz_report reads the Gram's upper triangle only, on every solver branch."""

    @pytest.mark.parametrize("rule, n, branch", [
        pytest.param(lambda: equal_area_rule(4 * 49), 6, "dense", id="dense"),
        pytest.param(lambda: equal_area_rule(4 * 676), 25, "lanczos", id="lanczos-25"),
        pytest.param(lambda: equal_area_rule(4 * 961), 30, "lanczos", id="lanczos-30"),
        pytest.param(lambda: sp.product_gauss_rule(21), 25, "lanczos", id="lanczos-aliased"),
        pytest.param(lambda: sp.equal_weight_rule(sp.random_uniform(1153, 1), "random"), 30,
                     "fallback", id="fallback"),
    ])
    def test_upper_triangle_reports_as_the_full_gram(self, monkeypatch, rule, n, branch):
        G = discrete_gram(rule(), n)
        report, calls = report_and_calls(monkeypatch, np.triu(G))
        assert report == sp.mz_report(G)   # field by field, bit for bit
        assert {"dense": calls == {"eigvalsh": 1},
                "lanczos": calls["_lanczos_extremes"] == 1 and calls["eigvalsh"] == 0,
                "fallback": calls["dsymv"] == _LANCZOS_PRODUCTS and calls["eigvalsh"] == 1,
                }[branch]


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


def three_block_rule(n):
    return sp.equal_weight_rule(sp.random_uniform(2 * harmonics._chunk_points(n) + 1, seed=17),
                                "random")


def blas_threads():
    """{library: the thread count its BLAS runs at now}."""
    return {library: get() for library, (get, _) in _blas_thread_calls().items()}


class TestOneBlasThread:
    """Every sum over a rule's nodes runs with numpy's and scipy's BLAS on one
    thread, and the counts found are put back when the last caller leaves."""

    @pytest.fixture
    def two_threads(self):
        found = blas_threads()
        for _, set_ in _blas_thread_calls().values():
            set_(2)
        yield
        for library, (_, set_) in _blas_thread_calls().items():
            set_(found[library])

    def test_pins_both_and_puts_the_counts_back(self, two_threads):
        with _one_blas_thread():
            assert blas_threads() == {"numpy": 1, "scipy": 1}
            with _one_blas_thread():   # a nested caller keeps the pin
                pass
            assert blas_threads() == {"numpy": 1, "scipy": 1}
        assert blas_threads() == {"numpy": 2, "scipy": 2}

    def test_concurrent_grams_under_fast_switching(self):
        # four callers share the pin; on the random rule each runs the
        # Fourier pass and the grid twin's run Gram under it
        rule = three_block_rule(6)
        v = rule.weights * sp.by_name("f3")(rule.points)
        G_alone, c_alone = _gram(rule, 6, v)
        threads = blas_threads()
        results = [None] * 4

        def gram(i):
            results[i] = _gram(rule, 6, v)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=gram, args=(i,)) for i in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for G, c in results:
            assert np.array_equal(G, G_alone) and np.array_equal(c, c_alone)
        # the last caller to leave the shared pin put both counts back
        assert blas_threads() == threads

    def test_a_blas_without_thread_calls_is_left_as_it_is(self, monkeypatch):
        class Bare:   # a shared library that exports no thread-count call
            def __init__(self, path):
                pass

            def __getattr__(self, name):
                raise AttributeError(name)

        with monkeypatch.context() as mp:
            mp.setattr(quadrature.ctypes, "CDLL", Bare)
            assert _blas_thread_calls.__wrapped__() == {}
        monkeypatch.setattr(quadrature, "_blas_thread_calls", lambda: {})
        rule = three_block_rule(6)
        assert sp.mz_constant(rule, 6) == sp.mz_report(discrete_gram(rule, 6))


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
        assert report.residuals[4] > _EXACTNESS_TOL


def energies(c):
    """||c_l|| of each degree l of a coefficient vector in canonical order."""
    return np.array([np.linalg.norm(c[l * l:(l + 1) ** 2]) for l in range(math.isqrt(c.size))])


@st.composite
def rules_and_degrees(draw):
    """(rule, n, top): a random, equal-area or bundled-design rule, a degree n
    with (n+1)^2 <= m and n <= 15, and the largest such degree, top."""
    kind = draw(st.sampled_from(["random", "equal_area", "design"]))
    if kind == "design":
        rule = sp.bundled_tdesign_rule(draw(st.sampled_from(sorted(sp.bundled_tdesigns()))))
    elif kind == "random":
        rule = sp.equal_weight_rule(
            sp.random_uniform(draw(st.integers(1, 2000)), seed=draw(st.integers(0, 2 ** 16))),
            "random")
    else:
        rule = equal_area_rule(draw(st.integers(1, 2000)))
    top = min(15, math.isqrt(rule.m) - 1)
    return rule, draw(st.integers(0, top)), top


@st.composite
def rotations(draw):
    """A rotation of R^3, from a unit quaternion (w, x, y, z)."""
    q = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda v: math.hypot(*v) > 0.1)))
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                     [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                     [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]])


class TestOrthogonalInvariance:
    """Oracle-free checks: every reported quantity is basis independent.

    A rotation R of the nodes acts on each degree l of the basis by an
    orthogonal (Wigner) matrix, so the Gram's spectrum and each degree's
    coefficient energy ||c_l|| stay the same; the antipodal map x -> -x
    multiplies Y_l by (-1)^l.  Measured over 1800 draws of random,
    equal-area and design rules (m up to 4000, n <= 15): eta, lambda_min and
    lambda_max moved by at most 2.2e-14, and ||c_l|| by at most 1.3e-14 ||c||
    (the leading blocks of a Gram at the largest degree included); under the
    antipodal map all of them matched bit for bit.  TOL = 1e-13 leaves a
    factor of 4.5.
    """

    TOL = 1e-13

    def assert_same_spectrum(self, got, want):
        assert got.dim == want.dim
        for field in ("eta", "lambda_min", "lambda_max"):
            assert abs(getattr(got, field) - getattr(want, field)) <= self.TOL

    @settings(max_examples=30, deadline=None)
    @given(rules_and_degrees(), st.integers(0, 2 ** 32 - 1), rotations())
    def test_rotation(self, drawn, seed, R):
        rule, n, top = drawn
        rotated = QuadratureRule(rule.points @ R.T, rule.weights, rule.provenance)
        y = np.random.default_rng(seed).standard_normal(rule.m)   # one value per node
        want, c = sp.mz_constant(rule, n), sp.fit(rule, y, n).coeffs
        scale = self.TOL * np.linalg.norm(c)
        self.assert_same_spectrum(sp.mz_constant(rotated, n), want)
        assert np.abs(energies(sp.fit(rotated, y, n).coeffs) - energies(c)).max() <= scale
        # the leading blocks of one Gram at the largest degree, as a sweep takes them
        G, c_top = _gram(rotated, top, rule.weights * y)
        dim = (n + 1) ** 2
        self.assert_same_spectrum(sp.mz_report(G[:dim, :dim]), want)
        assert np.abs(energies(c_top[:dim]) - energies(c)).max() <= scale

    @settings(max_examples=20, deadline=None)
    @given(rules_and_degrees(), st.integers(0, 2 ** 32 - 1))
    def test_antipodal_map(self, drawn, seed):
        rule, n, _ = drawn
        mirrored = QuadratureRule(-rule.points, rule.weights, rule.provenance)
        y = np.random.default_rng(seed).standard_normal(rule.m)
        c = sp.fit(rule, y, n).coeffs
        parity = np.repeat([(-1.0) ** l for l in range(n + 1)], 2 * np.arange(n + 1) + 1)
        assert np.abs(sp.fit(mirrored, y, n).coeffs - parity * c).max() <= (
            self.TOL * np.linalg.norm(c))
        self.assert_same_spectrum(sp.mz_constant(mirrored, n), sp.mz_constant(rule, n))

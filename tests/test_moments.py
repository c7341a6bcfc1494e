"""Sums over latitude runs (`quadrature._run_sums`), the Gram of rules with
runs (`quadrature._run_gram`) and their eta from the run operator
(`quadrature._audit`), against the dense basis product (`oracles.dense_gram`),
which stays the oracle.  The path a call takes is pinned by counting calls,
not by timing."""

import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import sphyper as sp
from oracles import dense_gram
from sphyper import harmonics, hyperinterp, quadrature
from sphyper.harmonics import SPHERE_AREA
from sphyper.pointsets import QuadratureRule
from sphyper.quadrature import (_audit, _fourier_sums, _gram, _paying_runs, _rings, _run_gram,
                                _run_sums, _run_synthesis, node_sum)

# |eta (lambda_min, lambda_max) from the run operator - the dense Gram's|:
# measured at most 1.6e-14 on the audit's rules (equal_area(4 (n+1)^2) and
# product_gauss_rule(n+1), n = 25..46; 9.8e-15 on the equal-area ones) and
# 4.0e-15 on TestRingReport's, where exact Gauss rules give eta <= 6.1e-14;
# 1.3e-15 for the Gram paths' eta in TestAuditedFitPath
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
        starts = _rings(rule.points)
        if starts is None:   # m = 3: every run is one node
            starts = np.arange(m)
        counts = np.diff(np.append(starts, m))
        assert counts[0] == counts[-1] == 1   # the poles
        assert starts.size == np.unique(rule.points[:, 2]).size

    @pytest.mark.parametrize("N", [1, 2, 26, 47])
    def test_gauss_product_rings_are_its_latitudes(self, N):
        assert np.array_equal(_rings(sp.product_gauss_rule(N).points), np.arange(0, 2 * N * N, 2 * N))

    def test_rotation_about_z_keeps_the_rings(self):
        rule = equal_area_rule(2704)
        assert np.array_equal(_rings(rotated(rule, about_z(0.3)).points), _rings(rule.points))

    def test_rotation_about_x_leaves_rings_of_one(self):
        assert _rings(rotated(equal_area_rule(2704), about_x(0.3)).points) is None

    @pytest.mark.parametrize("broken", [nudged_azimuth, unequal_weight])
    def test_a_broken_ring_is_no_ring(self, broken):
        # a run is bit-equal z alone: a ring with one node turned in azimuth
        # or weighted apart is still the same run, whose sums hold as well
        rule = equal_area_rule(2704)
        assert np.array_equal(_rings(broken(rule).points), _rings(rule.points))

    @pytest.mark.parametrize("rule, L", [
        pytest.param(lambda: equal_area_rule(2704), 50, id="equal_area"),
        pytest.param(lambda: sp.product_gauss_rule(26), 50, id="gauss"),
        pytest.param(lambda: rotated(equal_area_rule(2704), about_z(1.0)), 50, id="rotated"),
    ])
    def test_moments_match_the_node_sum(self, rule, L):
        # the moments (node_sum of the weights, over the runs) against the
        # plain sum over every node, the dense basis product
        rule = rule()
        assert rel_gap(node_sum(L, rule.points, rule.weights),
                       sp.eval_basis_block(L, rule.points) @ rule.weights) <= RUN_SUM_TOL


def rel_gap(got, want):
    """max |got - want| relative to max |want|."""
    return np.abs(got - want).max() / np.abs(want).max()


# node_sum over runs against the dense basis product eval_basis_block(n,
# points) @ v, relative to its largest entry: measured at most 1.9e-15 over
# the rules of TestRunSums and test_moments_match_the_node_sum
RUN_SUM_TOL = 5e-15


def random_runs(sizes, seed):
    """A rule of runs of the given sizes at random heights, with random
    azimuths and random positive weights."""
    rng = np.random.default_rng(seed)
    z = np.repeat(rng.uniform(-1.0, 1.0, len(sizes)), sizes)
    phi = rng.uniform(0.0, 2.0 * math.pi, z.size)
    s = np.sqrt((1.0 - z) * (1.0 + z))
    weights = rng.uniform(0.5, 1.5, z.size)
    return QuadratureRule(np.column_stack([s * np.cos(phi), s * np.sin(phi), z]),
                          weights * SPHERE_AREA / weights.sum(), "loaded")


def single_pair(m=500, seed=6):
    """A random rule whose nodes 10 and 11 share their z: one run of two."""
    points = sp.random_uniform(m, seed)
    z, s = points[10, 2], math.sqrt((1.0 - points[10, 2]) * (1.0 + points[10, 2]))
    points[11] = [s * math.cos(2.0), s * math.sin(2.0), z]
    return sp.equal_weight_rule(points, "loaded")


RUN_RULES = {
    "equal_area": lambda: equal_area_rule(2704),
    "gauss": lambda: sp.product_gauss_rule(26),
    "about-z": lambda: rotated(equal_area_rule(2704), about_z(0.3)),
    "nudged": lambda: nudged_azimuth(equal_area_rule(2704)),
    "unequal-weight": lambda: unequal_weight(equal_area_rule(2704)),
    "random-runs": lambda: random_runs(np.random.default_rng(5).integers(1, 60, 80), 7),
    "single-pair": single_pair,
}


class TestRunSums:
    @pytest.mark.parametrize("n", [0, 1, 15, 30])
    @pytest.mark.parametrize("rule", RUN_RULES.values(), ids=RUN_RULES.keys())
    def test_match_the_basis_product(self, rule, n):
        # the identity holds whatever the runs, whether or not they pay
        rule = rule()
        v = rule.weights * sp.by_name("f3")(rule.points)
        starts = _rings(rule.points)
        assert starts is not None
        assert rel_gap(_run_sums(n, rule.points, starts, v),
                       sp.eval_basis_block(n, rule.points) @ v) <= RUN_SUM_TOL

    def test_single_pair_is_one_run_of_two(self):
        starts = _rings(single_pair().points)
        assert starts.size == 499 and 11 not in starts

    def test_chunks_of_whole_runs(self, monkeypatch):
        # chunks end on run boundaries; a run longer than a chunk is one chunk
        rule = random_runs([1, 30, 5, 40, 1, 7, 7, 7, 90], 8)
        v = rule.weights * sp.by_name("f3")(rule.points)
        monkeypatch.setattr(quadrature, "_RUN_CHUNK", 16)
        assert rel_gap(node_sum(12, rule.points, v), sp.eval_basis_block(12, rule.points) @ v) \
            <= RUN_SUM_TOL

    def test_a_run_of_two_among_random_nodes_takes_the_fourier_sums(self, monkeypatch):
        # the first two of 9000 random nodes share their z: one run of two
        # among 8999 runs, which do not pay, so node_sum takes the Fourier
        # sums over every node, as on a rule of runs of one, and no basis walk
        points = sp.random_uniform(9000, 4)
        z, s = points[0, 2], math.sqrt((1.0 - points[0, 2]) * (1.0 + points[0, 2]))
        points[1] = [s * math.cos(2.0), s * math.sin(2.0), z]
        rule = sp.equal_weight_rule(points, "loaded")
        v = rule.weights * sp.by_name("f3")(rule.points)
        assert _rings(rule.points).size == rule.m - 1 and _paying_runs(rule.points) is None
        sums, fourier = [], quadrature._fourier_sums

        def counted(points, *values):
            sums.append((tuple(L for L, _ in values), len(points)))
            return fourier(points, *values)

        with monkeypatch.context() as mp:
            mp.setattr(harmonics, "eval_basis_block", None)   # no basis at the nodes
            mp.setattr(quadrature, "_fourier_sums", counted)
            got = node_sum(15, rule.points, v)
        assert sums == [((15,), rule.m)]
        assert rel_gap(got, dense_gram(rule, 15, v, gram=False)[1]) <= RUN_SUM_TOL

    def test_runs_of_one_take_the_fourier_sums(self):
        # a rule without runs takes the Fourier sums, bit for bit, within
        # RUN_SUM_TOL of the chunked basis walk
        rule = sp.equal_weight_rule(sp.random_uniform(9000, 4), "random")
        v = rule.weights * sp.by_name("f3")(rule.points)
        assert _rings(rule.points) is None
        got = node_sum(15, rule.points, v)
        with quadrature._one_blas_thread():   # the BLAS as node_sum runs it
            assert np.array_equal(got, _fourier_sums(rule.points, (15, v))[0])
        assert rel_gap(got, dense_gram(rule, 15, v, gram=False)[1]) <= RUN_SUM_TOL

    def test_fit_holds_no_more_than_the_basis_walk(self):
        # fit of sampled values on 10^6 equal-area nodes at n = 15, against
        # w f and the chunked basis walk on the same nodes
        rule = equal_area_rule(10 ** 6)
        y = sp.by_name("f3")(rule.points)
        peaks = {}
        for name, call in (("fit", lambda: sp.fit(rule, y, 15)),
                           ("walk", lambda: dense_gram(rule, 15, rule.weights * y, gram=False))):
            call()   # first-call costs outside the measurement
            tracemalloc.start()
            try:
                call()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["fit"] <= peaks["walk"]


# |_run_synthesis - c @ eval_basis_block|, the dense basis product, relative
# to sum |c|, which bounds |h|: measured at most 7.9e-17 over the cases of
# TestRunSynthesis (N(0, 1) coefficients, n = 0..46)
SYNTHESIS_TOL = 1e-15


def loaded_gauss(tmp_path, N=35):
    """product_gauss_rule(N) written to a .txt file with its weights and
    loaded back.  The loader renormalizes every row, which moves some z by
    an ulp, so its N rings come back as more runs of bit-equal z (367 at N
    = 35), which still pay."""
    rule = sp.product_gauss_rule(N)
    path = tmp_path / "gauss.txt"
    np.savetxt(path, np.column_stack([rule.points, rule.weights]))
    return sp.source_rule("loaded", path=path)


SYNTHESIS_POINTS = {
    "equal_area": lambda tmp_path: sp.equal_area(2704),   # one-node polar caps
    "gauss": lambda tmp_path: sp.product_gauss_rule(26).points,
    "loaded": lambda tmp_path: loaded_gauss(tmp_path).points,
    "random-runs": lambda tmp_path: random_runs(np.random.default_rng(5).integers(1, 60, 80),
                                                7).points,
}


class TestRunSynthesis:
    """h(x_j) over the runs of the points (`_run_synthesis`), the transpose of
    the run sums, against the dense basis product; evaluate_block takes it
    where the runs pay, as on every reference rule and equal-area grid."""

    @pytest.mark.parametrize("n", [0, 1, 24, 46])
    @pytest.mark.parametrize("points", SYNTHESIS_POINTS.values(), ids=SYNTHESIS_POINTS.keys())
    def test_matches_the_basis_product(self, tmp_path, points, n):
        points = points(tmp_path)
        c = np.random.default_rng(n).standard_normal((n + 1) ** 2)
        starts = _rings(points)
        got = _run_synthesis(n, points, starts, c)
        assert np.abs(got - c @ sp.eval_basis_block(n, points)).max() \
            <= SYNTHESIS_TOL * np.abs(c).sum()
        if _paying_runs(points) is not None:
            assert np.array_equal(sp.Hyperinterpolant(n, c)(points), got)

    def test_chunks_of_whole_runs(self, monkeypatch):
        # chunks end on run boundaries; a run longer than a chunk is one chunk
        points = random_runs([1, 30, 5, 40, 1, 7, 7, 7, 90], 8).points
        c = np.random.default_rng(2).standard_normal(13 ** 2)
        monkeypatch.setattr(quadrature, "_RUN_CHUNK", 16)
        got = _run_synthesis(12, points, _rings(points), c)
        assert np.abs(got - c @ sp.eval_basis_block(12, points)).max() \
            <= SYNTHESIS_TOL * np.abs(c).sum()

    @pytest.mark.parametrize("n", [4, 24])
    def test_no_basis_for_the_l2_error_or_an_equal_area_grid(self, monkeypatch, n):
        # the reference rule's rings and an equal-area grid take the
        # synthesis over their runs: no basis is evaluated at their nodes
        f, ref, grid = sp.by_name("f3"), sp.reference_rule_for(n), sp.equal_area(10 ** 4)
        h = sp.fit(equal_area_rule(4 * (n + 1) ** 2), f, n)
        want = (sp.l2_error(f, h, ref), sp.evaluate_block(h, grid))
        with monkeypatch.context() as mp:
            mp.setattr(harmonics, "eval_basis_block", None)
            got = (sp.l2_error(f, h, ref), sp.evaluate_block(h, grid))
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        diff = f(ref.points) - h.coeffs @ sp.eval_basis_block(n, ref.points)
        assert abs(got[0] - math.sqrt(float(ref.weights @ (diff * diff)))) <= 1e-15

    def test_random_points_take_the_basis_blocks(self, monkeypatch):
        points, chunks = sp.random_uniform(3000, 5), []
        h = sp.Hyperinterpolant(6, np.random.default_rng(1).standard_normal(49))

        def counted(n, pts):
            chunks.append(len(pts))
            return basis_chunks(n, pts)

        basis_chunks = hyperinterp.basis_chunks
        monkeypatch.setattr(hyperinterp, "basis_chunks", counted)
        monkeypatch.setattr(hyperinterp, "_run_synthesis", None)   # not called
        got = sp.evaluate_block(h, points)
        assert chunks == [3000]
        assert np.abs(got - h.coeffs @ sp.eval_basis_block(6, points)).max() \
            <= SYNTHESIS_TOL * np.abs(h.coeffs).sum()


# max |G - dense| / max |dense| for the run Gram against the dense Gram
# (dense_gram): measured at most 7.1e-15 over the rules of TestRunGram at
# n = 0, 1, 12, 25 (gauss at n = 25) and 3.1e-15 on equal_area(10^6) at
# n = 15, which Tier-1 does not run
GRAM_TOL = 2e-14

GRAM_RULES = {name: rule for name, rule in RUN_RULES.items() if name != "single-pair"}


def count_tables(mp, tables):
    """Have quadrature's _legendre_table calls append (degree, heights) to
    `tables`: at (1, 0, z_r) for the run sums and the run Gram, at (rho_r,
    0, z_r) for the run operator."""
    table = quadrature._legendre_table

    def counted(L, z, x=None):
        tables.append((L, len(z)))
        return table(L, z, x)

    mp.setattr(quadrature, "_legendre_table", counted)


class TestRunGram:
    @pytest.mark.parametrize("n", [0, 1, 12, 25])
    @pytest.mark.parametrize("rule", GRAM_RULES.values(), ids=GRAM_RULES.keys())
    def test_matches_the_walk(self, rule, n):
        rule = rule()
        starts = _paying_runs(rule.points)
        G = _gram(rule, n)[0]
        with quadrature._one_blas_thread():   # the BLAS as _gram runs it
            run_gram = _run_gram(n, rule.points, rule.weights, starts)
        # the run Gram, and the upper triangle alone
        assert np.array_equal(G, run_gram)
        assert np.array_equal(G, np.triu(G))
        assert rel_gap(G, dense_gram(rule, n)[0]) <= GRAM_TOL

    def test_blocks_of_a_few_runs_add_up(self, monkeypatch):
        # tables of 4 run heights each: the run sums and the run Gram add
        # one product per table, so they agree with the unsplit ones to
        # rounding, not bit for bit
        rule, n = equal_area_rule(2704), 12
        starts = _paying_runs(rule.points)
        v = rule.weights * sp.by_name("f3")(rule.points)
        whole = (_run_gram(n, rule.points, rule.weights, starts),
                 _run_sums(n, rule.points, starts, v))
        tables = []
        with monkeypatch.context() as mp:
            mp.setattr(quadrature, "_chunk_points", lambda n: 4)
            count_tables(mp, tables)
            chunked = (_run_gram(n, rule.points, rule.weights, starts),
                       _run_sums(n, rule.points, starts, v))
        assert starts.size > 10 * 4 and starts.size % 4
        # every height in one table of each pass, the last table short
        assert Counter(tables) == {(n, 4): 2 * (starts.size // 4), (n, starts.size % 4): 2}
        assert rel_gap(chunked[0], whole[0]) <= GRAM_TOL
        assert rel_gap(chunked[1], whole[1]) <= RUN_SUM_TOL
        assert np.array_equal(chunked[0], np.triu(chunked[0]))

    def test_sweep_takes_one_run_gram(self, monkeypatch):
        # run_sweep's pass over an equal-area rule: one run Gram, at its top
        # degree, whose leading block is each cell's Gram
        calls = Counter()
        run_gram = quadrature._run_gram

        def counted(*args):
            calls[args[0]] += 1
            return run_gram(*args)

        config = sp.SweepConfig(experiment="t", function="f3", points="equal_area",
                                n_list=(4, 10), m_list=(2704,), seed=1)
        with monkeypatch.context() as mp:
            mp.setattr(quadrature, "_run_gram", counted)
            rows = sp.run_sweep(config)
        assert calls == {10: 1}
        rule = equal_area_rule(2704)
        for row in rows:
            assert abs(row.eta - sp.mz_constant(rule, row.n).eta) <= 1e-14


def moment_residuals(integrals):
    """exactness_degree's residuals from the rule's moments up to degree L,
    (L+1)^2 sums over every node (the basis walk's, or node_sum's)."""
    L = math.isqrt(integrals.size) - 1
    errors = np.abs(integrals)
    errors[0] = abs(integrals[0] - math.sqrt(SPHERE_AREA))
    return [float(np.max(errors[ell * ell:(ell + 1) ** 2])) for ell in range(L + 1)]


class TestExactnessFromMoments:
    @pytest.mark.parametrize("rule, L, heads", [
        pytest.param(lambda: equal_area_rule(10 ** 4), 24, 89, id="equal_area"),
        pytest.param(lambda: sp.product_gauss_rule(26), 53, 26, id="gauss"),
    ])
    def test_ring_rules_walk_only_the_ring_heads(self, monkeypatch, rule, L, heads):
        rule, tables = rule(), []
        with monkeypatch.context() as mp:
            count_tables(mp, tables)
            mp.setattr(harmonics, "eval_basis_block", None)   # no basis at the nodes
            residuals = sp.exactness_degree(rule, L).residuals
        assert tables == [(L, heads)]
        want = moment_residuals(dense_gram(rule, L, rule.weights, gram=False)[1])
        assert np.abs(np.subtract(residuals, want)).max() <= 1e-13

    @pytest.mark.parametrize("rule, L", [
        pytest.param(lambda: sp.equal_weight_rule(sp.random_uniform(5000, 8), "random"), 12,
                     id="random"),
        pytest.param(lambda: sp.bundled_tdesign_rule(20), 21, id="t-design"),
    ])
    def test_rules_of_rings_of_one_give_the_node_sum_bit_for_bit(self, rule, L):
        # their moments are node_sum's Fourier sums, near the basis walk's
        rule = rule()
        residuals = sp.exactness_degree(rule, L).residuals
        assert residuals == moment_residuals(node_sum(L, rule.points, rule.weights))
        want = moment_residuals(dense_gram(rule, L, rule.weights, gram=False)[1])
        assert np.abs(np.subtract(residuals, want)).max() <= 1e-13


class TestRingReport:
    @pytest.mark.parametrize("rule, n", [
        pytest.param(lambda: equal_area_rule(2704), 25, id="equal_area"),
        pytest.param(lambda: sp.product_gauss_rule(26), 25, id="gauss"),
        pytest.param(lambda: rotated(equal_area_rule(2704), about_z(0.3)), 25, id="about-z"),
        pytest.param(lambda: nudged_azimuth(equal_area_rule(2704)), 25, id="nudged"),
        pytest.param(lambda: unequal_weight(equal_area_rule(2704)), 25, id="unequal-weight"),
    ])
    def test_matches_the_walk(self, rule, n):
        rule = rule()
        got, want = _audit(rule, n)[0], sp.mz_report(dense_gram(rule, n)[0])
        assert got.dim == want.dim == (n + 1) ** 2
        for field in ("eta", "lambda_min", "lambda_max"):
            assert abs(getattr(got, field) - getattr(want, field)) <= ETA_TOL

    def test_exact_gauss_rule_has_eta_zero(self):
        assert _audit(sp.product_gauss_rule(31), 30)[0].eta <= ETA_TOL

    @pytest.mark.parametrize("rule, n", [
        pytest.param(lambda: sp.equal_weight_rule(sp.random_uniform(2704, 3), "random"), 25,
                     id="random"),
        pytest.param(lambda: sp.bundled_tdesign_rule(20), 25, id="t-design"),
        pytest.param(lambda: rotated(equal_area_rule(2704), about_x(0.3)), 25, id="about-x"),
        pytest.param(lambda: equal_area_rule(1600), 19, id="dim-400"),
        pytest.param(lambda: sp.product_gauss_rule(26), -30, id="negative-n"),
        # 700 runs of 4 pay, but are more than dim 676: the run Gram
        pytest.param(lambda: random_runs([4] * 700, 7), 25, id="more-runs-than-dim"),
    ])
    def test_leaves_the_rule_to_the_walk(self, monkeypatch, rule, n):
        # the rule's Gram gives the report, as mz_constant's does; the run
        # operator is never built
        rule = rule()
        monkeypatch.setattr(quadrature, "_run_operator", None)   # not called
        if n < 0:
            with pytest.raises(ValueError, match="degree n must be >= 0"):
                _audit(rule, n)
        else:
            assert _audit(rule, n)[0] == sp.mz_constant(rule, n)   # field by field

    def test_weights_that_overflow_the_gram_are_left_to_the_walk(self):
        # finite weights, but the pole's overflows G (and the run sums): the
        # Gram is refused, without a numpy RuntimeWarning
        rule = equal_area_rule(2704)
        weights = rule.weights.copy()
        weights[0] = 1.7e308
        rule = QuadratureRule(rule.points, weights, "loaded")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Gram is not finite"):
                _audit(rule, 25)
            with pytest.raises(ValueError, match="Gram is not finite"):
                sp.audited_fit(rule, sp.by_name("f3"), 25)

    def test_rotation_about_x_keeps_eta(self):
        rule = equal_area_rule(2704)
        assert abs(sp.mz_constant(rotated(rule, about_x(0.3)), 25).eta
                   - _audit(rule, 25)[0].eta) <= ETA_TOL

    def test_audited_fit_scans_the_runs_once(self, monkeypatch):
        # the run operator and the fit's sums both read the one scan of _audit
        rule, scans, rings = equal_area_rule(4 * 676), [], quadrature._rings

        def counted(points):
            scans.append(len(points))
            return rings(points)

        monkeypatch.setattr(quadrature, "_rings", counted)
        sp.audited_fit(rule, sp.by_name("f3"), 25)
        assert scans == [rule.m]

    @pytest.mark.parametrize("rule, n", [
        pytest.param(lambda: equal_area_rule(4 * 676), 25, id="equal_area-25"),
        pytest.param(lambda: equal_area_rule(4 * 961), 30, id="equal_area-30"),
        pytest.param(lambda: sp.product_gauss_rule(31), 30, id="gauss-30"),
    ])
    def test_run_operator_holds_less_than_one_gram(self, rule, n):
        # the run operator's table ((n+1)^2 R values for R <= dim runs), its
        # azimuth measure and the Lanczos vectors: at its peak, the audit
        # holds less than the dim^2 Gram it does without
        rule = rule()
        _audit(rule, n)   # first-call costs outside the measurement
        tracemalloc.start()
        try:
            _audit(rule, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (n + 1) ** 4


def audited_fit_and_calls(monkeypatch, rule, f, n):
    """audited_fit(rule, f, n) (or the ValueError it raised) and the counts of
    its run Grams, grid twins, Lanczos operator products and dense
    eigensolves."""
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
        mp.setattr(quadrature, "_run_gram", counted(quadrature._run_gram, "run_grams"))
        mp.setattr(quadrature, "_twin_gram", counted(quadrature._twin_gram, "twins"))
        mp.setattr(quadrature, "_dense_report", counted(quadrature._dense_report, "dense"))
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
        assert calls["run_grams"] == calls["twins"] == 0
        assert 0 < calls["products"] < 676 // 4   # within the budget
        assert np.array_equal(h.coeffs, sp.fit(rule, f, 25).coeffs)   # bit for bit
        assert abs(h.eta_used - sp.mz_constant(rule, 25).eta) <= ETA_TOL

    def test_aliased_gauss_rule_spends_the_budget_then_takes_the_run_gram(self, monkeypatch):
        # 50 azimuths alias orders k and 50 - k for k >= 20: lambda_min = 0 at
        # n = 30, in a cluster at rounding level that the run operator's
        # Lanczos does not resolve within its budget (961 // 4 = 240
        # products); Lanczos on the run Gram's triangle (mz_report) does, in
        # 218 products, with no dense eigensolve
        rule = sp.product_gauss_rule(25)
        result, calls = audited_fit_and_calls(monkeypatch, rule, sp.by_name("f3"), 30)
        assert isinstance(result, ValueError) and "rank deficient" in str(result)
        assert calls["products"] == 240 + 218 and calls["dense"] == 0
        assert calls["run_grams"] == 1 and calls["twins"] == 0
        assert _audit(rule, 30)[0] == sp.mz_constant(rule, 30)   # field by field

    @pytest.mark.parametrize("rule, n", [
        pytest.param(lambda: sp.equal_weight_rule(sp.random_uniform(16 * 676, 4), "random"),
                     25, id="random"),
    ])
    def test_other_rules_take_the_grid_twin(self, monkeypatch, rule, n):
        # a rule whose runs do not pay: G from its grid twin's run Gram,
        # and the coefficients of fit
        rule, f = rule(), sp.by_name("f3")
        h, calls = audited_fit_and_calls(monkeypatch, rule, f, n)
        assert calls["twins"] == calls["run_grams"] == 1
        assert h.eta_used == sp.mz_constant(rule, n).eta
        assert abs(h.eta_used - sp.mz_report(dense_gram(rule, n)[0]).eta) <= ETA_TOL
        assert np.array_equal(h.coeffs, sp.fit(rule, f, n).coeffs)

    def test_ring_rule_at_dim_400_takes_one_run_gram(self, monkeypatch):
        rule, f = equal_area_rule(1600), sp.by_name("f3")
        h, calls = audited_fit_and_calls(monkeypatch, rule, f, 19)
        assert calls["run_grams"] == 1 and calls["twins"] == 0
        assert calls["products"] == 0   # dim 400: the dense eigensolver
        assert h.eta_used == sp.mz_constant(rule, 19).eta
        assert abs(h.eta_used - sp.mz_report(dense_gram(rule, 19)[0]).eta) <= ETA_TOL
        assert np.array_equal(h.coeffs, sp.fit(rule, f, 19).coeffs)

    def test_ring_rule_at_dim_441_takes_the_run_operator(self, monkeypatch):
        rule, f = equal_area_rule(1764), sp.by_name("f3")
        h, calls = audited_fit_and_calls(monkeypatch, rule, f, 20)
        assert calls["run_grams"] == calls["twins"] == 0
        assert 0 < calls["products"] < 441 // 4
        assert abs(h.eta_used - sp.mz_report(dense_gram(rule, 20)[0]).eta) <= ETA_TOL
        assert np.array_equal(h.coeffs, sp.fit(rule, f, 20).coeffs)


def test_sphyper_check_compares_the_two_paths(capsys):
    from sphyper.cli import main
    assert main(["check", "--filter", "gauss-exactness"]) == 0
    out = capsys.readouterr().out
    assert "PASS gauss-exactness" in out and "|eta run operator - dense|" in out
    assert "|eta run Gram - dense|" in out
    assert "|eta fourier - dense|(random 2704, n=25)=" in out
    assert "|fit run sums - basis product|" in out
    assert "|Legendre table - basis at heights|(L=50)=0.0e+00" in out


class TestFitOverRuns:
    """fit, audited_fit and project_reference on rules with runs: the basis
    is evaluated at the run heights only, and audited_fit's coefficients are
    fit's bit for bit."""

    @pytest.mark.parametrize("rule", [
        pytest.param(lambda: equal_area_rule(2704), id="equal_area"),
        pytest.param(lambda: sp.product_gauss_rule(26), id="gauss"),
    ])
    def test_basis_only_at_the_run_heights(self, monkeypatch, rule):
        rule, f, n = rule(), sp.by_name("f3"), 25
        heights, tables = _rings(rule.points).size, []

        calls = {"fit": lambda: sp.fit(rule, f, n),
                 "audited_fit": lambda: sp.audited_fit(rule, f, n),
                 "project_reference": lambda: sp.project_reference(f, n, rule)}
        want = {"fit": [(n, heights)],
                "audited_fit": [(n, heights), (n, heights)],   # the run operator, then fit
                "project_reference": [(n + 1, heights), (n, heights)]}   # the scan, then fit
        if rule.provenance == "equal_area":
            del calls["project_reference"]   # not exact to n + 1
        for name, call in calls.items():
            tables.clear()
            with monkeypatch.context() as mp:
                count_tables(mp, tables)
                mp.setattr(harmonics, "eval_basis_block", None)   # no basis at the nodes
                call()
            assert tables == want[name], name

    @pytest.mark.parametrize("rule, n", [
        pytest.param(lambda: equal_area_rule(2704), 12, id="equal_area-walk"),
        pytest.param(lambda: equal_area_rule(2704), 25, id="equal_area-moments"),
        pytest.param(lambda: sp.product_gauss_rule(26), 20, id="gauss"),
        pytest.param(lambda: nudged_azimuth(equal_area_rule(2704)), 12, id="nudged"),
        pytest.param(single_pair, 4, id="single-pair"),
        pytest.param(lambda: sp.equal_weight_rule(sp.random_uniform(3000, 9), "random"), 12,
                     id="random"),
        # 8000 nodes: eight Fourier blocks of 1024 nodes, the last short
        pytest.param(lambda: sp.equal_weight_rule(sp.random_uniform(8000, 9), "random"), 22,
                     id="random-floor"),
    ])
    def test_audited_fit_gives_fits_coefficients(self, rule, n):
        rule, f = rule(), sp.by_name("f3")
        assert np.array_equal(sp.audited_fit(rule, f, n).coeffs, sp.fit(rule, f, n).coeffs)

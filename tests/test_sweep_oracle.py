"""`run_sweep` and `write_cells` on random, equal-area and Gauss product
points, end to end, against a dense reference pipeline that shares nothing
with the library's sums: the basis from scipy's `sph_harm_y`, G = (B w)
B^T, `eigvalsh`, c = B (w y) and the L2 error on the same reference rule.
It checks the cells' seeds, degrees and sizes, eta and the error, and the
CSV's formatting, at once.  The deterministic sources also cover the run
path (run Gram, run sums, and the synthesis over the reference rule's
rings), one rule per size and each cell's leading block of its Gram."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import sph_harm_y

import sphyper as sp
from sphyper.experiments import write_cells

# |eta - dense eta| and |l2_error - dense l2_error| / max(dense, 1e-3):
# measured at most 1.5e-14 and 2.8e-15 over 150 draws
ETA_TOL = 1e-13
L2_RTOL = 1e-13
# on deterministic rules the error can be small (down to rounding, where a
# Gauss product reproduces f1), and its rounding is absolute, about eps |f|:
# |l2_error - dense l2_error| measured at most 2.7e-15 over every cell with
# n <= 8 and m <= 2000 (equal_area at every 13th m, every Gauss order), the
# same gaps as before the synthesis over runs.  Relative to max(dense,
# 1e-3) that is up to 2.5e-13 (f1 on equal_area, error 4e-3), so those rows
# are held to an absolute L2_FLOOR; random rows keep the relative bound alone
L2_FLOOR = 1e-14


def dense_basis(n, points):
    """A real orthonormal basis from scipy's complex Y_l^m, one row per
    harmonic; its order need not be the library's, as no number the sweep
    reports depends on the basis."""
    theta = np.arctan2(np.hypot(points[:, 0], points[:, 1]), points[:, 2])
    phi = np.arctan2(points[:, 1], points[:, 0])
    rows = []
    for ell in range(n + 1):
        for k in range(ell + 1):
            y = sph_harm_y(ell, k, theta, phi)
            rows += [y.real] if k == 0 else [math.sqrt(2) * y.real, math.sqrt(2) * y.imag]
    return np.array(rows)


def dense_cell(f, n, rule, ref):
    """(eta, l2_error) of the cell by dense linear algebra."""
    B, w = dense_basis(n, rule.points), rule.weights
    lam = np.linalg.eigvalsh((B * w) @ B.T)[[0, -1]]
    eta = max(abs(max(lam[0], 0.0) - 1.0), abs(lam[1] - 1.0))
    c = B @ (w * f(rule.points))
    diff = f(ref.points) - c @ dense_basis(n, ref.points)
    return eta, math.sqrt(float(np.dot(ref.weights, diff * diff)))


@st.composite
def random_configs(draw):
    n_list = draw(st.lists(st.integers(0, 8), min_size=1, max_size=2, unique=True))
    least = (max(n_list) + 1) ** 2   # no rank-deficient cell
    m_list = draw(st.lists(st.integers(least, 2000), min_size=1, max_size=2, unique=True))
    return sp.SweepConfig(experiment="oracle", function=draw(st.sampled_from(["f1", "f2", "f3"])),
                          points="random", n_list=tuple(n_list), m_list=tuple(m_list),
                          seed=draw(st.integers(0, 2 ** 16)),
                          repetitions=draw(st.integers(1, 3)))


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=random_configs())
def test_every_row_matches_the_dense_pipeline(tmp_path_factory, config):
    check_rows(tmp_path_factory, config, lambda m, seed: (
        m, sp.equal_weight_rule(sp.random_uniform(m, seed), "random")))


@st.composite
def deterministic_configs(draw):
    points = draw(st.sampled_from(["equal_area", "gauss_product"]))
    n_list = draw(st.lists(st.integers(0, 8), min_size=1, max_size=3, unique=True))
    least = (max(n_list) + 1) ** 2   # no rank-deficient cell
    if points == "equal_area":
        sizes = st.integers(least, 2000)
    else:   # 2N^2 nodes, N = isqrt(m // 2), at least `least` of them
        sizes = st.integers(2 * math.ceil(math.sqrt(least / 2)) ** 2, 2000)
    m_list = draw(st.lists(sizes, min_size=1, max_size=2, unique=True))
    return sp.SweepConfig(experiment="oracle", function=draw(st.sampled_from(["f1", "f2", "f3"])),
                          points=points, n_list=tuple(n_list), m_list=tuple(m_list),
                          seed=draw(st.integers(0, 2 ** 16)))


def deterministic_rule(points, m):
    """(nodes, rule) of a deterministic cell of size m, built here."""
    if points == "equal_area":
        return m, sp.equal_weight_rule(sp.equal_area(m), "equal_area")
    rule = sp.product_gauss_rule(math.isqrt(m // 2))
    return rule.m, rule


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=deterministic_configs())
def test_every_deterministic_row_matches_the_dense_pipeline(tmp_path_factory, config):
    check_rows(tmp_path_factory, config, lambda m, seed: deterministic_rule(config.points, m),
               L2_FLOOR)


def check_rows(tmp_path_factory, config, rule_of, l2_floor=0.0):
    """Every row of the config's cell CSV against the dense pipeline;
    rule_of(m, seed) gives (the row's m, the cell's rule); l2_floor is an
    absolute bound on the error's gap beside the relative one."""
    path = tmp_path_factory.mktemp("sweep") / "cells.csv"
    write_cells(path, sp.run_sweep(config))
    header, *lines = path.read_text().splitlines()
    assert header == "experiment,n,m,seed,eta,l2_error"
    reps = config.effective_repetitions()
    cells = [(n, m, rep) for n in config.n_list for m in config.m_list
             for rep in range(reps)]   # the rows' order
    assert len(lines) == len(cells)
    f = sp.by_name(config.function)
    for line, (n, m, rep) in zip(lines, cells):
        experiment, *fields = line.split(",")
        seed = sp.cell_seed(config.seed, n, m, rep)
        nodes, rule = rule_of(m, seed)
        assert (experiment, int(fields[0]), int(fields[1]), int(fields[2])) == \
            (config.experiment, n, nodes, seed)
        eta, l2 = dense_cell(f, n, rule, sp.reference_rule_for(n))
        assert abs(float(fields[3]) - eta) <= ETA_TOL
        assert abs(float(fields[4]) - l2) <= max(L2_RTOL * max(l2, 1e-3), l2_floor)

"""The invariant suite behind `sphyper check`.

Each check returns (ok, detail): whether the invariant holds, and one line
of the numbers it was judged on.  CHECKS lists them in run order.
"""

import filecmp
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import uniform_norm_refined
from .harmonics import SPHERE_AREA, _legendre_table, eval_basis_block
from .hyperinterp import evaluate_block, evaluate_kernel, fit
from .pointsets import (
    bundled_tdesign_rule,
    bundled_tdesigns,
    equal_area,
    equal_weight_rule,
    product_gauss_rule,
    random_uniform,
)
from .quadrature import (_audit, _blas_thread_calls, _one_blas_thread, _order_rows, _paying_runs,
                         discrete_gram, exactness_degree, mz_constant, mz_report)
from .testfuncs import by_name, wendland_delta, wendland_phi
from . import experiments


def check_addition_theorem():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((20, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y = rng.standard_normal((20, 3))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    bx = eval_basis_block(10, x)
    by = eval_basis_block(10, y)
    worst = 0.0
    for ell in range(11):
        lo, hi = ell * ell, (ell + 1) ** 2
        lhs = (bx[lo:hi] * by[lo:hi]).sum(axis=0)
        rhs = (2 * ell + 1) / SPHERE_AREA * np.polynomial.legendre.legval(
            (x * y).sum(axis=1), [0.0] * ell + [1.0])
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst < 1e-12, f"max deviation {worst:.3e}"


# |eta of the run Gram - eta of the dense product B diag(w) B^T|: measured
# 2.4e-15 on this check's equal_area(2704) at n = 25, and at most 6.2e-15 on
# equal_area(4 (n+1)^2) and 1.6e-14 on product_gauss_rule(n+1), n = 25..46
_RUN_GRAM_ETA_TOL = 5e-14


def check_gauss_exactness():
    eta = mz_constant(product_gauss_rule(8), 7).eta
    degree = exactness_degree(product_gauss_rule(4), max_scan=8).degree
    # a rule with runs takes its Gram from them, audited_fit above dim 625
    # takes eta from its run operator, and fit sums over the runs; a random
    # rule takes its Gram from its grid twin, through its Fourier sums: each
    # against the dense products B diag(w) B^T and B (w f) of the basis B at
    # every node, on one BLAS thread (the same digits at any thread count);
    # the Legendre table at the run heights is the basis there, bit for bit
    rule = equal_weight_rule(equal_area(4 * 676), "equal_area")
    random = equal_weight_rule(random_uniform(4 * 676, 3), "random")
    starts = _paying_runs(rule.points)
    f = by_name("f3")
    B, B_random = eval_basis_block(25, rule.points), eval_basis_block(25, random.points)
    with _one_blas_thread():
        dense = mz_report((B * rule.weights) @ B.T).eta
        dense_random = mz_report((B_random * random.weights) @ B_random.T).eta
        fit_gap = float(np.abs(fit(rule, f, 25).coeffs - B @ (rule.weights * f(rule.points))).max())
    del B, B_random
    run_gap = abs(mz_constant(rule, 25).eta - dense)
    gap = abs(_audit(rule, 25)[0].eta - dense)
    fourier_gap = abs(mz_constant(random, 25).eta - dense_random)
    table_gap = math.inf
    if starts is not None:
        heights = np.zeros((starts.size, 3))
        heights[:, 0], heights[:, 2] = 1.0, rule.points[starts, 2]
        basis = np.vstack([eval_basis_block(50, heights), np.zeros(starts.size)])
        table_gap = float(np.abs(_legendre_table(50, heights[:, 2])
                                 - basis[_order_rows(50)[0]]).max())
    ok = (eta < 1e-10 and degree == 7 and starts is not None
          and run_gap <= _RUN_GRAM_ETA_TOL and gap <= 1e-13 and fourier_gap <= 1e-13
          and fit_gap <= 1e-13 and table_gap == 0.0)
    return ok, (f"eta(order 8, n=7)={eta:.3e}, exactness(order 4)={degree}, "
                f"|eta run Gram - dense|(equal-area 2704, n=25)={run_gap:.1e}, "
                f"|eta run operator - dense|={gap:.1e}, "
                f"|eta fourier - dense|(random 2704, n=25)={fourier_gap:.1e}, "
                f"|fit run sums - basis product|={fit_gap:.1e}, "
                f"|Legendre table - basis at heights|(L=50)={table_gap:.1e}")


def check_design_exactness():
    details = []
    ok = True
    for t in sorted(bundled_tdesigns()):
        rule = bundled_tdesign_rule(t)
        degree = exactness_degree(rule, max_scan=t + 1).degree
        ok = ok and degree >= t
        details.append(f"t={t}:{degree}")
    return ok, "verified degrees " + " ".join(details)


def lemma31_rules():
    """The three (name, rule) pairs of the Lemma 3.1 check."""
    return (
        ("random-20000", equal_weight_rule(random_uniform(20000, 123), "random")),
        ("equal-area-5000", equal_weight_rule(equal_area(5000), "equal_area")),
        ("design-t20", bundled_tdesign_rule(20)),
    )


# random polynomials per lemma31_slack call
_LEMMA31_SAMPLES = 100
_LEMMA31_SEED = 99


@dataclass(frozen=True)
class Lemma31Slack:
    """Lemma 3.1 on random polynomials chi: eta, the worst signed slack
    (positive = a bound broken), the coefficients alpha of the chi (one
    column each) and the norms |U_n chi| = |G alpha|."""

    eta: float
    worst: float
    alpha: np.ndarray
    fit_norm: np.ndarray


def lemma31_slack(rule, n):
    """Worst signed slack of the three discrete-vs-continuous norm bounds.

    For _LEMMA31_SAMPLES random degree-n polynomials chi with coefficients
    alpha (so the true norm is |alpha|), U_n chi has coefficients G alpha.
    The slack is the largest violation of
      (a) (1-eta)|chi|^2 <= <U_n chi, chi> <= (1+eta)|chi|^2,
      (b) (1-eta)|chi|  <= |U_n chi|    <= (1+eta)|chi|,
      (c) |U_n chi - chi|^2 <= (eta^2 + 4 eta)|chi|^2.
    """
    gram = discrete_gram(rule, n)
    eta = mz_report(gram).eta
    rng = np.random.default_rng(_LEMMA31_SEED)
    alpha = rng.standard_normal((gram.shape[0], _LEMMA31_SAMPLES))
    g_alpha = gram @ alpha
    norm2 = (alpha * alpha).sum(axis=0)
    inner = (alpha * g_alpha).sum(axis=0)
    u_norm = np.sqrt((g_alpha * g_alpha).sum(axis=0))
    diff2 = ((g_alpha - alpha) ** 2).sum(axis=0)
    worst = max(
        float(((1 - eta) * norm2 - inner).max()),
        float((inner - (1 + eta) * norm2).max()),
        float(((1 - eta) * np.sqrt(norm2) - u_norm).max()),
        float((u_norm - (1 + eta) * np.sqrt(norm2)).max()),
        float((diff2 - (eta * eta + 4 * eta) * norm2).max()),
    )
    return Lemma31Slack(eta=eta, worst=worst, alpha=alpha, fit_norm=u_norm)


def check_lemma31():
    worst_all = -math.inf
    details = []
    for name, rule in lemma31_rules():
        result = lemma31_slack(rule, 10)
        worst_all = max(worst_all, result.worst)
        details.append(f"{name}: eta={result.eta:.3g} slack={result.worst:.2e}")
    return worst_all <= 1e-8, "; ".join(details)


def check_stability():
    ok = True
    details = []
    for fname in ("f1", "f3"):
        f = by_name(fname)
        rule = equal_weight_rule(equal_area(2000), "equal_area")
        eta = mz_constant(rule, 8).eta
        h = fit(rule, f, 8)
        lhs = float(np.linalg.norm(h.coeffs))
        bound = math.sqrt(1 + eta) * math.sqrt(rule.weight_sum) \
            * uniform_norm_refined(f) * (1 + 1e-6)
        ok = ok and lhs <= bound
        details.append(f"{fname}: |U_n f|={lhs:.4g} <= {bound:.4g}")
    return ok, "; ".join(details)


def check_reproducibility():
    with tempfile.TemporaryDirectory() as tmp:
        cfg = experiments.SweepConfig(experiment="repro", function="f1",
                                      points="random", n_list=(3,),
                                      m_list=(200,), repetitions=3, seed=7)
        paths = []
        for tag in ("a", "b"):
            rows = experiments.run_sweep(cfg)
            cell = str(Path(tmp) / f"cells_{tag}.csv")
            agg = str(Path(tmp) / f"agg_{tag}.csv")
            experiments.write_cells(cell, rows)
            experiments.write_aggregates(agg, rows)
            paths.append((cell, agg))
        same = (filecmp.cmp(paths[0][0], paths[1][0], shallow=False)
                and filecmp.cmp(paths[0][1], paths[1][1], shallow=False))
    # the process's own counts: every library sum runs on one thread of each
    threads = ", ".join(f"{library} {get()}" for library, (get, _) in _blas_thread_calls().items())
    return same, (f"two runs byte-identical (cells + aggregates); BLAS threads "
                  f"{threads or 'not readable'}, one in every library sum")


def check_equal_area_geometry():
    for m in (10, 100, 1000):
        pts = equal_area(m)
        if len(pts) != m:
            return False, f"m={m}: wrong count {len(pts)}"
        norms = np.linalg.norm(pts, axis=1)
        if np.abs(norms - 1).max() > 1e-12:
            return False, f"m={m}: points off the sphere"
        dots = np.clip(pts @ pts.T, -1, 1)
        np.fill_diagonal(dots, -1)
        min_dist = float(np.arccos(dots.max()))
        if min_dist <= 0:
            return False, f"m={m}: duplicate points"
        rule = equal_weight_rule(pts, "equal_area")
        if abs(rule.weight_sum - SPHERE_AREA) > 1e-12:
            return False, f"m={m}: weights do not sum to 4*pi"
    return True, "counts, unit norms, separation, weight sums for m in {10,100,1000}"


def check_wendland_values():
    checks = [
        (wendland_delta(0), 3 * math.sqrt(math.pi) / 2),
        (wendland_delta(1), 3 * math.sqrt(math.pi) / 2),
        (wendland_delta(2), 27 * math.sqrt(math.pi) / 16),
        (wendland_phi(1, wendland_delta(1) / 2), 3.0 / 16.0),
    ]
    worst = max(abs(a - b) for a, b in checks)
    zero_ok = all(wendland_phi(s, 10.0) == 0.0 for s in range(5))
    one_ok = all(abs(wendland_phi(s, 0.0) - 1.0) < 1e-15 for s in range(5))
    ok = worst < 1e-13 and zero_ok and one_ok
    return ok, f"max deviation {worst:.2e}; phi(0)=1 and phi(10)=0 for all sigma"


def check_kernel_consistency():
    rng = np.random.default_rng(11)
    rule = equal_weight_rule(random_uniform(400, 42), "random")
    f = by_name("f3")
    h = fit(rule, f, 5)
    x = rng.standard_normal((10, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    direct = evaluate_block(h, x)
    kernel = evaluate_kernel(rule, f, 5, x)
    worst = float(np.abs(direct - kernel).max())
    return worst < 1e-9, f"basis vs kernel evaluation, max deviation {worst:.2e}"


CHECKS = (
    ("addition-theorem", check_addition_theorem),
    ("gauss-exactness", check_gauss_exactness),
    ("design-exactness", check_design_exactness),
    ("lemma31", check_lemma31),
    ("stability", check_stability),
    ("kernel-consistency", check_kernel_consistency),
    ("reproducibility", check_reproducibility),
    ("equal-area-geometry", check_equal_area_geometry),
    ("wendland-values", check_wendland_values),
)

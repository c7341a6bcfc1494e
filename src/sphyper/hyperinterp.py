"""Hyperinterpolants: discrete analogues of the L2 projection onto P_n.

The classical operator L_n, the unfettered variant U_n (rule only needs
the MZ property) and the QMC variant Q_n are the same formula

    coeffs[l,k] = sum_j w_j f(x_j) Y_{l,k}(x_j)

differing only in the quadrature rule supplied, so one implementation
serves all three.  Fitting never gates on eta; use `audited_fit` to
refuse rules with eta >= 1.  It takes eta and the coefficients from one
call, `quadrature._audit`, which picks the route: the run operator on rules
whose latitude runs pay above dim 625, else the Gram from the fit's own pass
(the run Gram, or on random points the grid twin of the moments that the
same pass over their Fourier sums gives beside the coefficients).
"""

from dataclasses import dataclass

import numpy as np

from .harmonics import _BLOCK_VALUES, _check_degree, _real_array, basis_chunks, kernel_dot
from .pointsets import unit_points
from .quadrature import (RANK_TOL, _audit, _gram, _one_blas_thread, exactness_degree, node_sum,
                         sample_values)

__all__ = ["Hyperinterpolant", "fit", "audited_fit", "evaluate_block",
           "evaluate_kernel", "project_reference"]


@dataclass(frozen=True)
class Hyperinterpolant:
    """Degree-n polynomial with coefficients in the canonical basis order."""

    n: int
    coeffs: np.ndarray
    eta_used: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _real_array(self.coeffs, "coefficients"))
        object.__setattr__(self, "n", _check_degree(self.n))
        if self.coeffs.shape != ((self.n + 1) ** 2,):
            raise ValueError(
                f"degree {self.n} needs {(self.n + 1) ** 2} coefficients, "
                f"got shape {self.coeffs.shape}")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients are not finite: NaN, inf or an overflow")

    def __call__(self, points):
        return evaluate_block(self, points)


def fit(rule, f, n):
    """Hyperinterpolant of degree n: coeffs = B diag(w) y, summed per latitude
    run where the rule's nodes come in runs, else from the nodes' Fourier
    sums (`node_sum`)."""
    n = _check_degree(n)
    with np.errstate(over="ignore", invalid="ignore"):   # refused as not finite
        coeffs = node_sum(n, rule.points, _weighted_samples(rule, f))
    return Hyperinterpolant(n=n, coeffs=coeffs)


def _gram_fit(rule, f, n):
    """(G, h): the upper triangle of the rule's discrete Gram and fit(rule,
    f, n), from one call (`_gram`): the run Gram and the run sums on a rule
    whose runs pay, else one pass over the nodes' Fourier sums, which gives
    the coefficients and the moments of the grid twin's Gram."""
    n = _check_degree(n)
    with np.errstate(over="ignore", invalid="ignore"):   # refused as not finite
        G, coeffs = _gram(rule, n, _weighted_samples(rule, f))
    return G, Hyperinterpolant(n=n, coeffs=coeffs)


def _weighted_samples(rule, f):
    """w * f at the rule's nodes, f checked; a product that overflows is
    refused as a sum that is not finite."""
    return rule.weights * sample_values(f, rule.points)


def audited_fit(rule, f, n):
    """fit() with an MZ audit; refuses rules with eta >= 1.

    With a rank-deficient discrete Gram (lambda_min <= RANK_TOL), or with
    eta >= 1 by lambda_max >= 2, the stability and error theory is vacuous,
    so we fail loudly, naming the condition, instead of degrading silently.
    The report and the coefficients come from one call (`quadrature._audit`):
    eta from the run operator on rules whose runs pay above dim 625, else
    from the rule's Gram (`quadrature._gram`: the run Gram, or the grid twin
    of a rule whose runs do not pay, such as random points).  Either way the
    coefficients are fit()'s, bit for bit.
    """
    n = _check_degree(n)
    with np.errstate(over="ignore", invalid="ignore"):   # refused as not finite
        report, coeffs = _audit(rule, n, _weighted_samples(rule, f))
    h = Hyperinterpolant(n=n, coeffs=coeffs, eta_used=report.eta)
    if report.rank_deficient:
        raise ValueError(
            f"rule unusable at degree {n}: eta = {report.eta:.6g}, lambda_min = "
            f"{report.lambda_min:.3e} <= RANK_TOL = {RANK_TOL:g} (rank deficient)")
    if report.eta >= 1.0:   # lambda_min > 0, so lambda_max >= 2
        raise ValueError(
            f"rule unusable at degree {n}: eta = {report.eta:.6g} >= 1, "
            f"lambda_max = {report.lambda_max:.3e}")
    return h


@_one_blas_thread()
def evaluate_block(h, points):
    """Evaluate via the coefficient sum at many unit vectors; returns shape (m,)."""
    pts = unit_points(points)
    out = np.empty(pts.shape[0])
    for rows, B in basis_chunks(h.n, pts):
        out[rows] = h.coeffs @ B
        del B
    return out


def evaluate_kernel(rule, f, n, points):
    """Kernel-path evaluation sum_j w_j f(x_j) G_n(x, x_j) from raw samples.

    Same polynomial as evaluate_block(fit(rule, f, n), .) by rearranging the
    double sum through the addition theorem; kept as an independent code
    path for cross-checks.
    """
    pts = unit_points(points)
    out = np.empty(pts.shape[0])
    width = max(1, _BLOCK_VALUES // rule.m)     # targets per block of inner products
    n = _check_degree(n)
    with np.errstate(over="ignore", invalid="ignore"):   # refused as not finite
        wy = _weighted_samples(rule, f)
        for lo in range(0, pts.shape[0], width):
            hi = min(lo + width, pts.shape[0])
            u = pts[lo:hi] @ rule.points.T          # inner products, (width, m)
            out[lo:hi] = kernel_dot(n, u) @ wy
    if not np.all(np.isfinite(out)):
        raise ValueError("kernel sums are not finite: the weighted samples overflow")
    return out


def project_reference(f, n, ref):
    """Reference L2 projection P_n f computed with a high-exactness rule.

    Stands in for the exact Fourier coefficients: fit(ref, f, n), once the
    reference rule's measured exactness degree (`exactness_degree`, from its
    moments) is at least n + 1; a weaker rule is refused.
    """
    n = _check_degree(n)
    degree = exactness_degree(ref, n + 1).degree
    if degree < n + 1:
        raise ValueError(f"reference rule exactness {degree} < n + 1 = {n + 1}; "
                         "refusing the degenerate projection")
    return fit(ref, f, n)

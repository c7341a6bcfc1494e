"""Hyperinterpolants: discrete analogues of the L2 projection onto P_n.

The classical operator L_n, the unfettered variant U_n (rule only needs
the MZ property) and the QMC variant Q_n are the same formula

    coeffs[l,k] = sum_j w_j f(x_j) Y_{l,k}(x_j)

differing only in the quadrature rule supplied, so one implementation
serves all three.  Fitting never gates on eta; use `audited_fit` to
refuse rank-deficient rules; it takes the Gram from the fit's own pass.
"""

from dataclasses import dataclass, replace

import numpy as np

from .harmonics import _BLOCK_VALUES, basis_chunks, kernel_dot, node_sum
from .pointsets import unit_points
from .quadrature import _exactness_report, _gram_walk, mz_report, sample_values

__all__ = ["Hyperinterpolant", "fit", "audited_fit", "evaluate_block",
           "evaluate_kernel", "project_reference"]


@dataclass(frozen=True)
class Hyperinterpolant:
    """Degree-n polynomial with coefficients in the canonical basis order."""

    n: int
    coeffs: np.ndarray
    eta_used: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if self.coeffs.shape != ((self.n + 1) ** 2,):
            raise ValueError(
                f"degree {self.n} needs {(self.n + 1) ** 2} coefficients, "
                f"got shape {self.coeffs.shape}")

    def __call__(self, points):
        return evaluate_block(self, points)


def fit(rule, f, n):
    """Hyperinterpolant of degree n: coeffs = B diag(w) y, chunked over points."""
    return _gram_fit(rule, f, n, gram=False)[1]


def _gram_fit(rule, f, n, gram=True):
    """(G, h): the rule's discrete Gram and fit(rule, f, n) from one chunk
    walk over the nodes; G is None without `gram`."""
    y = _samples(rule, f, n)
    with np.errstate(over="ignore", invalid="ignore"):
        wy = rule.weights * y
        G, coeffs = (_gram_walk(rule, n, wy) if gram
                     else (None, node_sum(n, rule.points, wy)))
    return G, _finite_fit(n, coeffs)


def _samples(rule, f, n):
    """f at the rule's nodes, checked, for a fit of degree n."""
    if n < 0:
        raise ValueError(f"degree n must be >= 0, got {n}")
    return sample_values(f, rule.points)


def _finite_fit(n, coeffs):
    """The degree-n hyperinterpolant with these coefficients, if finite."""
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients are not finite: the weighted samples overflow")
    return Hyperinterpolant(n=n, coeffs=coeffs)


def audited_fit(rule, f, n):
    """fit() with an MZ audit of the same chunk walk; refuses rules with eta >= 1.

    With a rank-deficient discrete Gram (eta >= 1) the stability and error
    theory is vacuous, so we fail loudly instead of degrading silently.
    """
    G, h = _gram_fit(rule, f, n)
    report = mz_report(G)
    if report.eta >= 1.0 or report.rank_deficient:
        raise ValueError(
            f"rule unusable at degree {n}: eta = {report.eta:.6g}, "
            f"lambda_min = {report.lambda_min:.3e} (rank deficient)")
    return replace(h, eta_used=report.eta)


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
    y = sample_values(f, rule.points)
    pts = unit_points(points)
    wy = rule.weights * y
    out = np.empty(pts.shape[0])
    width = max(1, _BLOCK_VALUES // rule.m)     # targets per block of inner products
    for lo in range(0, pts.shape[0], width):
        hi = min(lo + width, pts.shape[0])
        u = pts[lo:hi] @ rule.points.T          # inner products, (width, m)
        out[lo:hi] = kernel_dot(n, u) @ wy
    return out


def project_reference(f, n, ref):
    """Reference L2 projection P_n f computed with a high-exactness rule.

    Stands in for the exact Fourier coefficients; refuses a reference rule
    whose measured exactness degree is below n + 1.  One walk at n + 1 sums
    the weights (the exactness integrals) and the weighted samples, whose
    leading (n+1)^2 sums are fit(ref, f, n)'s coefficients.
    """
    y = _samples(ref, f, n)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = node_sum(n + 1, ref.points, np.column_stack([ref.weights, ref.weights * y]))
    report = _exactness_report(sums[:, 0])
    if report.degree < n + 1:
        raise ValueError(
            f"reference rule exactness {report.degree} < n + 1 = {n + 1}; "
            "refusing the degenerate projection")
    return _finite_fit(n, np.ascontiguousarray(sums[:(n + 1) ** 2, 1]))

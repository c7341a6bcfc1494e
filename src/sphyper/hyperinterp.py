"""Hyperinterpolants: discrete analogues of the L2 projection onto P_n.

The classical operator L_n, the unfettered variant U_n (rule only needs
the MZ property) and the QMC variant Q_n are the same formula

    coeffs[l,k] = sum_j w_j f(x_j) Y_{l,k}(x_j)

differing only in the quadrature rule supplied, so one implementation
serves all three.  Fitting never gates on eta; use `audited_fit` to
refuse rank-deficient rules up front.
"""

from dataclasses import dataclass, replace

import numpy as np

from .harmonics import basis_chunks, kernel_dot
from .quadrature import exactness_degree, mz_constant, sample_values

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
    if n < 0:
        raise ValueError(f"degree n must be >= 0, got {n}")
    y = sample_values(f, rule.points)
    wy = rule.weights * y
    coeffs = np.zeros((n + 1) ** 2)
    for rows, B in basis_chunks(n, rule.points):
        coeffs += B @ wy[rows]
        del B
    return Hyperinterpolant(n=n, coeffs=coeffs)


def audited_fit(rule, f, n):
    """fit() preceded by an MZ audit; refuses rules with eta >= 1.

    With a rank-deficient discrete Gram (eta >= 1) the stability and error
    theory is vacuous, so we fail loudly instead of degrading silently.
    """
    report = mz_constant(rule, n)
    if report.eta >= 1.0 or report.rank_deficient:
        raise ValueError(
            f"rule unusable at degree {n}: eta = {report.eta:.6g}, "
            f"lambda_min = {report.lambda_min:.3e} (rank deficient)")
    return replace(fit(rule, f, n), eta_used=report.eta)


def evaluate_block(h, points):
    """Evaluate via the coefficient sum at many points; returns shape (m,)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
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
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    wy = rule.weights * y
    out = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], 1000):
        hi = min(lo + 1000, pts.shape[0])
        u = pts[lo:hi] @ rule.points.T          # inner products, (chunk, m)
        out[lo:hi] = kernel_dot(n, u) @ wy
    return out


def project_reference(f, n, ref):
    """Reference L2 projection P_n f computed with a high-exactness rule.

    Stands in for the exact Fourier coefficients; refuses a reference rule
    whose measured exactness degree is below n + 1.
    """
    report = exactness_degree(ref, max_scan=n + 1)
    if report.degree < n + 1:
        raise ValueError(
            f"reference rule exactness {report.degree} < n + 1 = {n + 1}; "
            "refusing the degenerate projection")
    return fit(ref, f, n)

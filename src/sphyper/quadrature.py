"""Measured exactness degree, and the MZ constant eta.

The Marcinkiewicz-Zygmund constant of a rule at degree n is the spectral
norm of G - I where G is the discrete Gram matrix of the orthonormal
basis under the rule: G = B diag(w) B^T with B the basis-value matrix.
For any coefficient vector a, sum_j w_j chi(x_j)^2 = a^T G a while
integral(chi^2) = a^T a, so the MZ ratio extremizes exactly at the
extreme eigenvalues of G.
"""

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import SPHERE_AREA, basis_chunks

__all__ = ["MZReport", "ExactnessReport", "sample_values", "mz_constant",
           "exactness_degree", "RANK_TOL", "discrete_gram", "mz_report"]

# lambda_min at or below this marks the Gram as rank deficient (eta >= 1,
# hyperinterpolation theory vacuous)
RANK_TOL = 1e-10

# Lanczos restarts per end of the spectrum before mz_constant falls back to
# the dense eigensolver; healthy Grams converge well within it, while on a
# rank-deficient one (lambda_min = 0) which="SA" can run for minutes
_EIGSH_MAXITER = 50


@dataclass(frozen=True)
class MZReport:
    n: int
    eta: float
    lambda_min: float
    lambda_max: float
    dim: int
    rank_deficient: bool


@dataclass(frozen=True)
class ExactnessReport:
    degree: int
    residuals: list
    tol: float


def sample_values(f, points):
    """Values of `f` at `points`, checked: one finite value per point.

    `f` is a callable on (m, 3) arrays or an array of values already
    sampled at `points`.
    """
    y = f(points) if callable(f) else np.asarray(f, dtype=float)
    if y.shape != (len(points),):
        raise ValueError(f"expected {len(points)} sample values, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("sample values are not finite (NaN or inf)")
    return y


def discrete_gram(rule, n):
    """Discrete Gram matrix G = B diag(w) B^T, accumulated in point chunks."""
    dim = (n + 1) ** 2
    G = np.zeros((dim, dim))
    sqrt_w = np.sqrt(rule.weights)   # weights are positive
    for rows, B in basis_chunks(n, rule.points):
        # scaled in place, B @ B.T is a symmetric rank-k update: half the
        # flops of a general product and no second block
        B *= sqrt_w[rows]
        G += B @ B.T
        del B
    return G


def mz_constant(rule, n):
    """MZ constant eta = ||G - I||_2 for the rule at degree n, as an MZReport."""
    if n < 0:
        raise ValueError(f"degree n must be >= 0, got {n}")
    return mz_report(discrete_gram(rule, n))


def mz_report(G):
    """MZReport of a discrete Gram matrix of dim (n+1)^2: eta = ||G - I||_2."""
    dim = G.shape[0]
    if not np.all(np.isfinite(G)):
        raise ValueError(f"the {dim}x{dim} Gram is not finite: the rule's "
                         "weights overflow it")
    lam_min = None
    if dim > 2000:
        from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh
        # a fixed start vector makes the Lanczos result repeat bit for bit
        v0 = np.random.default_rng(0).standard_normal(dim)
        opts = dict(k=1, v0=v0, maxiter=_EIGSH_MAXITER, return_eigenvectors=False)
        try:
            lam_max = float(eigsh(G, which="LA", **opts)[0])
            lam_min = float(eigsh(G, which="SA", **opts)[0])
        except ArpackNoConvergence:
            pass  # lam_min stays None: the dense solver below takes over
        except ArpackError as exc:
            raise RuntimeError(f"Lanczos eigensolver failed on dim {dim}: {exc}")
    if lam_min is None:
        try:
            lam = np.linalg.eigvalsh(G)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"eigensolver failed on the {dim}x{dim} Gram: {exc}")
        lam_min, lam_max = float(lam[0]), float(lam[-1])
    # Gram is PSD; scrub the tiny negative round-off an eigensolver may emit
    lam_min = max(lam_min, 0.0)
    eta = max(abs(lam_min - 1.0), abs(lam_max - 1.0))
    return MZReport(n=math.isqrt(dim) - 1, eta=eta, lambda_min=lam_min,
                    lambda_max=lam_max, dim=dim, rank_deficient=lam_min <= RANK_TOL)


def exactness_degree(rule, max_scan, tol=1e-8):
    """Largest consecutive degree the rule integrates exactly.

    Degree l passes iff max_k |sum_j w_j Y_{l,k}(x_j) - sqrt(4*pi)*delta_{l0}|
    <= tol (the l=0 target is integral(Y_{0,1}) = sqrt(4*pi)).  Scans l =
    0..max_scan and stops at the first failure; a rule that cannot even
    integrate constants gets degree -1.
    """
    if max_scan < 0:
        raise ValueError(f"max_scan must be >= 0, got {max_scan}")
    # one basis evaluation up to max_scan covers every degree of the scan
    integrals = np.zeros((max_scan + 1) ** 2)
    for rows, B in basis_chunks(max_scan, rule.points):
        integrals += B @ rule.weights[rows]
        del B
    integrals[0] -= math.sqrt(SPHERE_AREA)

    residuals = []
    degree = -1
    for ell in range(max_scan + 1):
        block = integrals[ell * ell:(ell + 1) * (ell + 1)]
        r = float(np.max(np.abs(block)))
        residuals.append(r)
        if r <= tol and degree == ell - 1:
            degree = ell
    return ExactnessReport(degree=degree, residuals=residuals, tol=tol)

"""Norms, error measures, Sobolev diagnostics, and log-log rate fitting."""

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import lb_eigenvalue
from .pointsets import equal_area, product_gauss_rule
from .quadrature import sample_values

__all__ = ["RateFit", "l2_error", "sobolev_norm", "uniform_norm_refined",
           "fit_rate", "reference_rule_for"]

# grid refinement of uniform_norm_refined
_REFINE_GRID = 4000
_REFINE_FACTOR = 4
_REFINE_RTOL = 1e-3
_REFINE_ROUNDS = 3


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def reference_rule_for(n, margin=20):
    """Product-Gauss reference rule of exactness >= 2n + margin.

    The margin absorbs the non-polynomial tail when the integrand is a
    smooth test function rather than a polynomial; halve/double to probe
    whether the tail is resolved.
    """
    target = 2 * n + margin
    N = (target + 2) // 2        # 2N - 1 >= target
    return product_gauss_rule(N)


def l2_error(g, h, ref):
    """sqrt(sum_q W_q (g - h)^2) over the reference rule's nodes.

    Exact when g - h is a polynomial within the rule's exactness budget,
    a controlled approximation otherwise.
    """
    diff = sample_values(g, ref.points) - sample_values(h, ref.points)
    return math.sqrt(float(np.dot(ref.weights, diff * diff)))


def sobolev_norm(coeffs, s):
    """H^s norm sqrt(sum |f_{l,k}|^2 / a_l) with a_l = (1+l(l+1))^{-s}.

    `coeffs` is a coefficient vector in the canonical layout; its length
    determines the maximum degree.  s = 0 recovers the L2 norm.
    """
    c = np.asarray(coeffs, dtype=float)
    n = int(round(math.sqrt(c.size))) - 1
    if (n + 1) ** 2 != c.size:
        raise ValueError(f"coefficient vector length {c.size} is not a square")
    if s < 0:
        raise ValueError(f"smoothness s must be >= 0, got {s}")
    total = 0.0
    for ell in range(n + 1):
        block = c[ell * ell:(ell + 1) * (ell + 1)]
        total += (1.0 + lb_eigenvalue(2, ell)) ** s * float(np.dot(block, block))
    return math.sqrt(total)


def _grid_max(f, grid_size):
    """max |f| over an equal-area grid; a lower bound on the sup norm."""
    return float(np.max(np.abs(sample_values(f, equal_area(grid_size)))))


def uniform_norm_refined(f):
    """Sup-norm estimate of f: max |f| over refined equal-area grids.

    Starts from a grid of _REFINE_GRID points and refines it by
    _REFINE_FACTOR, at most _REFINE_ROUNDS times, until the estimate
    changes by less than _REFINE_RTOL relatively; returns the largest
    estimate seen (a lower bound on the true sup norm).
    """
    grid_size = _REFINE_GRID
    est = _grid_max(f, grid_size)
    for _ in range(_REFINE_ROUNDS):
        grid_size *= _REFINE_FACTOR
        new = _grid_max(f, grid_size)
        done = abs(new - est) <= _REFINE_RTOL * max(abs(est), 1e-300)
        est = max(est, new)
        if done:
            break
    return est


def fit_rate(samples):
    """Least-squares slope of log(error) against log(size).

    `samples` is a sequence of (size, error) pairs, all positive; the
    slope is the empirical convergence exponent.
    """
    pts = [(float(s), float(e)) for s, e in samples]
    if len(pts) < 2:
        raise ValueError("need at least 2 samples to fit a rate")
    if any(s <= 0 or e <= 0 for s, e in pts):
        raise ValueError("sizes and errors must all be positive")
    x = np.log([s for s, _ in pts])
    y = np.log([e for _, e in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=min(max(r2, 0.0), 1.0), n_points=len(pts))

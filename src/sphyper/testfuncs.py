"""The four families of test functions used by the experiments.

f1   (x1+x2+x3)^2                       degree-2 spherical polynomial
f2   |x1+x2+x3| + sin^2(1+|x1+x2+x3|)   continuous, not differentiable
f3   Franke function adapted to the sphere (four exponential terms)
f4_s sum of six normalized Wendland bumps centered at the axis octahedron,
     smoothness class H^{sigma+3/2}, sigma in 0..4

All evaluators are vectorized over (m, 3) arrays of unit vectors.

Note on f3: the second exponential's x2 and x3 arguments are linear,
(9*x2+1)/10 and (9*x3+1)/10, not squared; that is the formula as printed
in the source describing it, kept verbatim.
"""

import math
from fractions import Fraction

import numpy as np

__all__ = ["f1", "f2", "f3", "f4", "wendland_delta",
           "wendland_phi", "by_name", "FUNCTION_IDS"]


def f1(points):
    p = np.atleast_2d(np.asarray(points, dtype=float))
    return (p[:, 0] + p[:, 1] + p[:, 2]) ** 2


def f2(points):
    p = np.atleast_2d(np.asarray(points, dtype=float))
    a = np.abs(p[:, 0] + p[:, 1] + p[:, 2])
    return a + np.sin(1.0 + a) ** 2


def f3(points):
    p = np.atleast_2d(np.asarray(points, dtype=float))
    x1, x2, x3 = p[:, 0], p[:, 1], p[:, 2]
    t1 = 0.75 * np.exp(-((9 * x1 - 2) ** 2) / 4
                       - ((9 * x2 - 2) ** 2) / 4
                       - ((9 * x3 - 2) ** 2) / 4)
    t2 = 0.75 * np.exp(-((9 * x1 + 1) ** 2) / 49
                       - (9 * x2 + 1) / 10
                       - (9 * x3 + 1) / 10)
    t3 = 0.5 * np.exp(-((9 * x1 - 7) ** 2) / 4
                      - ((9 * x2 - 3) ** 2) / 4
                      - ((9 * x3 - 5) ** 2) / 4)
    t4 = 0.2 * np.exp(-((9 * x1 - 4) ** 2)
                      - ((9 * x2 - 7) ** 2)
                      - ((9 * x3 - 5) ** 2))
    return t1 + t2 + t3 - t4


# original Wendland functions phi~_sigma, support [0, 1]
_WENDLAND_TILDE = {
    0: lambda r: (1 - r) ** 2,
    1: lambda r: (1 - r) ** 4 * (4 * r + 1),
    2: lambda r: (1 - r) ** 6 * (35 * r ** 2 + 18 * r + 3) / 3.0,
    3: lambda r: (1 - r) ** 8 * (32 * r ** 3 + 25 * r ** 2 + 8 * r + 1),
    4: lambda r: (1 - r) ** 10
        * (429 * r ** 4 + 450 * r ** 3 + 210 * r ** 2 + 50 * r + 5) / 5.0,
}


def wendland_delta(sigma):
    """Normalization delta_sigma = 3(sigma+1)Gamma(sigma+1/2)/(2 Gamma(sigma+1)).

    Half-integer gamma values are exact: Gamma(sigma+1/2) =
    (2 sigma)! sqrt(pi) / (4^sigma sigma!); only the final sqrt(pi) factor
    is floating point.
    """
    if sigma not in _WENDLAND_TILDE:
        raise ValueError(f"sigma must be one of 0..4, got {sigma}")
    rational = Fraction(3 * (sigma + 1) * math.factorial(2 * sigma),
                        2 * 4 ** sigma * math.factorial(sigma) ** 2)
    return float(rational) * math.sqrt(math.pi)


def wendland_phi(sigma, r):
    """Normalized Wendland function phi_sigma(r) = phi~_sigma(r/delta_sigma)."""
    if sigma not in _WENDLAND_TILDE:
        raise ValueError(f"sigma must be one of 0..4, got {sigma}")
    u = np.asarray(r, dtype=float) / wendland_delta(sigma)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    out = np.zeros_like(u)
    inside = u < 1.0
    out[inside] = _WENDLAND_TILDE[sigma](u[inside])
    return float(out[0]) if scalar else out


# the six centers: +-e1, +-e2, +-e3 (axis octahedron)
_CENTERS = np.vstack([np.eye(3), -np.eye(3)])


def f4(sigma):
    """f4_sigma(x) = sum_i phi_sigma(||z_i - x||_2), i over the six axis points."""
    if sigma not in _WENDLAND_TILDE:
        raise ValueError(f"sigma must be one of 0..4, got {sigma}")

    def _eval(points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        # chordal distances to the six centers: ||z - x||^2 = 2 - 2 z.x
        d2 = np.clip(2.0 - 2.0 * (p @ _CENTERS.T), 0.0, None)
        return wendland_phi(sigma, np.sqrt(d2)).sum(axis=1)

    _eval.__name__ = f"f4_{sigma}"
    return _eval


FUNCTION_IDS = ("f1", "f2", "f3", "f4_0", "f4_1", "f4_2", "f4_3", "f4_4")


def by_name(name):
    """Resolve a function id like 'f1' or 'f4_2' to its evaluator."""
    if name == "f1":
        return f1
    if name == "f2":
        return f2
    if name == "f3":
        return f3
    if name.startswith("f4_"):
        return f4(int(name[3:]))
    raise ValueError(f"unknown test function {name!r}; choose from {FUNCTION_IDS}")

"""Quadrature node sets on S^2 and positive-weight rules built from them.

Four families: seeded uniform random points, centers of a recursive zonal
equal-area partition, point sets loaded from text files (Fekete, Coulomb
energy, spherical t-designs), and the Gauss-Legendre product rule that
serves as the exact reference rule.

All rules are normalized so that the weights sum to ``|S^2| = 4*pi``;
equal-weight rules use ``w_j = 4*pi/m``.
"""

import math
import operator
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .harmonics import SPHERE_AREA, _real_array

__all__ = [
    "QuadratureRule",
    "unit_points",
    "random_uniform",
    "equal_area",
    "load_pointset",
    "equal_weight_rule",
    "product_gauss_rule",
    "source_points",
    "source_rule",
    "bundled_tdesigns",
    "bundled_tdesign_rule",
]

_PROVENANCES = ("random", "equal_area", "gauss_product", "loaded")


def unit_points(points):
    """`points` as an (m, 3) float array of finite unit vectors (norm within
    1e-6 of 1); the one check on rule nodes and on evaluation points."""
    pts = np.atleast_2d(_real_array(points, "points"))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (m, 3), got {pts.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    if not np.all(np.abs(norms - 1.0) <= 1e-6):   # NaN fails the comparison
        raise ValueError("points must be finite unit vectors (norm within 1e-6 of 1)")
    return pts


@dataclass
class QuadratureRule:
    """Positive-weight quadrature rule: nodes x_j on S^2 and weights w_j."""

    points: np.ndarray
    weights: np.ndarray
    provenance: str = "loaded"

    def __post_init__(self):
        self.points = unit_points(self.points)
        self.weights = _real_array(self.weights, "quadrature weights").ravel()
        if self.points.shape[0] != self.weights.shape[0]:
            raise ValueError(
                f"{self.points.shape[0]} points vs {self.weights.shape[0]} weights")
        if self.points.shape[0] < 1:
            raise ValueError("a rule needs at least one node")
        if not np.all((self.weights > 0) & np.isfinite(self.weights)):
            raise ValueError("all quadrature weights must be positive and finite")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.sum(self.weights)):
                raise ValueError("the sum of the quadrature weights overflows")
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")

    @property
    def m(self):
        return self.points.shape[0]

    @property
    def weight_sum(self):
        return float(np.sum(self.weights))


def _size(value, name):
    """`value` as an int >= 1 (`operator.index`), else a ValueError naming it."""
    size = operator.index(value) if hasattr(type(value), "__index__") else 0
    if size < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return size


def random_uniform(m, seed):
    """m i.i.d. uniform points on S^2 from a seeded PCG64 stream.

    Mirrors the usual MATLAB recipe (elevation = asin(2u-1), azimuth =
    2*pi*u') in distribution: z uniform on [-1, 1], azimuth uniform on
    [0, 2*pi), drawn as two consecutive batches from one stream.
    """
    m = _size(m, "m")
    rng = np.random.default_rng(seed)
    points = np.empty((m, 3))
    x, y, z = points.T
    # z = 2 u - 1, phi = 2 pi u', s = sqrt(max(0, 1 - z^2)), then (s cos phi,
    # s sin phi, z), written in place through two buffers of m values
    u = rng.random(m)
    np.multiply(2.0, u, out=z)
    z -= 1.0
    s = np.multiply(z, z)
    np.subtract(1.0, s, out=s)
    np.maximum(0.0, s, out=s)
    np.sqrt(s, out=s)
    rng.random(out=u)
    u *= 2.0 * math.pi
    np.cos(u, out=x)
    x *= s
    np.sin(u, out=y)
    y *= s
    return points


def _cap_colatitude(fraction):
    # colatitude of a spherical cap covering `fraction` of the total area:
    # area = 4*pi*sin^2(theta/2)  =>  theta = 2*asin(sqrt(fraction))
    return 2.0 * math.asin(math.sqrt(fraction))


def _circle_offset(n_top, n_bot):
    # standard zonal offset between consecutive collars: stagger the cells
    # of the lower collar relative to the upper one
    return (1.0 / n_bot - 1.0 / n_top) / 2.0 + \
        math.gcd(n_top, n_bot) / (2.0 * n_top * n_bot)


def equal_area(m):
    """Centers of an m-cell recursive zonal equal-area partition of S^2.

    The partition consists of two polar caps and a stack of collars, each
    collar split into equal-area zones; every cell has area 4*pi/m.  Cell
    centers: the poles for the caps, mid-colatitude with equispaced
    azimuths (offset collar to collar) for the zones.  Deterministic in m.
    """
    m = _size(m, "m")
    if m == 1:
        return np.array([[0.0, 0.0, 1.0]])
    if m == 2:
        return np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])

    theta_cap = _cap_colatitude(1.0 / m)
    delta_ideal = math.sqrt(SPHERE_AREA / m)
    n_collars = max(1, round((math.pi - 2.0 * theta_cap) / delta_ideal))
    delta_fit = (math.pi - 2.0 * theta_cap) / n_collars

    # ideal (real) cell count of each collar, then a cumulative rounding
    # that preserves the total exactly
    ideal = np.empty(n_collars)
    for i in range(n_collars):
        top = theta_cap + i * delta_fit
        bot = theta_cap + (i + 1) * delta_fit
        ideal[i] = (math.sin(bot / 2.0) ** 2 - math.sin(top / 2.0) ** 2) * m
    cum = np.round(np.cumsum(ideal)).astype(int)
    counts = np.diff(np.concatenate([[0], cum]))
    counts[-1] += (m - 2) - counts.sum()
    assert counts.sum() == m - 2 and np.all(counts >= 1)

    # collar boundary colatitudes adjusted so that every cell area is
    # exactly 4*pi/m given the integer counts
    bounds = [theta_cap]
    running = 1
    for c in counts:
        running += int(c)
        bounds.append(_cap_colatitude(running / m))

    pts = [np.array([0.0, 0.0, 1.0])]
    offset = 0.0
    for i, c in enumerate(counts):
        colat = 0.5 * (bounds[i] + bounds[i + 1])
        if i > 0:
            offset += _circle_offset(int(counts[i - 1]), int(c))
            offset -= math.floor(offset)
        az = 2.0 * math.pi * ((np.arange(c) + 0.5) / c + offset)
        z = math.cos(colat)
        s = math.sin(colat)
        pts.append(np.stack([s * np.cos(az), s * np.sin(az),
                             np.full(int(c), z)], axis=-1))
    pts.append(np.array([0.0, 0.0, -1.0]))
    return np.vstack([p if p.ndim == 2 else p[None, :] for p in pts])


def load_pointset(path):
    """Load a point set from a whitespace-separated text file.

    Lines starting with '#' are ignored.  3 columns give points only; 4
    columns give points plus positive weights.  Rows must be unit vectors
    within 1e-6; they are renormalized to exact unit length.

    Returns ``(points, weights)`` with ``weights = None`` for 3-column files.
    """
    points = []
    weights = []
    ncols = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) not in (3, 4):
                raise ValueError(
                    f"{path}: line {lineno}: expected 3 or 4 fields, got {len(fields)}")
            if ncols is None:
                ncols = len(fields)
            elif len(fields) != ncols:
                raise ValueError(
                    f"{path}: line {lineno}: inconsistent column count "
                    f"({len(fields)} vs {ncols})")
            try:
                vals = [float(f) for f in fields]
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-numeric field in {line!r}") from None
            r = math.hypot(*vals[:3])   # cannot overflow on a finite row
            if not abs(r - 1.0) <= 1e-6:
                raise ValueError(
                    f"{path}: line {lineno}: point norm {r:.9g} deviates from 1 "
                    "by more than 1e-6")
            # renormalize by numpy's norm, not r: the two can differ in the last
            # bit, and the bundled designs' nodes are the numpy-normalized ones
            v = np.array(vals[:3])
            points.append(v / np.linalg.norm(v))
            if ncols == 4:
                if not 0 < vals[3] < math.inf:
                    raise ValueError(
                        f"{path}: line {lineno}: weight {vals[3]!r} is not positive "
                        "and finite")
                weights.append(vals[3])
    if not points:
        raise ValueError(f"{path}: no data rows")
    pts = np.array(points)
    return pts, (np.array(weights) if ncols == 4 else None)


def equal_weight_rule(points, provenance="random"):
    """Equal-weight rule w_j = 4*pi/m on the given points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[0]
    if m < 1:
        raise ValueError("need at least one point")
    w = np.full(m, SPHERE_AREA / m)
    return QuadratureRule(pts, w, provenance)


def product_gauss_rule(N):
    """Gauss-Legendre x trapezoid product rule, exact to degree 2N-1.

    N Gauss-Legendre nodes in cos(theta) tensored with 2N equispaced
    azimuths; weights (2*pi/(2N)) * (GL weight).  Sum of weights is 4*pi.
    """
    N = _size(N, "polar order N")
    t, wt = _gauss_legendre(N)
    naz = 2 * N
    phi = 2.0 * math.pi * np.arange(naz) / naz
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    x = np.outer(s, np.cos(phi)).ravel()
    y = np.outer(s, np.sin(phi)).ravel()
    z = np.repeat(t, naz)
    w = np.repeat(wt, naz) * (2.0 * math.pi / naz)
    return QuadratureRule(np.stack([x, y, z], axis=-1), w, "gauss_product")


def _gauss_legendre(N):
    """N-point Gauss-Legendre nodes and weights on [-1, 1]: the nodes from
    numpy's `leggauss`, the weights 2 / ((1 - x^2) P_N'(x)^2) from the
    three-term recurrence.  numpy's own weights lose digits as N grows: eta
    of product_gauss_rule(49) at n = 48, which is exact, is 5.8e-13 with
    them and 6.4e-14 with these."""
    x = np.polynomial.legendre.leggauss(N)[0]
    p_prev, p = np.ones_like(x), x   # P_0, P_1
    for k in range(1, N):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    dp = N * (x * p - p_prev) / (x * x - 1.0)   # P_N' from P_N and P_{N-1}
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def source_points(source, m=None, seed=0, order=None, path=None):
    """Nodes of a named point source, and its weights if it defines any.

    Sources are the rule provenances: "random" (m points drawn from
    `seed`), "equal_area" (m points), "gauss_product" (the product rule of
    polar order `order`, with its weights) and "loaded" (the file at
    `path`, with its weight column if it has one).  Returns ``(points,
    weights)`` with ``weights = None`` where the source has no weights.
    """
    if source in ("random", "equal_area"):
        if m is None:
            raise ValueError(f"point source {source!r} needs m")
        points = random_uniform(m, seed) if source == "random" else equal_area(m)
        return points, None
    if source == "gauss_product":
        if order is None:
            raise ValueError("point source 'gauss_product' needs an order")
        rule = product_gauss_rule(order)
        return rule.points, rule.weights
    if source == "loaded":
        if path is None:
            raise ValueError("point source 'loaded' needs a path")
        return load_pointset(path)
    raise ValueError(f"unknown point source {source!r}; choose from {_PROVENANCES}")


def source_rule(source, m=None, seed=0, order=None, path=None):
    """Rule on the nodes of `source_points`, equal-weight where the source
    defines no weights; its provenance is the source name."""
    points, weights = source_points(source, m, seed, order, path)
    if weights is None:
        return equal_weight_rule(points, source)
    return QuadratureRule(points, weights, source)


def bundled_tdesigns():
    """Strengths t of the spherical designs shipped with the package."""
    out = {}
    root = resources.files("sphyper").joinpath("data/tdesigns")
    for entry in root.iterdir():
        name = entry.name
        if name.startswith("design_t") and name.endswith(".txt"):
            t = int(name[len("design_t"):].split("_")[0])
            out[t] = entry
    return dict(sorted(out.items()))

def bundled_tdesign_rule(t):
    """Equal-weight rule on the bundled spherical t-design of strength t."""
    designs = bundled_tdesigns()
    if t not in designs:
        raise ValueError(
            f"no bundled design of strength {t}; available: {sorted(designs)}")
    with resources.as_file(designs[t]) as p:
        return source_rule("loaded", path=p)

"""Real spherical harmonics on the unit sphere S^2.

Conventions used throughout the package:

* Surface measure is the unnormalized one, ``|S^2| = 4*pi``, so the
  orthonormality relation reads ``integral(Y_{l,k} * Y_{l',k'} d omega) =
  delta``.  In particular ``Y_{0,1} = 1/sqrt(4*pi)``.
* The real basis is built from fully normalized associated Legendre
  functions with azimuthal factors ``sqrt(2)*cos(k*phi)`` and
  ``sqrt(2)*sin(k*phi)``.  Any L2-orthonormal real basis would do; every
  quantity the package reports is basis independent.
* Canonical ordering is degree-major, then k ascending: the flat position
  of (l, k) is ``l**2 + (k - 1)``.  Within degree l the order index k maps
  to azimuthal orders as k=1 -> m=0, k=2m -> cos(m*phi), k=2m+1 ->
  sin(m*phi).
"""

import math

import numpy as np

SPHERE_AREA = 4.0 * math.pi

# values per block of every chunked pass (8 MB of doubles).  The allocator
# reuses a block this size without fresh page faults, and it is still in
# cache when the product that reads it runs; a 41 MB block (20000 points at
# n = 15) is written at about half the rate.  Narrow blocks leave
# eval_basis_block's per-(l, m) Python loop dominant, so a basis block never
# has fewer than _MIN_CHUNK points.  Where the points are a few hundred at
# most (the run heights), _legendre_table runs the recurrence over every
# order at once and pays that loop's L steps only.
_BLOCK_VALUES = 2 ** 20
_MIN_CHUNK = 2048

__all__ = [
    "SPHERE_AREA",
    "lb_eigenvalue",
    "flat_index",
    "basis_indices",
    "eval_basis_block",
    "basis_chunks",
    "kernel_dot",
]


def _check_degree(n, name="degree n"):
    """n as a Python int, refusing a degree that is not an integer >= 0 (a
    bool is not one).  A numpy integer comes back as an int, so no size
    computed from it wraps or overflows."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")
    return int(n)


def _real_array(a, what):
    """a as a float64 array, refusing values that are not real numbers
    (complex, object or string arrays), which a float conversion would cut
    to their real part or fail on further in."""
    a = np.asarray(a)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be real numbers, got dtype {a.dtype}")
    return a.astype(float, copy=False)


def lb_eigenvalue(d, ell):
    """Laplace-Beltrami eigenvalue lambda_ell = ell*(ell + d - 1) on S^d."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError(f"sphere dimension d must be an integer >= 2, got {d!r}")
    ell = _check_degree(ell, "degree ell")
    return ell * (ell + d - 1)


def flat_index(ell, k):
    """Flat position of (ell, k) in the canonical degree-major ordering."""
    ell = _check_degree(ell, "degree ell")
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 1 <= k <= 2 * ell + 1:
        raise ValueError(f"invalid basis index (ell={ell}, k={k!r})")
    return ell * ell + (int(k) - 1)


def basis_indices(n):
    """All (ell, k) pairs up to degree n in canonical order."""
    return [(ell, k) for ell in range(_check_degree(n) + 1) for k in range(1, 2 * ell + 2)]


def eval_basis_block(n, points):
    """Evaluate all Y_{l,k}, l <= n, at many points.

    Parameters
    ----------
    n : int
        Maximum degree.
    points : array_like, shape (m, 3)
        Unit vectors.

    Returns
    -------
    ndarray, shape ((n+1)**2, m)
        Row ``l**2 + (k-1)`` holds Y_{l,k} at all points.
    """
    n = _check_degree(n)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected points of shape (m, 3), got {pts.shape}")
    x, y, z = pts.T.copy()                     # contiguous coordinate rows
    B = np.empty(((n + 1) ** 2, z.size))
    a, b, pmm = (c.tolist() for c in _recurrence(n))
    re, im = np.full_like(z, math.sqrt(2.0)), np.zeros_like(z)  # sqrt(2) (x + iy)^m
    for m in range(n + 1):
        if m > 0:
            re, im = re * x - im * y, re * y + im * x
        p_prev, p = 0.0, pmm[m]
        for l in range(m, n + 1):
            if l > m:
                p, p_prev = a[l][m] * (z * p - b[l][m] * p_prev), p
            if m == 0:
                B[l * l] = p
            else:
                np.multiply(p, re, out=B[l * l + 2 * m - 1])
                np.multiply(p, im, out=B[l * l + 2 * m])
    return B


def _recurrence(L):
    """(a, b, pmm): the coefficients of the Legendre recurrence to degree L,
    a[l, m] and b[l, m] for m < l and pmm[m], float64, which
    eval_basis_block and _legendre_table both run.

    q_{l,m}: associated Legendre normalized so that the basis is orthonormal
    over S^2.  p_{l,m} = q_{l,m} / sin^m(theta) is a polynomial in z, and
    sin^m(theta) (cos, sin)(m*phi) = (Re, Im)(x + iy)^m, so Y_{l,1} = p_{l,0}
    and Y_{l,2m}, Y_{l,2m+1} = sqrt(2) p_{l,m} (Re, Im)(x + iy)^m.  From
    p_{m-1,m} = 0 (p_{l,m}(1) grows like 10^(0.21 n), finite to n ~ 1400):
      p_{m,m} = prod_{j<=m} sqrt((2j+1)/(2j)) / sqrt(4*pi)
      p_{l,m} = a_{l,m} (z p_{l-1,m} - b_{l,m} p_{l-2,m}),
        a_{l,m} = sqrt((4l^2-1)/(l^2-m^2)),
        b_{l,m} = sqrt(((l-1)^2 - m^2)/(4(l-1)^2 - 1)).
    Entries with m >= l are 0 (b_{1,0} is -0.0: sqrt(0 / -1)).
    """
    l, m = np.ogrid[:L + 1, :L + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(m < l, np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m)), 0.0)
        b = np.where(m < l, np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0)), 0.0)
    j = np.arange(1, L + 1)
    pmm = np.multiply.accumulate(np.concatenate([[1.0 / math.sqrt(SPHERE_AREA)],
                                                 np.sqrt((2 * j + 1) / (2.0 * j))]))
    return a, b, pmm


def _legendre_table(L, z, x=None):
    """T[M, l, r] = eval_basis_block(L, (x_r, 0, z_r)) in its cos rows, laid
    out by order: p_{l,0}(z_r) at M = 0 and sqrt(2) p_{l,M}(z_r) x_r^M above
    (x = 1 where not given), 0 where l < M; an (L+1, L+1, R) array.

    It runs eval_basis_block's recurrence (`_recurrence`) with the same
    arithmetic, so the same bits, but as L steps over (l, R) arrays that
    cover every order M < l at once, in place of one numpy call per (l, M).
    That wins at a few hundred points or fewer, where eval_basis_block pays
    for its Python loop; on wide node blocks eval_basis_block's rows are
    faster (280 against 145-172 Mvalue/s at n = 6).
    """
    L = _check_degree(L)
    z = np.asarray(z, dtype=float)
    a, b, pmm = _recurrence(L)
    T = np.zeros((L + 1, L + 1, z.size))
    T[0, 0] = pmm[0]
    for l in range(1, L + 1):
        p = T[:l, l]   # p_{l,M} for every M < l, written in place
        np.multiply(z, T[:l, l - 1], out=p)
        p -= b[l, :l, None] * (T[:l, l - 2] if l > 1 else 0.0)
        p *= a[l, :l, None]
        T[l, l] = pmm[l]
    # the azimuth factor sqrt(2) (x + iy)^M at y = 0, as eval_basis_block's
    # running power gives it
    if x is None:
        T[1:] *= math.sqrt(2.0)
    else:
        x = np.asarray(x, dtype=float)
        re = np.multiply.accumulate(np.vstack([np.full_like(x, math.sqrt(2.0)),
                                               np.broadcast_to(x, (L, x.size))]))
        T[1:] *= re[1:, None, :]
    return T


def basis_chunks(n, points):
    """Walk `points` in chunks: an iterator of (rows, eval_basis_block(n,
    points[rows])), with n checked when it is called, before any block.

    Each chunk has _chunk_points(n) points, the last at most that many;
    `rows` is the slice of `points` that the block's columns cover.  The
    synthesis at points without runs that pay (`hyperinterp.evaluate_block`
    at random points) and the tests' dense oracle go through this one walk;
    no sum over a rule's nodes, and no synthesis at points in runs that pay,
    evaluates the basis there.  A consumer that deletes its block at the end
    of each step keeps one block alive instead of two while the next one is
    built.
    """
    width = _chunk_points(n)
    chunks = [slice(lo, min(lo + width, len(points))) for lo in range(0, len(points), width)]
    return ((rows, eval_basis_block(n, points[rows])) for rows in chunks)


def _chunk_points(n):
    """Points per basis block at degree n: _BLOCK_VALUES values, or
    _MIN_CHUNK.  Every walk sizes its blocks here, so this is where n is
    checked."""
    n = _check_degree(n)
    return max(_MIN_CHUNK, _BLOCK_VALUES // (n + 1) ** 2)


def kernel_dot(n, u):
    """Reproducing kernel of P_n(S^2) as a function of the inner product.

    G_n(x, y) = sum_{l<=n} (2l+1)/(4*pi) * P_l(x . y) (addition theorem);
    `u` is x . y, clipped to [-1, 1], and may be an array.  Evaluated as
    numpy's Legendre series, never as the double sum over the basis: the
    Clenshaw recurrence of numpy's `legval`, step for step and so to the
    same bits, but updated in place, so it holds four arrays the size of u
    (u clipped, the two recurrence terms and one product).
    """
    n = _check_degree(n)
    u = np.clip(np.asarray(u, dtype=float), -1.0, 1.0)
    c = (2 * np.arange(n + 1) + 1) / SPHERE_AREA
    if n == 0:
        return np.full_like(u, c[0])[()]
    c0, c1 = np.full_like(u, c[-2]), np.full_like(u, c[-1])
    tmp = np.empty_like(u)
    for nd in range(n, 1, -1):
        # c0, c1 = c[nd - 2] - c1 ((nd - 1) / nd), c0 + c1 u ((2 nd - 1) / nd)
        np.multiply(c1, u, out=tmp)
        tmp *= (2 * nd - 1) / nd
        tmp += c0
        np.multiply(c1, (nd - 1) / nd, out=c0)
        np.subtract(c[nd - 2], c0, out=c0)
        c1, tmp = tmp, c1
    np.multiply(c1, u, out=tmp)
    tmp += c0
    return tmp[()]   # a float for a float u, as legval gives

"""Every sum over a rule's nodes: node sums, moments, exactness degree, the
Gram and eta.

The Marcinkiewicz-Zygmund constant of a rule at degree n is the spectral
norm of G - I where G is the discrete Gram matrix of the orthonormal
basis under the rule: G = B diag(w) B^T with B the basis-value matrix.
For any coefficient vector a, sum_j w_j chi(x_j)^2 = a^T G a while
integral(chi^2) = a^T a, so the MZ ratio extremizes exactly at the
extreme eigenvalues of G.

Every sum of one value per node (the fit's w f, or the weights alone: the
moments, which the exactness scan and the moments path read) is
`node_sum`.  On a rule whose nodes come in runs of equal z, as the rings
of equal_area and product_gauss_rule do, it takes one azimuth sum per
order and run and evaluates the basis only at the run heights
(`_run_sums`); other rules walk the basis at every node.

Two paths compute eta.  The walk (`_gram_walk`, then `mz_report`) builds
G's upper triangle with dsyrk; `mz_constant`, the sweeps, rules without
runs and every Gram of dim <= 625 take it, and it is the oracle.  The
moments path (`_ring_report`) serves `audited_fit` on rules with runs above
dim 625 when their moments cost fewer basis values than one walk: Lanczos
on a matrix-free operator built from the moments to degree 2n.  Its eta
agrees with the walk's to 1e-13 (at most 6.4e-14 measured); where Lanczos
spends its budget, the walk and the dense eigensolver take over.

A basis block meets a vector as numpy's B @ v.  Every sum here runs with
numpy's and scipy's BLAS on one thread each (`_one_blas_thread`), so it
gives the same bits at any BLAS thread count; the walk's worker thread
runs dsyrk on the second core instead.  At the default threads of a
2-vCPU VM, that took the twelve figure configs from 77-82 s to 54-57 s,
but cost a single wide walk its second BLAS thread (mz_constant on 8836
random nodes at n = 46: 1.7 -> 2.8 s).
"""

import contextlib
import ctypes
import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .harmonics import (SPHERE_AREA, _BLOCK_VALUES, _MIN_CHUNK, _check_degree, basis_chunks,
                        eval_basis_block)
from .pointsets import _gauss_legendre

__all__ = ["MZReport", "ExactnessReport", "sample_values", "mz_constant",
           "exactness_degree", "RANK_TOL", "discrete_gram", "mz_report"]

# lambda_min at or below this marks the Gram as rank deficient (eta >= 1,
# hyperinterpolation theory vacuous)
RANK_TOL = 1e-10

# Grams above this dim take their extreme eigenvalues from Lanczos; the
# sweep configs' Grams (dim <= 625) stay on the dense solver
_LANCZOS_DIM = 625

# Gram-vector products Lanczos may spend on both ends of the spectrum before
# mz_report falls back to the dense eigensolver.  Equal-area Grams (m = 4 dim)
# of dim 676-2209 converge in 70-190, random ones with m = 8 dim in 150-220.
# Near lambda_min = 0 (aliased Gauss rules, random rules with m <= 2 dim)
# Lanczos stalls, and the spent budget costs 0.3-0.8x the dense solve that
# follows it at dims 961-2209, about 1x at dim 676 (one BLAS thread).
_LANCZOS_PRODUCTS = 250

# largest integration residual that exactness_degree counts as exact
_EXACTNESS_TOL = 1e-8


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


# callers inside _one_blas_thread, and the BLAS thread counts the first found
_pin_lock = threading.Lock()
_pinned = 0
_found_threads = {}


@contextlib.contextmanager
def _one_blas_thread():
    """Runs its block, or as a decorator its function, with numpy's and
    scipy's BLAS on one thread each, and puts back the counts it found.
    OpenBLAS cuts a dsyrk, dgemv, dsymv or dsyevd differently at each thread
    count, so a sum under the pin is the same bits at any count.  Nested and
    concurrent callers share one pin: the last to leave puts the counts back.
    A BLAS without the thread calls (`_blas_thread_calls`) runs as it is."""
    global _pinned
    with _pin_lock:
        if _pinned == 0:
            for library, (get, set_) in _blas_thread_calls().items():
                _found_threads[library] = get()
                set_(1)
        _pinned += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pinned -= 1
            if _pinned == 0:
                for library, (_, set_) in _blas_thread_calls().items():
                    set_(_found_threads[library])


@functools.cache
def _blas_thread_calls():
    """{"numpy": (get, set), "scipy": (get, set)}: the thread-count calls of
    the OpenBLAS each library bundles, under their LP64 or ILP64 (64_) name.
    They are looked up through the extension module that links that BLAS,
    since dlsym searches a module's dependencies too, so no wheel file name
    is needed.  A library whose BLAS exports neither name is left out."""
    import numpy.linalg._umath_linalg as numpy_lapack
    from scipy.linalg import cython_blas  # imported here: scipy.linalg takes ~0.3 s
    calls = {}
    for library, module in (("numpy", numpy_lapack), ("scipy", cython_blas)):
        handle = ctypes.CDLL(module.__file__)
        for suffix in ("", "64_"):
            get = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(handle, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                calls[library] = get, set_
                break
    return calls


def discrete_gram(rule, n):
    """Discrete Gram matrix G = B diag(w) B^T, accumulated in point chunks:
    the full matrix, its lower triangle mirrored from the walk's upper one."""
    G = _gram_walk(rule, n)[0]
    G += np.triu(G, 1).T
    return G


@_one_blas_thread()
def node_sum(n, points, v):
    """sum_j v_j Y_{l,k}(x_j) for every l <= n, in canonical order, for one
    value v_j per node: fit's coefficients, and the rule's moments (v = w).
    Nodes in runs of equal z (`_rings`) are summed per run (`_run_sums`);
    a rule whose runs are all of one node takes the chunked basis walk."""
    n = _check_degree(n)   # before out is allocated
    starts = _rings(points)
    if starts is not None:
        return _run_sums(n, points, starts, v)
    out = np.zeros((n + 1) ** 2)
    for rows, B in basis_chunks(n, points):
        out += B @ v[rows]
        del B
    return out


def _rings(points):
    """Starts of the runs of the nodes, the maximal stretches of consecutive
    nodes with bit-equal z (the latitude rings of equal_area and
    product_gauss_rule), or None where every run is one node."""
    z = points[:, 2]
    new_run = z[1:] != z[:-1]
    if new_run.all():
        return None
    return np.flatnonzero(np.concatenate([[True], new_run]))


# nodes per chunk of _run_sums' azimuth sums: its two complex arrays hold
# 1/8 of a basis block.  On equal_area(10^6) at n = 15 the sums took 37-44 ms
# at this width and 49-60 ms at four times it (one BLAS thread, 2-vCPU VM)
_RUN_CHUNK = _BLOCK_VALUES // 16


def _run_sums(n, points, starts, v):
    """node_sum through the runs that start at `starts` (`_rings`).

    Y_{l,k} of order M is sqrt(2) p_{l,M}(z) (Re, Im)(x + iy)^M (p_{l,0}
    alone at M = 0), so on a run of height z_r
      sum_j v_j Y_{l,k}(x_j) = sqrt(2) p_{l,M}(z_r) (Re, Im) sum_j v_j (x_j + iy_j)^M,
    whatever the run's azimuths and values.  The nodes enter through one
    azimuth sum per order and run, taken over whole runs in chunks of
    _RUN_CHUNK nodes, and the basis is evaluated only at the run heights
    (1, 0, z_r), where (x + iy)^M = 1.
    """
    m = len(points)
    ends = np.append(starts[1:], m)
    sums = np.empty((n + 1, starts.size), dtype=complex)   # [M, run]
    lo = 0
    while lo < starts.size:
        # the runs lo..hi-1, _RUN_CHUNK nodes at most, or one longer run
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + _RUN_CHUNK, "right")))
        nodes = slice(starts[lo], ends[hi - 1])
        u = np.empty(nodes.stop - nodes.start, dtype=complex)
        u.real, u.imag = points[nodes, 0], points[nodes, 1]
        power = v[nodes].astype(complex)   # v (x + iy)^M
        for M in range(n + 1):
            if M:
                power *= u
            sums[M, lo:hi] = np.add.reduceat(power, starts[lo:hi] - starts[lo])
        del u, power
        lo = hi
    heights = np.zeros((starts.size, 3))
    heights[:, 0], heights[:, 2] = 1.0, points[starts, 2]
    cos_rows, _ = _order_rows(n)
    out = np.zeros((n + 1) ** 2)
    for rows, B in basis_chunks(n, heights):
        for M in range(n + 1):
            # at (1, 0, z_r) the cos(M phi) rows of order M hold sqrt(2)
            # p_{l,M}(z_r) (p_{l,0} at M = 0); the sin(M phi) ones, each one
            # row further, are 0 there and take the same factor
            P = B[cos_rows[M, M:]]
            out[cos_rows[M, M:]] += P @ sums[M, rows].real
            if M:
                out[cos_rows[M, M:] + 1] += P @ sums[M, rows].imag
        del B
    return out


@_one_blas_thread()
def _gram_walk(rule, n, v=None):
    """(G, c) from one chunk walk: the upper triangle of the discrete Gram
    G = B diag(w) B^T, as dsyrk leaves it (the strict lower triangle is
    zero), and, when `v` is given, the node sum c = B v (else c is None).

    In the degree-major basis, G and c at any degree n' <= n are the leading
    (n'+1)^2 block and slice of these, so one walk at the largest degree
    serves every smaller one.

    One worker thread adds block k to G while this thread evaluates block
    k+1, so the walk costs about the larger of the two instead of their sum.
    Block k+1 is handed over only once block k is added, so at most two
    blocks are alive, each at least _MIN_CHUNK // 2 points wide.  On a rule
    with runs (`_rings`), c is node_sum's run sums, taken while the worker
    adds the last block; otherwise each block adds B v to it.  The BLAS
    runs on one thread meanwhile (`_one_blas_thread`), so G and c are the
    same bits at any thread count.
    """
    n = _check_degree(n)   # before anything is allocated
    chunks = basis_chunks(n, rule.points, _MIN_CHUNK // 2)
    starts = None if v is None else _rings(rule.points)
    dim = (n + 1) ** 2
    G = np.zeros((dim, dim))
    c = np.zeros(dim) if v is not None and starts is None else None
    sqrt_w = np.sqrt(rule.weights)   # weights are positive
    added = None   # the worker's future for the block before
    with ThreadPoolExecutor(1) as worker:
        for rows, B in chunks:
            if c is not None:
                c += B @ v[rows]   # from the block before its scaling
            B *= sqrt_w[rows]
            if added is not None:
                added.result()
            added = worker.submit(_syrk, B, G)
            del B
        if starts is not None:
            c = _run_sums(n, rule.points, starts, v)
        added.result()
    return G, c


def _syrk(B, G):
    """G += B B^T on G's upper triangle, for a C-ordered basis block B scaled
    by sqrt(w) and a C-ordered Gram G: one BLAS dsyrk, a symmetric rank-k
    update in place, with no dim x dim product per block.  B and G are the
    Fortran arrays B^T and G^T to BLAS, so nothing is copied; G^T's lower
    triangle is G's upper one.  The call releases the GIL (`_dsyrk`)."""
    dim, k = B.shape
    if not (B.dtype == G.dtype == np.float64 and G.shape == (dim, dim)
            and B.flags.c_contiguous and G.flags.c_contiguous):
        raise ValueError(f"dsyrk takes C-ordered float64 blocks, got {B.dtype} "
                         f"{B.shape} and {G.dtype} {G.shape}")
    one = ctypes.byref(ctypes.c_double(1.0))
    _dsyrk()(b"L", b"T", ctypes.byref(ctypes.c_int(dim)), ctypes.byref(ctypes.c_int(k)),
             one, B.ctypes.data, ctypes.byref(ctypes.c_int(max(k, 1))),
             one, G.ctypes.data, ctypes.byref(ctypes.c_int(dim)))


@functools.cache
def _dsyrk():
    """BLAS dsyrk as a ctypes function, bound once to the routine that
    scipy.linalg.cython_blas exports.  scipy.linalg.blas's f2py wrappers
    hold the GIL while BLAS runs; ctypes releases it for the call, so a
    worker thread's dsyrk overlaps Python work on the calling thread.  It is
    the routine the f2py wrapper calls, with the same arguments, so the bits
    are the same."""
    from scipy.linalg import cython_blas  # imported here: scipy.linalg takes ~0.3 s
    capsule = cython_blas.__pyx_capi__["dsyrk"]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    # dsyrk(uplo, trans, n, k, alpha, a, lda, beta, c, ldc), every argument by reference
    i, d = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
    signature = ctypes.CFUNCTYPE(None, ctypes.c_char_p, ctypes.c_char_p, i, i, d,
                                 ctypes.c_void_p, i, d, ctypes.c_void_p, i)
    return signature(get_pointer(capsule, get_name(capsule)))


def mz_constant(rule, n):
    """MZ constant eta = ||G - I||_2 for the rule at degree n, as an MZReport."""
    return mz_report(_gram_walk(rule, n)[0])


@_one_blas_thread()
def mz_report(G):
    """MZReport of a discrete Gram matrix of dim (n+1)^2: eta = ||G - I||_2.

    G must be a square array (or nested list) of floats with dim (n+1)^2
    for some n >= 0.  Both solvers read its upper triangle only, so G may
    be the full matrix or the walk's triangle.  Above dim _LANCZOS_DIM,
    lambda_max and lambda_min come from Lanczos (`_lanczos_extremes`); if
    it spends its product budget first, or at smaller dims, from the dense
    `eigvalsh`.  The two agree to about 1e-14.
    """
    try:
        G = np.asarray(G, dtype=float)
    except (TypeError, ValueError) as exc:   # ragged, or not numbers
        raise ValueError(f"a Gram is a square array of floats: {exc}") from None
    n = math.isqrt(G.shape[0]) - 1 if G.ndim == 2 and G.shape[0] == G.shape[1] else -1
    if n < 0 or G.shape[0] != (n + 1) ** 2:
        raise ValueError(f"a Gram is square of dim (n+1)^2, n >= 0; got shape {G.shape}")
    dim = G.shape[0]
    if not np.all(np.isfinite(G)):
        raise ValueError(f"the {dim}x{dim} Gram is not finite: the rule's "
                         "weights overflow it")
    if dim > _LANCZOS_DIM:
        try:
            return _report(n, _lanczos_extremes(_triangle_product(G), dim))
        except _OverBudget:
            pass  # the dense solver below takes over
    return _dense_report(G)


def _dense_report(G):
    """MZReport of the finite Gram (full, or its upper triangle) of dim
    (n+1)^2 from the dense eigensolver."""
    dim = G.shape[0]
    try:
        # G.T's lower triangle, which eigvalsh reads, is G's upper one
        lam = np.linalg.eigvalsh(G.T)[[0, -1]]
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed on the {dim}x{dim} Gram: {exc}")
    return _report(math.isqrt(dim) - 1, lam)


def _report(n, lam):
    """MZReport at degree n of a Gram with extreme eigenvalues lam."""
    # Gram is PSD; scrub the tiny negative round-off an eigensolver may emit
    lam_min, lam_max = max(float(lam[0]), 0.0), float(lam[1])
    eta = max(abs(lam_min - 1.0), abs(lam_max - 1.0))
    return MZReport(n=n, eta=eta, lambda_min=lam_min, lambda_max=lam_max,
                    dim=(n + 1) ** 2, rank_deficient=lam_min <= RANK_TOL)


class _OverBudget(Exception):
    """Lanczos asked for more than _LANCZOS_PRODUCTS Gram-vector products."""


def _triangle_product(G):
    """x -> G x from G's upper triangle, the triangle dsyrk writes (BLAS dsymv)."""
    from scipy.linalg.blas import dsymv
    # the Fortran view BLAS takes, whose lower triangle is G's upper one;
    # only a leading block of a larger Gram, which is not contiguous, is
    # copied, once
    Gt = np.ascontiguousarray(G).T
    return lambda x: dsymv(1.0, Gt, x, lower=1)


def _lanczos_extremes(product, dim):
    """(lambda_min, lambda_max) of a symmetric dim x dim operator by Lanczos
    (ARPACK's `eigsh`, largest then smallest end), from its products x ->
    G x; raises _OverBudget past _LANCZOS_PRODUCTS products."""
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh
    products = 0

    def counted(x):
        nonlocal products
        products += 1
        if products > _LANCZOS_PRODUCTS:
            raise _OverBudget
        return product(x)

    op = LinearOperator((dim, dim), matvec=counted, dtype=float)
    # a fixed start vector makes the result repeat bit for bit
    opts = dict(k=1, v0=np.random.default_rng(0).standard_normal(dim),
                return_eigenvectors=False)
    try:
        lam_max = eigsh(op, which="LA", **opts)[0]
        lam_min = eigsh(op, which="SA", **opts)[0]
    except ArpackError as exc:
        raise RuntimeError(f"Lanczos eigensolver failed on dim {dim}: {exc}")
    return lam_min, lam_max


@_one_blas_thread()
def _ring_report(rule, n):
    """MZReport of the rule at degree n from its moments, or None where the
    walk should compute it: dim (n+1)^2 <= _LANCZOS_DIM (or n < 0, which the
    walk refuses), or moments that cost as many basis values as one walk,
    R (2n+1)^2 >= m (n+1)^2 for R runs (`_rings`; as R = m does).

    Every entry of G integrates a product of degree <= 2n, so G is fixed by
    the moments s_{L,K} = sum_j w_j Y_{L,K}(x_j), L <= 2n (`node_sum`),
    and Lanczos runs on the matrix-free operator of `_moment_gram`.  If it
    spends its product budget (lambda_min near 0), the walk and the dense
    eigensolver give the report, as mz_report's own Lanczos would stall too.
    """
    dim = (n + 1) ** 2
    if n < 0 or dim <= _LANCZOS_DIM:
        return None
    if not math.isfinite(rule.weight_sum * dim):
        # |G_ab| <= sum(w) dim / (4 pi): the walk refuses a Gram that overflows
        return None
    starts = _rings(rule.points)
    if starts is None or starts.size * (2 * n + 1) ** 2 >= rule.m * dim:
        return None
    product = _moment_gram(node_sum(2 * n, rule.points, rule.weights), n)
    try:
        return _report(n, _lanczos_extremes(product, dim))
    except _OverBudget:
        return _dense_report(_gram_walk(rule, n)[0])


def _moment_gram(moments, n):
    """x -> G x for the Gram G at degree n of a rule with the given moments
    up to degree 2n, with no dim^2 array: G x = A_n(mu S_n x), mu = sum
    s_{L,K} Y_{L,K}, on a grid exact to degree 4n, (2n+1) Gauss-Legendre
    nodes in z by 4n+1 equispaced azimuths.  S_n is synthesis and A_n the
    weighted analysis on that grid, each a per-order Legendre table product
    and a cos/sin table product (the per-order transforms of SHTns)."""
    L = 2 * n
    z, wz = _gauss_legendre(L + 1)
    phi = 2.0 * math.pi * np.arange(2 * L + 1) / (2 * L + 1)
    cos_rows, sin_rows = _order_rows(L)
    # the per-order tables P[M, l, j]: Y_{l,k} of order M at azimuth 0,
    # where its sin(M phi) row is 0, at node j; 0 where l < M
    nodes = np.column_stack([np.sqrt((1.0 - z) * (1.0 + z)), np.zeros_like(z), z])
    P = np.vstack([eval_basis_block(L, nodes), np.zeros(z.size)])[cos_rows]
    cos, sin = np.cos(np.outer(np.arange(L + 1), phi)), np.sin(np.outer(np.arange(L + 1), phi))
    # the density mu on the grid, times the grid's weights
    mu_w = (_synthesis(moments, (cos_rows, sin_rows, P, cos, sin))
            * (wz[:, None] * (2.0 * math.pi / phi.size)))
    grid = (*_order_rows(n), np.ascontiguousarray(P[:n + 1, :n + 1]), cos[:n + 1], sin[:n + 1])
    return lambda x: _analysis(mu_w * _synthesis(x, grid), grid)


def _order_rows(L):
    """(cos_rows, sin_rows): (L+1, L+1) tables, indexed [M, l], of the
    canonical rows of the degree-l harmonics of order M at degree L: Y_{l,1}
    (M = 0) or the cos(M phi) one, and the sin(M phi) one.  A pair (M, l)
    without such a harmonic holds (L+1)^2, one past the last row."""
    M, l = np.ogrid[:L + 1, :L + 1]
    dim = (L + 1) ** 2
    return (np.where(l >= M, l * l + np.maximum(2 * M - 1, 0), dim),
            np.where((l >= M) & (M > 0), l * l + 2 * M, dim))


def _synthesis(x, grid):
    """sum_{l,k} x_{l,k} Y_{l,k} on the grid (z nodes by azimuths)."""
    cos_rows, sin_rows, P, cos, sin = grid
    x = np.append(x, 0.0)   # the row past the last: 0 where no harmonic is
    a = (x[cos_rows][:, None, :] @ P)[:, 0]
    b = (x[sin_rows][:, None, :] @ P)[:, 0]
    return a.T @ cos + b.T @ sin


def _analysis(g, grid):
    """sum over the grid of g Y_{l,k}, for every (l, k), in canonical order."""
    cos_rows, sin_rows, P, cos, sin = grid
    out = np.empty(cos_rows.size + 1)   # every row, and one past them for the rest
    out[cos_rows] = (P @ (cos @ g.T)[:, :, None])[:, :, 0]
    out[sin_rows] = (P @ (sin @ g.T)[:, :, None])[:, :, 0]
    return out[:-1]


def exactness_degree(rule, max_scan):
    """Largest consecutive degree the rule integrates exactly.

    Degree l passes iff max_k |sum_j w_j Y_{l,k}(x_j) - sqrt(4*pi)*delta_{l0}|
    <= _EXACTNESS_TOL (the l=0 target is integral(Y_{0,1}) = sqrt(4*pi)).
    Scans l = 0..max_scan and stops at the first failure; a rule that cannot
    even integrate constants gets degree -1.  The sums are the rule's
    moments up to max_scan (`node_sum` of the weights).
    """
    max_scan = _check_degree(max_scan, "max_scan")
    integrals = node_sum(max_scan, rule.points, rule.weights)
    errors = np.abs(integrals)
    errors[0] = abs(integrals[0] - math.sqrt(SPHERE_AREA))
    residuals = [float(np.max(errors[ell * ell:(ell + 1) ** 2])) for ell in range(max_scan + 1)]
    exact = [r <= _EXACTNESS_TOL for r in residuals] + [False]
    return ExactnessReport(degree=exact.index(False) - 1, residuals=residuals)

"""Every sum over a rule's nodes: node sums, moments, exactness degree, the
Gram and eta; and the synthesis at points in runs, their transpose.

The Marcinkiewicz-Zygmund constant of a rule at degree n is the spectral
norm of G - I where G is the discrete Gram matrix of the orthonormal
basis under the rule: G = B diag(w) B^T with B the basis-value matrix.
For any coefficient vector a, sum_j w_j chi(x_j)^2 = a^T G a while
integral(chi^2) = a^T a, so the MZ ratio extremizes exactly at the
extreme eigenvalues of G.

Every sum of one value per node (the fit's w f, or the weights alone: the
moments, which the exactness scan reads) is `node_sum`.  On a rule whose
nodes come in runs of equal z, as the rings of equal_area and
product_gauss_rule do, it takes one azimuth sum per order and run and the
Legendre table at the run heights only (`_run_sums`); every other rule,
random points among them, takes its nodes' (theta, phi) Fourier sums
(`_fourier_sums`): per block of nodes, the rows cos/sin(k theta) and
v cos/sin(M phi), k, M <= n, meet in one small GEMM, and fixed
well-conditioned coefficients map the result to the basis, O(n^2) flops per
node.  One pass takes several values at once, sharing the blocks' theta
rows: the Gram's c at n and moments at 2n.  One cost test, R runs against m
nodes (`_paying_runs`), decides for
the node sums and the Gram alike.  The table (`harmonics._legendre_table`)
is the basis's cos rows at (1, 0, z_r), with its recurrence run over every
order at once: at a few hundred heights or fewer it is 2-6x faster than
eval_basis_block's per-(l, M) loop, with the same bits.  The run Gram, the
grid twin and the run operator take it too; no sum here evaluates
eval_basis_block at the nodes or the run heights.

The transpose of the run sums, a degree-n polynomial synthesised at every
node of points whose runs pay (`_run_synthesis`), is
`hyperinterp.evaluate_block`'s path on them: the rings of every reference
rule, and so every L2 error, and of every equal-area grid.  It takes the
Legendre table at the run heights and one Horner pass in x + iy per node,
O(R n^2 + m n) against O(m n^2) for the basis at every node.

Three paths compute eta.  Every caller of a Gram (`mz_constant`,
`discrete_gram`, the sweeps) reaches the first two through `_gram`;
`audited_fit` makes one call, `_audit`, which picks among all three:
- the run Gram (`_run_gram`, then `mz_report`): on a rule whose runs pay,
  G's upper triangle from two azimuth sums per run and pair of orders and
  the Legendre table at the run heights, O(R dim^2) for R runs; within
  2e-14 of the dense product B diag(w) B^T on the test rules (at most
  7.1e-15 measured, and 3.1e-15 on equal_area(10^6) at n = 15);
- the grid twin (`_twin_gram`, then `mz_report`): on every other rule, the
  run Gram of the product Gauss grid of 2n+1 rings weighted by the
  degree-2n polynomial whose moments are the rule's (its Fourier sums at
  degree 2n, from the one pass over the nodes that also gives c at n),
  which has the rule's Gram; O(m n^2) for the pass and O(n dim^2) for the
  Gram, against O(m dim^2) for the dense product, and within 6.9e-15 of
  it on the test rules;
- the run operator (`_run_operator`, for `_audit`): rules whose runs pay,
  no more runs than dim, above dim 400: Lanczos on a matrix-free operator
  that synthesises x at each run height, weights it by the run's azimuth
  measure to degree 2n and analyses it back, with no dim^2 array.  Its eta
  agrees with the dense product's to 1e-13 (at most 1.6e-14 measured on
  the audit's rules, n = 25..46, and 1.1e-14 at n = 20..24); where Lanczos
  spends its budget, `_gram` and `mz_report` take over.  `mz_constant`
  stays on the Gram, whose eta the tests pin to 1e-14 against the dense
  solver.
The tests and `sphyper check` hold every path to the dense product, summed
by numpy over basis blocks of every node.

Above dim 400 (`_LANCZOS_DIM`, n >= 20) both ends of the spectrum come from
one Lanczos run (`_lanczos_extremes`), on the Gram's triangle or on the run
operator, within a budget of dim // 4 products (250 at most).

Every sum here runs with numpy's and scipy's BLAS on one thread each
(`_one_blas_thread`), so it gives the same bits at any BLAS thread count.
"""

import contextlib
import ctypes
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .harmonics import (SPHERE_AREA, _BLOCK_VALUES, _check_degree, _chunk_points, _legendre_table,
                        _real_array)
from .pointsets import product_gauss_rule

__all__ = ["MZReport", "ExactnessReport", "sample_values", "mz_constant",
           "exactness_degree", "RANK_TOL", "discrete_gram", "mz_report"]

# lambda_min at or below this marks the Gram as rank deficient (eta >= 1,
# hyperinterpolation theory vacuous)
RANK_TOL = 1e-10

# Grams above this dim take their extreme eigenvalues from Lanczos.  The
# sweep's leading blocks of the n = 24 Gram of equal_area(10^4) and
# equal_area(10^5), best of 7 (one BLAS thread, 2-vCPU VM), dense eigvalsh
# against Lanczos (products), eta within 1.1e-15:
#   dim 289: 2.7 against 4.4 ms (58) and 2.7 against 2.0 ms (31);
#   dim 361: 4.6 against 3.5 ms (50) and 4.4 against 3.2 ms (36);
#   dim 441: 7.0 against 2.4 ms (30) and 7.1 against 4.0 ms (42);
#   dim 529: 11.5 against 3.0 ms (30) and 11.5 against 2.7 ms (31);
#   dim 625: 18.2 against 2.7 ms (26) and 17.0 against 5.3 ms (41).
# At dims 289-361 Lanczos won 3 of 4 here and 1 of 4 in an earlier run, so
# the switch sits above them; the figure configs' Grams (dim <= 289) stay
# on the dense solver
_LANCZOS_DIM = 400

# Gram-vector products Lanczos may spend on both ends of the spectrum before
# the dense eigensolver takes over, at most dim // 4 of them, as a product
# costs about 1/dim of a dense solve.  Measured: the run operator of
# equal_area(4 dim) at n = 25-46 in 36-91, of exact Gauss rules in 10-16;
# Gram triangles of equal_area(4 dim) in 56-91 (26-58 at dims 289-625), of
# random rules with m = 8 dim in about 100, of aliased Gauss rules
# (lambda_min = 0 in a cluster at rounding level) in 143-230.  A random
# rule with m = 1.2 dim (lambda_min = 1e-5 among many small eigenvalues)
# spends it, about the dense solve that follows (one BLAS thread): 110
# products in 6.5-8.2 ms against 8.2-8.3 ms at dim 441, 240 in 71 against
# 74 ms at dim 961.  At m = 2 dim (eta 1.8-2.3, which audited_fit refuses)
# the spent budget made _audit 1.7-2.7x slower at dims 441 and 625 (27-77
# against 14-34 ms, two seeds)
_LANCZOS_PRODUCTS = 250

# Lanczos stops once both extreme Ritz pairs' residual bounds are at most
# this, relative to max(1, |lambda_max|); it looks at them every
# _LANCZOS_CHECK products until they near it
_LANCZOS_TOL = 1e-15
_LANCZOS_CHECK = 8

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
    """Values of `f` at `points`, checked: one finite real value per point,
    as float64.

    `f` is a callable on (m, 3) arrays or an array of values already
    sampled at `points`.
    """
    y = _real_array(f(points) if callable(f) else f, "sample values")
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
    OpenBLAS cuts a dgemm, dgemv, dsymv or dsyevd differently at each thread
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
    """Discrete Gram matrix G = B diag(w) B^T (`_gram`): the full matrix,
    its lower triangle mirrored from the upper one."""
    G = _gram(rule, n)[0]
    G += np.triu(G, 1).T
    return G


@_one_blas_thread()
def node_sum(n, points, v):
    """sum_j v_j Y_{l,k}(x_j) for every l <= n, in canonical order, for one
    value v_j per node: fit's coefficients, and the rule's moments (v = w).
    Nodes in runs of equal z that pay (`_paying_runs`) are summed per run
    (`_run_sums`); every other rule, from its nodes' (theta, phi) Fourier
    sums (`_fourier_sums`).  The dense basis product B v is their oracle."""
    n = _check_degree(n)
    starts = _paying_runs(points)
    if starts is not None:
        return _run_sums(n, points, starts, v)
    return _fourier_sums(points, (n, v))[0]


def _rings(points):
    """Starts of the runs of the nodes, the maximal stretches of consecutive
    nodes with bit-equal z (the latitude rings of equal_area and
    product_gauss_rule), or None where every run is one node."""
    z = points[:, 2]
    new_run = z[1:] != z[:-1]
    if new_run.all():
        return None
    return np.flatnonzero(np.concatenate([[True], new_run]))


# nodes per run, on average, from which the sums over runs pay.  These
# numbers were taken against the dsyrk basis walk, since deleted, that rules
# without paying runs took before the Fourier sums and the grid twin; the
# crossover against those two is an open item of ROADMAP.md.  Measured on
# rules of runs of s nodes at random heights and azimuths, m = 2 10^4 and
# 2 10^5, n = 6, 15, 24 (one BLAS thread, 2-vCPU VM; run path against walk):
#   s = 3: node sums 21 against 47 ms (m = 2 10^4, n = 24), Gram 174 against
#          64 ms (m = 2 10^5, n = 6);
#   s = 4: node sums 172 against 512 ms (m = 2 10^5, n = 24), Gram 128
#          against 67 and 902 against 439 ms (m = 2 10^5, n = 6 and 15);
#   s = 6: Gram 81 against 62 ms; s = 8: 60 against 59 ms (n = 6).
# The node sums gain from s = 3 on, the Gram only from s = 6-8, and n moves
# neither crossover much.  One test serves both, and at s = 4 the larger
# loss either way is least: the walk's node sums at most 2.2x slower below
# it, the run Gram at most 2.1x slower above it.  The same test serves the
# synthesis at many points (`_run_synthesis`, against basis_chunks' blocks,
# best of 5, m = 2 10^4 and 2 10^5, n = 6, 15, 24): over runs it was 1.1-1.7x
# faster at s = 2, 1.4-2.3x at s = 3, 1.6-3.4x at s = 4 and 2.8-7.5x at
# s = 8: every point set the test sends over its runs gains, and runs of
# 2-3 nodes, which it leaves to the blocks, would gain too
_RUN_NODES = 4


def _paying_runs(points):
    """The starts of the runs (`_rings`) where they hold _RUN_NODES nodes or
    more on average, else None: the one cost test, R runs against m nodes,
    that sends a rule's node sums and its Gram over its runs or to its
    Fourier sums and grid twin."""
    starts = _rings(points)
    if starts is None or len(points) < _RUN_NODES * starts.size:
        return None
    return starts


# nodes per chunk of whole runs (`_run_chunks`): each complex row of a chunk
# holds 1/16 of a basis block.  Best of 9 on equal_area(10^6) (one BLAS
# thread, 2-vCPU VM), at this width against twice it: the azimuth sums took
# 21 against 25 ms at d <= 15 and 37-53 against 43-62 ms at d <= 30; the
# synthesis of equal_area(256000) at n = 24, 15 against 21 ms (16 at half
# this width, 18 at a quarter)
_RUN_CHUNK = _BLOCK_VALUES // 32


def _run_chunks(points, starts):
    """Walk the runs that start at `starts` (`_rings`) in chunks of whole
    runs, _RUN_CHUNK nodes at most (a longer run is one chunk): an iterator
    of (runs, nodes, u), the slices of the runs and of their nodes, and u =
    x + iy at those nodes."""
    ends = np.append(starts[1:], len(points))
    lo = 0
    while lo < starts.size:
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + _RUN_CHUNK, "right")))
        nodes = slice(starts[lo], ends[hi - 1])
        u = np.empty(nodes.stop - nodes.start, dtype=complex)
        u.real, u.imag = points[nodes, 0], points[nodes, 1]
        yield slice(lo, hi), nodes, u
        lo = hi


def _azimuth_sums(points, starts, v, D):
    """T[d, r] = sum_{j in run r} v_j (x_j + iy_j)^d for d = 0..D and the runs
    that start at `starts` (`_rings`), as a (D + 1, R) complex array: one
    running power per chunk of whole runs (`_run_chunks`), updated in
    place."""
    sums = np.empty((D + 1, starts.size), dtype=complex)
    for runs, nodes, u in _run_chunks(points, starts):
        power = v[nodes].astype(complex)   # v (x + iy)^d
        for d in range(D + 1):
            if d:
                power *= u
            sums[d, runs] = np.add.reduceat(power, starts[runs] - nodes.start)
        del u, power
    return sums


def _height_tables(n, points, starts):
    """Walk the run heights z_r in chunks, as basis_chunks walks nodes: an
    iterator of (runs, _legendre_table(n, z[runs])), _chunk_points(n)
    heights each.  The table is the basis at (1, 0, z_r), where (x + iy)^M
    = 1, in its cos(M phi) rows: sqrt(2) p_{l,M}(z_r), p_{l,0} at M = 0."""
    z = points[starts, 2]
    width = _chunk_points(n)
    chunks = [slice(lo, lo + width) for lo in range(0, z.size, width)]
    return ((runs, _legendre_table(n, z[runs])) for runs in chunks)


def _run_sums(n, points, starts, v):
    """node_sum through the runs that start at `starts` (`_rings`).

    Y_{l,k} of order M is sqrt(2) p_{l,M}(z) (Re, Im)(x + iy)^M (p_{l,0}
    alone at M = 0), so on a run of height z_r
      sum_j v_j Y_{l,k}(x_j) = sqrt(2) p_{l,M}(z_r) (Re, Im) sum_j v_j (x_j + iy_j)^M,
    whatever the run's azimuths and values.  The nodes enter through one
    azimuth sum per order and run (`_azimuth_sums`), and the basis only
    through the Legendre table at the run heights (`_height_tables`).
    """
    sums = _azimuth_sums(points, starts, v, n)   # [M, run]
    cos_rows, _ = _order_rows(n)
    out = np.zeros((n + 1) ** 2)
    for rows, table in _height_tables(n, points, starts):
        for M in range(n + 1):
            # the sin(M phi) rows, each one row past its cos(M phi) twin,
            # take the same Legendre factor
            P = table[M, M:]
            out[cos_rows[M, M:]] += P @ sums[M, rows].real
            if M:
                out[cos_rows[M, M:] + 1] += P @ sums[M, rows].imag
        del table
    return out


def _run_synthesis(n, points, starts, c):
    """sum_{l,k} c_{l,k} Y_{l,k}(x_j) at every node x_j, for nodes in the runs
    that start at `starts` (`_rings`): the transpose of `_run_sums`.

    On a run of height z_r, with u_j = x_j + iy_j,
      h(x_j) = Re sum_M C_M(z_r) u_j^M,
      C_M(z_r) = sum_l (c_{l,M}^cos - i c_{l,M}^sin) sqrt(2) p_{l,M}(z_r)
    (p_{l,0} alone at M = 0), so the basis enters only through the Legendre
    table at the run heights (`_height_tables`), O(R n^2) for R runs, and
    each node through one Horner pass in u over the orders, O(n), where the
    basis at every node costs O(m n^2).  The nodes are walked in chunks of
    whole runs (`_run_chunks`): the temporaries are a few complex rows of a
    chunk, 1/16 of a basis block each.
    """
    cos_rows, sin_rows = _order_rows(n)
    x = np.append(c, 0.0)   # the row past the last: 0 where no harmonic is
    C = np.empty((n + 1, starts.size), dtype=complex)   # [M, run]
    for runs, table in _height_tables(n, points, starts):
        C.real[:, runs] = (x[cos_rows][:, None, :] @ table)[:, 0]
        C.imag[:, runs] = -(x[sin_rows][:, None, :] @ table)[:, 0]
        del table
    out = np.empty(len(points))
    for runs, nodes, u in _run_chunks(points, starts):
        run = np.repeat(np.arange(runs.start, runs.stop), np.diff(starts[runs], append=nodes.stop))
        h = C[n].take(run)
        for M in range(n - 1, -1, -1):
            h *= u
            h += C[M].take(run)
        out[nodes] = h.real
        del u, h
    return out


# nodes per block of _fourier_sums, at every degree: a value's sums are then
# the same bits alone (node_sum) or beside another value's (_gram).  c at n
# and the moments at 2n on random(10^6), best of 9 (one BLAS thread, 2-vCPU
# VM), at 512 / 768 / 1024 / 1536 / 2048 nodes: 166 / 140 / 129 / 122 / 132
# ms at n = 6, 381 / 379 / 388 / 412 / 413 ms at n = 15, 707 / 699 / 739 /
# 726 / 743 ms at n = 24; 768-1536 are within the spread between runs (about
# 5%).  A block at L = 92 beside a value at 46 holds 1023 doubles per node
# (powers 558, R 185, the two Q 186 and 94), 8.4 MB
_FOURIER_NODES = 1024


def _fourier_sums(points, *sums):
    """[node_sum(L, points, v) for (L, v) in sums] for any rule, from one pass
    over the nodes and their (theta, phi) Fourier sums: O(L) values and
    O(L^2) flops per node and value.

    With z = cos theta, rho = sin theta = |x + iy| and the unit phase
    e^(i phi) = (x + iy) / rho (1 at a pole), Y_{l,k} of order M is
    f_{l,M}(theta) (cos, sin)(M phi), and f_{l,M} = sqrt(2) rho^M p_{l,M}(z)
    (p_{l,0} at M = 0) is a cos(k theta) series for even M and a sin(k theta)
    series for odd M, k <= l, with the coefficients A of
    `_theta_coefficients`.  So
      sum_j v_j Y_{l,k}(x_j) = sum_k A[M, l, k] W[k, M],
      W[k, M] = sum_j (cos, sin)(k theta_j) v_j (cos, sin)(M phi_j),
    and W is one product per parity of M per block of nodes: the rows
    (z + i rho)^k and v (x + iy)^M / rho^M, running powers updated in place
    side by side, meet in a GEMM.  A is well conditioned (sum_k |A| <= 3.9
    at L = 92), where p_{l,M}(z) alone grows like 10^(0.21 L) at the poles.

    Every value shares a block's setup and its theta rows, k up to the
    largest L: _gram takes c at n and the moments at 2n from one pass.  The
    blocks are _FOURIER_NODES wide whatever the Ls, so each value's sums are
    the same bits alone or beside another's.
    """
    A = [_theta_coefficients(L) for L, _ in sums]   # a degree too large fails here, before the pass
    top = max(L for L, _ in sums)
    width = min(_FOURIER_NODES, len(points))
    # [k or M, theta then each value's phase from the deepest L, node]: the
    # rows still running at power k are a leading slice
    deep = sorted(range(len(sums)), key=lambda i: -sums[i][0])
    running = [1 + sum(L >= k for L, _ in sums) for k in range(top + 1)]
    powers = np.empty((top + 1, 1 + len(sums), width), dtype=complex)
    R = np.empty((2 * top + 1, width))   # cos(k theta), then sin(k theta) for k >= 1
    Q = [np.empty((2 * L + 2, width)) for L, _ in sums]   # v (cos, sin)(M phi), even M, then odd M
    W_even = [np.zeros((L + 1, 2 * (L // 2 + 1))) for L, _ in sums]   # [k, cos then sin (M phi)]
    W_odd = [np.zeros((L, 2 * ((L + 1) // 2))) for L, _ in sums]   # odd M, sin(k theta), k >= 1
    for lo in range(0, len(points), width):
        p = points[lo:lo + width]
        b = len(p)
        u = np.empty(b, dtype=complex)
        u.real, u.imag = p[:, 0], p[:, 1]
        rho = np.abs(u)
        base = np.ones((1 + len(sums), b), dtype=complex)
        base[0].real, base[0].imag = p[:, 2], rho          # e^(i theta)
        np.divide(u, rho, out=base[1], where=rho > 0.0)   # e^(i phi), 1 at a pole
        base[2:] = base[1]
        powers[0, 0, :b] = 1.0
        for row, i in enumerate(deep, 1):
            powers[0, row, :b] = sums[i][1][lo:lo + width]
        for k in range(1, top + 1):
            a = running[k]
            np.multiply(powers[k - 1, :a, :b], base[:a], out=powers[k, :a, :b])
        theta = powers[:, 0, :b]
        R[:top + 1, :b], R[top + 1:, :b] = theta.real, theta.imag[1:]
        for row, i in enumerate(deep, 1):
            L, q = sums[i][0], Q[i]
            ne, no = L // 2 + 1, (L + 1) // 2   # even and odd orders M <= L
            phi = powers[:L + 1, row, :b]
            q[:ne, :b], q[ne:2 * ne, :b] = phi[0::2].real, phi[0::2].imag
            q[2 * ne:2 * ne + no, :b], q[2 * ne + no:, :b] = phi[1::2].real, phi[1::2].imag
            W_even[i] += R[:L + 1, :b] @ q[:2 * ne, :b].T
            W_odd[i] += R[top + 1:top + 1 + L, :b] @ q[2 * ne:, :b].T
    return [_theta_map(L, A_L, We, Wo, v)
            for (L, v), A_L, We, Wo in zip(sums, A, W_even, W_odd)]


def _theta_map(L, A, W_even, W_odd, v):
    """node_sum at degree L from a value's Fourier sums W (`_fourier_sums`)."""
    ne, no = L // 2 + 1, (L + 1) // 2
    # W[0, 0] is sum_j v_j, whose terms share the weights' sign, so the
    # GEMM's running sum errs by up to m eps there (7.5e-14 of 4 pi on 2000
    # equal weights, 5e-15 on every even zonal moment, 2e-14 on the Gram);
    # numpy's pairwise sum does not
    W_even[0, 0] = np.sum(v)
    cos_rows, sin_rows = _order_rows(L)
    out = np.empty((L + 1) ** 2 + 1)   # every row, and one past them for l < M
    for rows, A_M, W in ((cos_rows[0::2], A[0::2], W_even[:, :ne]),
                         (sin_rows[0::2], A[0::2], W_even[:, ne:]),
                         (cos_rows[1::2], A[1::2, :, 1:], W_odd[:, :no]),
                         (sin_rows[1::2], A[1::2, :, 1:], W_odd[:, no:])):
        out[rows] = (A_M @ W.T[:, :, None])[:, :, 0]
    return out[:-1]


@functools.lru_cache(maxsize=4)
def _theta_coefficients(L):
    """A[M, l, k], (L+1)^3, read-only: f_{l,M}(theta), the cos(M phi) row of
    the basis at (sin theta, 0, cos theta) (`_legendre_table`), is
    sum_k A[M, l, k] cos(k theta) for even M and sum_k A[M, l, k]
    sin(k theta) for odd M (A[M, l, 0] = 0), a trigonometric polynomial of
    degree l.  Sampled at 2L + 2 equispaced theta, more than 2L, its
    discrete Fourier transform is exact.  As f_{l,M}(pi - theta) =
    (-1)^(l-M) f_{l,M}(theta), only k = l (mod 2) are nonzero; the transform
    leaves rounding (up to 2e-15 at L = 30) at the others, which are set to
    0: the node sums at L = 92 came 1.6e-15 from the dense product in
    place of 3.3e-15.  0.04 s at L = 92, so the last few degrees are kept."""
    K = 2 * L + 2
    theta = 2.0 * math.pi * np.arange(K) / K
    F = np.fft.rfft(_legendre_table(L, np.cos(theta), np.sin(theta)), axis=-1)[..., :L + 1]
    A = F.real * (2.0 / K)
    A[1::2] = F[1::2].imag * (-2.0 / K)
    A[0::2, :, 0] /= 2.0
    A[1::2, :, 0] = 0.0
    l = np.arange(L + 1)
    A[:, (l[:, None] - l) % 2 == 1] = 0.0
    A.flags.writeable = False
    return A


@_one_blas_thread()
def _gram(rule, n, v=None):
    """(G, c) for every caller of a Gram: G's upper triangle at degree n, with
    a zero strict lower triangle, and c = node_sum(n, points, v) (None
    without `v`).  On a rule whose runs pay (`_paying_runs`), G from the runs
    (`_run_gram`) and c from the run sums; on any other rule, one pass over
    the nodes (`_fourier_sums`) takes c at n and the moments at 2n, and G
    comes from the moments' grid twin (`_twin_gram`).  c is node_sum's
    (fit's) bit for bit."""
    n = _check_degree(n)   # before anything is allocated
    starts = _paying_runs(rule.points)
    if starts is None:
        # weights that overflow come out non-finite, and mz_report refuses them
        with np.errstate(over="ignore", invalid="ignore"):
            *c, mu = _fourier_sums(rule.points, *([] if v is None else [(n, v)]),
                                   (2 * n, rule.weights))
        return _twin_gram(n, mu), (c[0] if c else None)
    c = None if v is None else _run_sums(n, rule.points, starts, v)
    return _run_gram(n, rule.points, rule.weights, starts), c


def _twin_gram(n, mu):
    """The upper triangle at degree n, with a zero strict lower triangle, of
    the discrete Gram of the rule whose degree-2n moments are mu
    (`_fourier_sums` of its weights), from the rule's grid twin: the product Gauss grid of 2n+1
    rings and 4n+2 azimuths (exact to degree 4n), weighted by w_g
    sigma(x_g), where sigma = sum_{l <= 2n} mu_{l,k} Y_{l,k}.

    Each entry of G is the rule's sum of a product Y_a Y_b of degree 2n or
    less, which reads only mu; on the twin, the same sum is the grid's of
    sigma Y_a Y_b, degree 4n, which is the integral of sigma Y_a Y_b, which
    reads the same mu.  So the twin's Gram is the rule's, and the twin is
    2n+1 runs, which `_run_gram` takes in O(n dim^2), with no sum over the
    rule's nodes.  sigma is synthesised at the grid's heights and azimuths
    from the Legendre table, as the run operator synthesises.  Its weights
    may be negative; _run_gram needs none positive.
    """
    grid, K = product_gauss_rule(2 * n + 1), 4 * n + 2
    heads = grid.points[::K]   # each ring's node at azimuth 0: (rho, 0, z)
    d, psi = np.arange(2 * n + 1)[:, None], 2.0 * math.pi * np.arange(K) / K
    table = _legendre_table(2 * n, heads[:, 2], heads[:, 0])
    # moments that overflowed are not finite, and mz_report refuses the Gram
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = _synthesis(mu, (*_order_rows(2 * n), table, np.cos(d * psi), np.sin(d * psi)))
        weights = grid.weights * sigma.ravel()
    return _run_gram(n, grid.points, weights, np.arange(0, grid.m, K))


def _run_gram(n, points, weights, starts):
    """The upper triangle of the discrete Gram at degree n, with a zero
    strict lower triangle, from the runs that start at `starts` (`_rings`).

    On a run of height z_r, with u = x + iy and |u|^2 = rho_r^2 = 1 - z_r^2,
    a product of harmonics of orders M <= M' reduces to two azimuth sums,
    S = T_r(M + M') and D = rho_r^(2M) T_r(M' - M), where T_r(d) = sum_j
    w_j u_j^d (`_azimuth_sums`, d <= 2n).  So the block of orders (M, M')
    is P_M diag(k) P_M'^T, with P_M the Legendre table of order M at the
    run heights (`_height_tables`) and, for a cos(M phi) or sin(M phi) row
    (c or s; Y_{l,1} is c at M = 0) against a c or s column of order M',
      k_cc = (Re S + Re D) / 2,   k_cs = (Im S + Im D) / 2,
      k_sc = (Im S - Im D) / 2,   k_ss = (Re D - Re S) / 2.
    That costs O(R dim^2) for R runs, against O(m dim^2) for the dense
    product B diag(w) B^T.  In
    an order-major layout (per order M its c rows l = M..n, then its s
    rows) the blocks M' >= M of order M's rows are one contiguous strip,
    one product per kind of row.  The layout's P is indexed straight out
    of the table, row (M, l) for each c row and for its s twin; the blocks
    M' < M are transposes, and each row of the canonical triangle is
    gathered from its layout row once at the end.  A Gram that overflows
    comes out non-finite, as the dense product does, and mz_report refuses
    it.
    """
    dim = (n + 1) ** 2
    cos_rows, sin_rows = _order_rows(n)
    strips = [(rows[M, M:], M, kind) for M in range(n + 1)
              for kind, rows in enumerate((cos_rows, sin_rows)) if M or not kind]
    canonical = np.concatenate([rows for rows, _, _ in strips])
    order = np.concatenate([np.full(rows.size, M) for rows, M, _ in strips])
    sin = np.concatenate([np.full(rows.size, kind) for rows, _, kind in strips])
    degree = np.concatenate([np.arange(M, n + 1) for _, M, _ in strips])
    first = np.searchsorted(order, np.arange(n + 1))   # order M's rows start here
    z = points[starts, 2]
    rho2 = (1.0 - z) * (1.0 + z)
    G = np.zeros((dim, dim))
    with np.errstate(over="ignore", invalid="ignore"):
        T = 0.5 * _azimuth_sums(points, starts, weights, 2 * n)   # [d, run]
        for runs, table in _height_tables(n, points, starts):
            P = table[order, degree]   # the table in the layout
            del table
            Z = np.empty_like(P)
            power = np.ones(P.shape[1])   # rho^(2M)
            for M in range(n + 1):
                o, L = first[M], n + 1 - M
                S, D = T[2 * M:n + M + 1, runs], power * T[:L, runs]
                k = sin[o:] * L + order[o:] - M   # each column's row of k below
                for row, ks in ((o, (S.real + D.real, S.imag + D.imag)),
                                (o + L, (S.imag - D.imag, D.real - S.real)))[:1 + (M > 0)]:
                    np.take(np.concatenate(ks), k, axis=0, out=Z[o:])
                    Z[o:] *= P[o:]
                    G[row:row + L, o:] += P[o:o + L] @ Z[o:].T
                power *= rho2[runs]
    for M in range(n):
        a, b = first[M], first[M + 1]
        G[b:, a:b] = G[a:b, b:].T
    back = np.empty(dim, dtype=int)   # canonical row a is layout row back[a]
    back[canonical] = np.arange(dim)
    upper = np.zeros((dim, dim))   # the upper triangle, the strict lower one zero
    for a, i in enumerate(back.tolist()):
        upper[a, a:] = G[i].take(back[a:])
    return upper


def mz_constant(rule, n):
    """MZ constant eta = ||G - I||_2 for the rule at degree n, as an MZReport,
    from the Gram (`_gram`); `audited_fit` takes `_audit`'s instead."""
    return mz_report(_gram(rule, n)[0])


@_one_blas_thread()
def mz_report(G):
    """MZReport of a discrete Gram matrix of dim (n+1)^2: eta = ||G - I||_2.

    G must be a square array (or nested list) of floats with dim (n+1)^2
    for some n >= 0.  Both solvers read its upper triangle only, so G may
    be the full matrix or its upper triangle alone (`_gram`'s).  Above dim
    _LANCZOS_DIM, lambda_max and lambda_min come from Lanczos
    (`_lanczos_extremes`); if it spends its product budget first, or at
    smaller dims, from the dense `eigvalsh`.  The two agree to about 1e-14.
    """
    try:
        G = _real_array(G, "a Gram's entries")
    except ValueError as exc:   # ragged, or not real numbers
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
    """Lanczos spent _LANCZOS_PRODUCTS Gram-vector products, or met a value
    that is not finite."""


def _triangle_product(G):
    """x -> G x from G's upper triangle alone (BLAS dsymv), as `_gram`
    returns it with a zero strict lower triangle."""
    from scipy.linalg.blas import dsymv
    # the Fortran view BLAS takes, whose lower triangle is G's upper one;
    # only a leading block of a larger Gram, which is not contiguous, is
    # copied, once
    Gt = np.ascontiguousarray(G).T
    return lambda x: dsymv(1.0, Gt, x, lower=1)


def _lanczos_extremes(product, dim):
    """(lambda_min, lambda_max) of a symmetric dim x dim operator from its
    products x -> G x: one Lanczos run from a fixed start vector, so the
    result repeats bit for bit, with full reorthogonalization (two classical
    Gram-Schmidt passes per step) and no restarts.  Both ends come from the
    one tridiagonal T.  It stops once both extreme Ritz pairs' residual
    bounds |beta s_last| are within tol = _LANCZOS_TOL max(1, |theta_max|),
    which a beta within _LANCZOS_TOL ensures (the Krylov space closes, as
    on the identity).  It looks at the bounds every _LANCZOS_CHECK products,
    and at every product once both have been within sqrt(tol): near
    lambda_min = 0 the bound of that end jumps by decades from one product
    to the next.  Raises _OverBudget after min(_LANCZOS_PRODUCTS, dim // 4)
    products, or on a value that is not finite."""
    from scipy.linalg import eigh_tridiagonal
    steps = min(_LANCZOS_PRODUCTS, dim // 4)
    V = np.empty((steps + 1, dim))   # the Lanczos vectors
    v = np.random.default_rng(0).standard_normal(dim)
    V[0] = v / math.sqrt(v @ v)
    alpha, beta = [], []
    near = False
    for k in range(steps):
        w = product(V[k])
        a = 0.0
        for _ in range(2):   # a fresh w first, as the product may hand back V[k]
            h = V[:k + 1] @ w
            w = w - h @ V[:k + 1]
            a += h[k]
        alpha.append(a)
        beta.append(math.sqrt(w @ w))
        if not math.isfinite(a + beta[-1]):
            raise _OverBudget
        if near or beta[-1] <= _LANCZOS_TOL or (k + 1) % _LANCZOS_CHECK == 0:
            ends = [eigh_tridiagonal(alpha, beta[:-1], select="i", select_range=(i, i))
                    for i in (0, k)]
            theta = [float(value[0]) for value, _ in ends]
            bound = max(beta[-1] * abs(s[-1, 0]) for _, s in ends)
            tol = _LANCZOS_TOL * max(1.0, abs(theta[1]))
            if bound <= tol:
                return theta
            near = near or bound <= math.sqrt(tol)
        V[k + 1] = w / beta[-1]
    raise _OverBudget


@_one_blas_thread()
def _audit(rule, n, v=None):
    """(MZReport, c): the rule's eta at degree n, and c = node_sum(n,
    points, v) (None without `v`), for `audited_fit`.

    Above dim _LANCZOS_DIM, a rule whose runs pay (`_paying_runs`), no more
    runs than dim and a finite Gram takes eta by Lanczos on `_run_operator`,
    with no dim^2 array.  Where Lanczos spends its budget (lambda_min near
    0), the Gram and mz_report take over, as in mz_constant: Lanczos on its
    triangle resolves the cluster at lambda_min = 0 of an aliased Gauss rule
    that the operator does not, and the dense solver follows only if that
    spends its budget too.  Any other rule takes G and c from `_gram`: past
    dim runs, the operator's table would outgrow G.
    """
    n = _check_degree(n)   # before anything is allocated
    dim = (n + 1) ** 2
    starts = None
    if dim > _LANCZOS_DIM and math.isfinite(rule.weight_sum * dim):   # |G_ab| <= sum(w) dim
        starts = _paying_runs(rule.points)
    if starts is None or starts.size > dim:
        G, c = _gram(rule, n, v)
        return mz_report(G), c
    try:
        report = _report(n, _lanczos_extremes(_run_operator(n, rule, starts), dim))
    except _OverBudget:
        report = mz_report(_gram(rule, n)[0])
    return report, None if v is None else _run_sums(n, rule.points, starts, v)


def _run_operator(n, rule, starts):
    """x -> G x for the Gram G at degree n of a rule whose runs start at
    `starts` (`_rings`), with no dim^2 array: per run, the synthesis of x at
    its height z_r on K = 4n+1 equispaced azimuths psi_k, times the run's
    azimuth measure truncated to degree 2n, then the analysis back.

    On a run, sum_j w_j g(phi_j) e^(-i M phi_j), for g of degree n in phi and
    M <= n, reads only the measure's Fourier sums T_r(d) = sum_j w_j
    e^(i d phi_j), |d| <= 2n (`_azimuth_sums` of the unit phases; a pole's
    phi is 0), and equals (1/K) sum_k g(psi_k) e^(-i M psi_k)
    mu_r(psi_k), mu_r(psi) = sum_{|d| <= 2n} T_r(d) e^(-i d psi), exactly,
    since the products have degree 4n < K.  Synthesis and analysis are the
    per-order Legendre table products at the run heights
    (`_legendre_table(n, z_r, rho_r)`, the basis at (rho_r, 0, z_r)) and a
    cos/sin table product (the per-order transforms of SHTns): O(R n^2) per
    product for R runs, where the dense Gram B diag(w) B^T costs O(m n^4)."""
    points, K = rule.points, 4 * n + 1
    z = points[starts, 2]
    psi = 2.0 * math.pi * np.arange(K) / K
    d = np.arange(2 * n + 1)[:, None]
    cos, sin = np.cos(d * psi), np.sin(d * psi)
    phi = np.arctan2(points[:, 1], points[:, 0])   # 0 at a pole
    T = _azimuth_sums(np.column_stack([np.cos(phi), np.sin(phi)]), starts, rule.weights,
                      2 * n)   # [d, run]
    T[1:] *= 2.0   # T_r(d) and T_r(-d) = conj T_r(d) together
    mu = (T.real.T @ cos + T.imag.T @ sin) / K   # [run, k]
    grid = (*_order_rows(n), _legendre_table(n, z, np.sqrt((1.0 - z) * (1.0 + z))),
            cos[:n + 1], sin[:n + 1])
    return lambda x: _analysis(mu * _synthesis(x, grid), grid)


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
    """sum_{l,k} x_{l,k} Y_{l,k} on the grid (heights by azimuths)."""
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

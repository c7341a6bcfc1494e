"""The dense oracle of every Gram and node sum the library builds."""

import numpy as np

from sphyper.harmonics import basis_chunks
from sphyper.quadrature import _one_blas_thread


def dense_gram(rule, n, v=None, gram=True):
    """(np.triu(G), c): the discrete Gram G = B diag(w) B^T at degree n and,
    when `v` is given, the node sum c = B v (else None), from numpy's plain
    products over the basis blocks of `basis_chunks`, so no (n+1)^2 x m
    basis is ever held.  G is the upper triangle alone, with a zero strict
    lower triangle, as `quadrature._gram` returns it; `gram=False` skips its
    O(m dim^2) product (G is None) where only c is wanted.  One BLAS
    thread, so the gaps it measures are the same at any thread count."""
    dim = (n + 1) ** 2
    G = np.zeros((dim, dim)) if gram else None
    c = None if v is None else np.zeros(dim)
    with _one_blas_thread():
        for rows, B in basis_chunks(n, rule.points):
            if G is not None:
                G += (B * rule.weights[rows]) @ B.T
            if c is not None:
                c += B @ v[rows]
            del B
    return (None if G is None else np.triu(G)), c

"""``rank_mod_p``, the row-reduction rank of an integer matrix modulo a
prime: the certificate of exact ranks that the ``exact`` module
docstring sets out."""

from __future__ import annotations

import numpy as np

# 2^31 - 1: prime, and (p-1)^2 fits comfortably in int64
CERT_PRIME = 2147483647

# there is one numpy backend; singbench/run.py records this in every run
USING_NUMBA = False


def rank_mod_p(mat, p):
    """Vectorized mod-p Gaussian elimination on a reduced int64 copy of the
    integer array `mat`, which is left unchanged.  Rank is transpose
    invariant, so the shorter side is the one searched and updated."""
    if mat.shape[0] > mat.shape[1]:
        mat = mat.T
    mat = np.mod(mat, p, dtype=np.int64, order="C")
    rows, cols = mat.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        # the rows at or below r that are non-zero in column c
        hits = r + mat[r:, c].nonzero()[0]
        if not hits.size:
            continue
        if hits[0] != r:
            # row r is zero in column c, so it needs no clearing at hits[0]
            mat[[r, hits[0]]] = mat[[hits[0], r]]
        clear = hits[1:]
        if clear.size:
            rows_below = mat[clear]
            # cross-multiplication avoids modular inverses; entries stay < p^2
            mat[clear] = np.mod(
                rows_below * mat[r, c] - rows_below[:, c, None] * mat[r], p)
        r += 1
    return r

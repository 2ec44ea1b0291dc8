"""The mod-p rank certificate for exact rational ranks.

``rank_mod_p`` is the row-reduction rank of an integer matrix modulo a
prime.  Rank mod p never exceeds the rational rank, so full column rank
mod ``CERT_PRIME`` is a sound certificate of full rational column rank.
"""

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
        piv = -1
        for i in range(r, rows):
            if mat[i, c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            mat[[r, piv]] = mat[[piv, r]]
        pivval = mat[r, c]
        below = mat[r + 1:, c] != 0
        if below.any():
            rows_below = mat[r + 1:][below]
            # cross-multiplication avoids modular inverses; entries stay < p^2
            mat[r + 1:][below] = np.mod(
                rows_below * pivval - np.outer(rows_below[:, c], mat[r]), p)
        r += 1
    return r

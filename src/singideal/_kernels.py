"""``eliminate_mod_p``, the one elimination engine: row reduction of an
integer matrix modulo a prime.  Forward-only, its pivot count is the rank
mod p; Gauss-Jordan, it gives the reduced row echelon form mod p, which
``exact`` reads back as rationals and certifies (the proof is in the
``exact`` module docstring)."""

from __future__ import annotations

import numpy as np

# 2^31 - 1: prime, and (p-1)^2 fits comfortably in int64; ``exact`` tries
# it first, then the primes below it
CERT_PRIME = 2147483647

# there is one numpy backend; singbench/run.py records this in every run
USING_NUMBA = False


def eliminate_mod_p(mat, p, reduced=False):
    """(pivots, rows): a boolean mask of the pivot columns of the integer
    array ``mat`` reduced mod the prime ``p`` < 2^31, whose sum is the rank
    mod p, and the non-zero rows of a row echelon form.  Forward
    elimination clears each pivot column below its pivot only; ``reduced``
    scales each pivot to 1 and clears its column above as well, giving the
    reduced row echelon form.  ``mat`` is left unchanged; the work is on
    an int64 copy."""
    mat = np.mod(mat, p, dtype=object if mat.dtype == object else np.int64,
                 order="C").astype(np.int64, copy=False)
    pivots, r = np.zeros(mat.shape[1], dtype=bool), 0
    for c in range(mat.shape[1]):
        if r == mat.shape[0]:
            break
        # the rows at or below r that are non-zero in column c
        hits = r + mat[r:, c].nonzero()[0]
        if not hits.size:
            continue
        if hits[0] != r:
            # row r is zero in column c, so it needs no clearing at hits[0]
            mat[[r, hits[0]]] = mat[[hits[0], r]]
        clear = hits[1:]
        if reduced:
            if mat[r, c] != 1:
                mat[r, c:] = mat[r, c:] * pow(int(mat[r, c]), -1, p) % p
            clear = np.concatenate([mat[:r, c].nonzero()[0], clear])
        if clear.size:
            # row r is zero left of column c, and a row it clears is scaled
            # by the pivot only in the forward pass, where it is zero there
            # too: columns c onwards change.  Entries stay below p^2 < 2^62.
            rows = mat[clear, c:]
            scaled = rows if reduced else rows * mat[r, c]
            mat[clear, c:] = (scaled - rows[:, :1] * mat[r, c:]) % p
        pivots[c], r = True, r + 1
    return pivots, mat[:r]

"""Exact rational linear algebra: rank, kernel bases, span tests, integerization.

Everything here is exact.  ``integer_rows`` is the one conversion of
rational values (ints, Fractions, floats taken exactly) to integer rows
over a common denominator, and ``integer_product`` the one exact product
of integer arrays, an integer scatter over the pairs of non-zeros that
share a column (``_matching``, the join the groupoid's convolution also
uses).  Every kernel, and so every rank, comes from one engine,
``_kernels.eliminate_mod_p``, and is certified before it is returned.

``_integer_kernel`` first ranks a matrix with at least as many rows as
columns through forward passes on the transposes of its first 2 cols
rows, 4 cols rows, and so on up to all its rows: the rank mod p of any
rows of an integer matrix never exceeds the rational rank of the whole,
so full column rank mod p on a prefix proves a trivial kernel, and the
first pass that finds it ends the search.  Otherwise it takes the
reduced row echelon form (RREF) mod p, reads each non-zero entry at a
free column back as a rational a/b with |a|, b <= sqrt(N/2) (rational
reconstruction, von zur Gathen and Gerhard, *Modern Computer Algebra*
5.10), and builds one primitive integer vector per free column f: 1 at
f, minus column f of the RREF at the pivots, cleared of denominators.  ``_certify_kernel``
accepts the d vectors B only on a proof in three parts:

1. M B = 0, exactly;
2. each vector's last non-zero entry is at its own free column, in
   increasing order, and it is zero at every other vector's free column;
3. d = cols - r_p, r_p the rank mod p, the pivot count of the same pass.

By 2, B is independent, so by 1 the rational rank r is at most cols - d
= r_p <= r: B spans ker M.  A kernel vector zero at the free columns is
zero, so the other r columns are independent, and by 2 each free column
is a combination of those to its left: they are the rational pivot
columns, and each vector of B is the unique kernel vector supported on
the pivots and its free column, the canonical RREF basis vector.

When the proof fails (an unlucky prime, or an entry past sqrt(N/2)),
the next prime of one fixed sequence is taken.  Primes sharing the best
pivot set, the rational one when any prime has it (no prime finds more
pivots or an earlier one), are combined by the Chinese remainder
theorem, N their product.  Unlucky primes divide one non-zero minor, so
their product stays below the Hadamard bound H of any rank-many rows,
and the RREF entries are ratios of minors at most H: once N passes
2 H^2 the reading is exact, and a failure raises
``InternalInconsistencyError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite, isqrt, lcm, prod
from typing import List, Optional, Sequence

import numpy as np

from ._kernels import CERT_PRIME, eliminate_mod_p

# integers below this in magnitude fit int64
INT64_LIMIT = 2 ** 63


class InternalInconsistencyError(RuntimeError):
    """A kernel consistency check failed: an implementation bug."""


@dataclass(frozen=True)
class RationalMatrix:
    """Dense row-major matrix of exact rational (int or Fraction) entries."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: Optional[int] = None) -> "RationalMatrix":
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("cols required for an empty matrix")
        flat = tuple(x for r in rows for x in r)
        return cls(len(rows), cols, flat)

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def row_lists(self) -> List[list]:
        return [list(self.row(i)) for i in range(self.rows)]


def integer_rows(rows) -> tuple:
    """(numerators, d): row i of the integer array is d times row i of the
    rational matrix ``rows``, d the least common denominator of its entries.

    ``rows`` is a 2-d numpy array, a RationalMatrix or a sequence of
    equal-length rows (none: 0 x 0) of ints, Fractions and floats, each
    float taken exactly and a NaN or infinity refused with ValueError.
    An integer array is returned as it is; otherwise the array is int64
    when every numerator is below 2^63 in magnitude, Python ints if not.
    """
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2:
            raise ValueError("need a 2-d array")
        if np.can_cast(rows.dtype, np.int64):
            return rows, 1
        shape, values = rows.shape, rows.ravel().tolist()
    elif isinstance(rows, RationalMatrix):
        shape, values = (rows.rows, rows.cols), rows.entries
    else:
        shape = (len(rows), len(rows[0]) if len(rows) else 0)
        if any(len(r) != shape[1] for r in rows):
            raise ValueError("ragged rows")
        values = [x for r in rows for x in r]
    # ints are kept as they are: reading their denominator builds no Fraction
    if not set(map(type, values)) <= {int, Fraction}:
        if any(isinstance(x, float) and not isfinite(x) for x in values):
            raise ValueError("a NaN or infinite entry is not a rational")
        values = [x if type(x) in (int, Fraction) else Fraction(x) for x in values]
    dens = {x.denominator for x in values}
    den = lcm(*dens)
    scale = {d: den // d for d in dens}
    nums = [x.numerator * scale[x.denominator] for x in values]
    dtype = np.int64 if max(map(abs, nums), default=0) < INT64_LIMIT else object
    return np.array(nums, dtype=dtype).reshape(shape), den


def _max_abs(a: np.ndarray) -> int:
    return max(-int(a.min()), int(a.max())) if a.size else 0


def _matching(left: np.ndarray, right: np.ndarray, num_units: int):
    """(i, j) over every i and j with left[i] = right[j], for unit arrays
    ``left`` and ``right``, ordered by i."""
    order = np.argsort(right, kind="stable")
    # the js at unit u are order[first[u]:first[u] + at_unit[u]]; each i
    # meets the at_unit[left[i]] of them, as one run
    at_unit = np.bincount(right, minlength=num_units)
    first = np.cumsum(at_unit) - at_unit
    runs = at_unit[left]
    i = np.repeat(np.arange(len(left)), runs)
    offset = np.arange(len(i)) - np.repeat(np.cumsum(runs) - runs, runs)
    return i, order[np.repeat(first[left], runs) + offset]


def integer_product(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``matrix @ rows.T`` exactly, for integer arrays, as an integer array.

    Every non-zero of ``matrix`` at (i, k) meets every non-zero of ``rows``
    at (j, k), the pairs joined by ``_matching`` on k, and their product is
    added onto cell (i, j) with ``np.add.at``.  Every partial sum of cell
    (i, j) is at most max|rows| times the absolute row sum of row i, so
    the scatter is in int64 when max|rows| times the largest absolute row
    sum of ``matrix`` is below 2^63 and in Python ints otherwise.  The row
    sums are scattered from the same non-zeros, so no copy of ``matrix``
    is made.  On a coset matrix, whose every column holds one 1 per family
    member, there are |F| nnz(rows) pairs."""
    i, k = np.nonzero(matrix)
    j, h = np.nonzero(rows)
    values, factors = matrix[i, k], rows[j, h]
    wide = values.dtype == object or _max_abs(values) * matrix.shape[1] >= INT64_LIMIT
    row_sums = np.zeros(len(matrix), dtype=object if wide else np.int64)
    np.add.at(row_sums, i, np.abs(values, dtype=row_sums.dtype))
    bound = _max_abs(factors) * int(row_sums.max(initial=0))
    dtype = np.int64 if bound < INT64_LIMIT else object
    a, b = _matching(k, h, matrix.shape[1])
    out = np.zeros((len(matrix), len(rows)), dtype=dtype)
    np.add.at(out, (i[a], j[b]), values.astype(dtype)[a] * factors.astype(dtype)[b])
    return out


def _primes():
    """CERT_PRIME, then every prime below it, in descending order."""
    return (n for n in range(CERT_PRIME, 2, -2)
            if n == CERT_PRIME or all(n % d for d in range(3, isqrt(n) + 1, 2)))


def _rational(u: int, n: int) -> tuple:
    """(a, b), b > 0 and gcd(a, b) = 1, with a = b u (mod n) and |a|, b at
    most sqrt(n/2), unique for odd n; InternalInconsistencyError when there
    is none.  The half extended Euclidean algorithm on (n, u)."""
    bound = isqrt(n // 2)
    r0, r1, t0, t1 = n, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        raise InternalInconsistencyError("an RREF entry has no rational reading")
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _primitive(rows: np.ndarray) -> np.ndarray:
    """The non-zero integer ``rows``, each divided by its gcd and signed so
    that its leading entry is > 0: int64 when every entry then fits."""
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
    rows = rows // (np.gcd.reduce(rows, axis=1) * np.sign(lead))[:, None]
    if rows.dtype == object and _max_abs(rows) < INT64_LIMIT:
        rows = rows.astype(np.int64)
    return rows


def _reconstruct(pivots: np.ndarray, at: tuple, residues: np.ndarray,
                 modulus: int) -> np.ndarray:
    """The kernel basis read off the free columns of the RREF of a matrix
    mod ``modulus`` whose pivot columns ``pivots`` masks, given by its
    non-zero ``residues`` at the positions ``at`` (rows, free columns):
    per free column f, 1 at f and minus the rational reading of column f
    at the pivots, times a common denominator, then made primitive.  Each
    distinct value is read once; InternalInconsistencyError when one has
    no rational reading."""
    free = np.flatnonzero(~pivots)
    i, j = at
    values = sorted(set(residues.tolist()))
    pairs = [_rational(u, modulus) for u in values]
    den = lcm(*(b for _, b in pairs))
    scaled = [-a * (den // b) for a, b in pairs]
    dtype = np.int64 if max([den, *map(abs, scaled)]) < INT64_LIMIT else object
    basis = np.zeros((len(free), len(pivots)), dtype=dtype)
    basis[np.arange(len(free)), free] = den
    where = np.searchsorted(values, residues)
    basis[j, np.flatnonzero(pivots)[i]] = np.array(scaled, dtype=dtype)[where]
    return _primitive(basis)


def _integer_kernel(m) -> np.ndarray:
    """The canonical basis of the right kernel {x : Mx = 0} as the rows of
    one integer array, int64 when every entry fits and Python ints
    otherwise: one primitive vector (gcd 1, leading entry > 0) per free
    column of the RREF, in ascending column order, certified by
    ``_certify_kernel`` (module docstring)."""
    rows = integer_rows(m)[0]
    cols = rows.shape[1]
    if len(rows) >= cols:
        # full column rank mod p on the first 2 cols rows, then 4 cols, and
        # so on up to all the rows, settles a trivial kernel
        size = 2 * cols
        while True:
            if eliminate_mod_p(rows[:size].T, CERT_PRIME)[0].sum() == cols:
                return np.zeros((0, cols), dtype=np.int64)
            if size >= len(rows):
                break
            size *= 2
    best = None
    for p in _primes():
        pivots, rref = eliminate_mod_p(rows, p, reduced=True)
        # the free columns only: a copy, so the working array can go
        rref = rref[:, ~pivots]
        # mod p the i-th pivot is never left of the rational i-th pivot and
        # there are never more pivots, so the rational pivots sort first
        key = (~pivots).tobytes()
        if best is None or key < best:
            best, block, modulus = key, rref, p
        elif key == best:
            # the Chinese remainder theorem on the dense block, in int64
            # while N p fits
            dtype = np.int64 if modulus * p < INT64_LIMIT else object
            block = np.zeros(rref.shape, dtype=dtype)
            block[at] = residues
            block += (rref.astype(dtype) - block % p) * pow(modulus, -1, p) % p * modulus
            modulus *= p
        else:
            continue
        # only the non-zero residues are kept: no dense block outlives the
        # pass, through the certificate or into the next prime
        at = np.nonzero(block)
        residues = block[at]
        del block, rref
        try:
            basis = _reconstruct(pivots, at, residues, modulus)
            _certify_kernel(rows, basis, int(pivots.sum()))
            return basis
        except InternalInconsistencyError:
            # 2 H^2, H the product of the min(rows, cols) largest row norms
            # (each taken as at least 1): the Hadamard bound of any minor
            wide = rows.dtype == object or _max_abs(rows) ** 2 * cols >= INT64_LIMIT
            squares = np.square(rows, dtype=object if wide else np.int64).sum(axis=1)
            squares = sorted(max(s, 1) for s in squares.tolist())
            if modulus > 2 * prod(squares[len(squares) - min(rows.shape):]):
                raise


def _certify_kernel(matrix: np.ndarray, basis: np.ndarray, rank_p: int) -> None:
    """Raise InternalInconsistencyError unless the rows of ``basis`` are,
    up to scale, the canonical basis of ker ``matrix``, whose rank mod a
    prime is ``rank_p``; the proof is in the module docstring."""
    cols, d = matrix.shape[1], len(basis)
    if rank_p != cols - d:
        raise InternalInconsistencyError(f"kernel dimension {d} disagrees with the matrix rank")
    nonzero = basis != 0
    last = cols - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    # at the sorted last columns the vectors read as the identity only when
    # those columns are distinct and in increasing order, each vector's own
    # non-zero and the others' zero
    if not np.array_equal(nonzero[:, np.sort(last)], np.eye(d, dtype=bool)):
        raise InternalInconsistencyError("the kernel basis is not in reduced echelon form")
    if integer_product(matrix, basis).any():
        raise InternalInconsistencyError("a kernel basis vector fails M x = 0")


def rank(m) -> int:
    """Rank over the rationals: the columns less the certified kernel."""
    basis = _integer_kernel(m)
    return basis.shape[1] - len(basis)


def integer_kernel_basis(m) -> List[tuple]:
    """The canonical kernel basis of ``_integer_kernel``: one primitive
    integer vector per free column, as a tuple of Python ints."""
    return [tuple(vec) for vec in _integer_kernel(m).tolist()]


def kernel_basis(m) -> List[tuple]:
    """The canonical kernel basis in Fractions: each vector of
    ``integer_kernel_basis`` divided by its entry at its free column."""
    basis = integer_kernel_basis(m)
    # a vector's last non-zero entry is at its free column, and every
    # column that is no vector's free column is a pivot column
    frees = [max(i for i, x in enumerate(vec) if x) for vec in basis]
    pivots = set(range(len(basis[0]))) - set(frees) if basis else ()
    out = []
    for vec, free in zip(basis, frees):
        # a fresh Fraction at each pivot column and one shared zero per
        # vector elsewhere: the object layout fixes the pickled bytes
        row = [Fraction(0)] * len(vec)
        row[free] = Fraction(1)
        for c in pivots:
            row[c] = Fraction(vec[c], vec[free])
        out.append(tuple(row))
    return out


def kernel_dim(m) -> int:
    return len(_integer_kernel(m))


def spans_full(vectors: Sequence[Sequence], dim: int) -> bool:
    """True iff the rational span of the vectors is all of Q^dim."""
    vectors = [list(v) for v in vectors]
    if any(len(v) != dim for v in vectors):
        raise ValueError("vector length does not match dim")
    return dim == 0 or len(vectors) >= dim and rank(vectors) == dim


def integerize(vec: Sequence) -> tuple:
    """Primitive integer vector: positive multiple, gcd 1, leading entry > 0."""
    ints = integer_rows([vec])[0]
    if not ints.any():
        raise ValueError("cannot integerize the zero vector")
    return tuple(_primitive(ints)[0].tolist())


def in_span(basis: Sequence[Sequence], vec: Sequence) -> bool:
    """Exact membership of vec in the rational span of the basis vectors."""
    basis = [list(b) for b in basis]
    return rank(basis) == rank(basis + [list(vec)])


def same_subspace(basis_a: Sequence[Sequence], basis_b: Sequence[Sequence]) -> bool:
    """Exact equality of the two rational spans."""
    a = [list(r) for r in basis_a]
    b = [list(r) for r in basis_b]
    ra, rb = rank(a), rank(b)
    return ra == rb == rank(a + b)

"""Exact rational linear algebra: rank, kernel bases, span tests, integerization.

Everything here is exact and stays in integers: ``integer_rows`` is the
one conversion of rational values (ints, Fractions, floats taken
exactly) to integer rows over a common denominator, and the rows are
eliminated fraction-free (cross-multiplication with gcd stripping,
pivots at the first non-zero entry in column order) and back-substituted
the same way into an integer RREF.  The RREF is canonical, so its kernel
basis (``integer_kernel_basis``) is reproducible across platforms;
``kernel_basis`` is its Fraction view.

Machine integers enter only through ``integer_product``, exact in
float64 while every partial sum is an integer below 2^53, and the mod-p
rank (``_kernels``), taken at most once per matrix: first, by
``_reduce``, when the matrix has at least as many rows as columns, and
otherwise, since it cannot then be full, only by the certificate.  The
rank of an integer matrix mod p never exceeds its rational rank, so that
one rank r_p serves two proofs.  r_p == cols proves a trivial kernel
with no elimination.  And ``_certify_kernel`` proves that the d rows of
an integer array B are a basis of the kernel: M B = 0 exactly; B is
independent, by structure when its rows end in distinct columns (in that
order they are triangular, as the canonical basis always is), else by
its rank mod p, then exactly; and r_p == cols - d leaves no kernel
vector out.  A shorter mod-p rank proves nothing and falls back to exact
elimination: the shortcut to ``_echelon``, the certificate to ``rank``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite, lcm
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ._kernels import CERT_PRIME, rank_mod_p

# integers below these in magnitude convert to float64 exactly, and fit int64
EXACT_FLOAT_INT = 2 ** 53
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
    if values and type(values[0]) is int:
        # numpy reads an int matrix in one pass, as int64 only when every
        # entry is an int that fits
        ints = np.array(values)
        if ints.dtype == np.int64:
            return ints.reshape(shape), 1
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


def integer_product(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``matrix @ rows.T`` exactly, for integer arrays, as an integer array:
    in float64 when max|rows| times the largest absolute row sum of
    ``matrix`` is below 2^53, so that every partial sum is an exact
    integer, in int64 below 2^63 and in Python ints otherwise."""
    bound = _max_abs(rows) * int(np.abs(matrix, dtype=np.int64).sum(axis=1).max(initial=0))
    if bound < EXACT_FLOAT_INT:
        return (matrix.astype(np.float64) @ rows.T.astype(np.float64)).astype(np.int64)
    dtype = np.int64 if bound < INT64_LIMIT else object
    return matrix.astype(dtype) @ rows.T.astype(dtype)


def _strip_row(row: List[int]) -> List[int]:
    """row divided by its gcd, signed so its first non-zero entry is > 0."""
    lead = next((x for x in row if x), 0)
    # a leading entry of +-1 makes the gcd 1
    g = 1 if lead in (1, -1) else gcd(*row)
    if lead < 0:
        g = -g
    return row if g in (0, 1) else [x // g for x in row]


def _clear_column(row: List[int], pivot: List[int], c: int) -> List[int]:
    """pivot[c] * row - row[c] * pivot, gcd-stripped: column c cleared."""
    pv, v = pivot[c], row[c]
    return _strip_row([pv * x - v * y for x, y in zip(row, pivot)])


def _echelon(int_rows: Iterable[List[int]]):
    """Fraction-free forward elimination.

    Returns (pivot_cols, pivot_rows) with pivot columns strictly increasing
    per row; pivot_rows are gcd-stripped integer rows with positive pivots.
    """
    pivots = {}  # col -> row
    for row in int_rows:
        for c in sorted(pivots):
            if row[c]:
                row = _clear_column(row, pivots[c], c)
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None:
            pivots[lead] = row
    cols_sorted = sorted(pivots)
    return cols_sorted, [pivots[c] for c in cols_sorted]


def _reduce(m):
    """(pivot_cols, pivot_rows, cols, rank_p), rank_p the rank of m mod
    CERT_PRIME, or None when m has fewer rows than columns and the rank
    could settle nothing: m's exact elimination, or every column and no
    rows when rank_p is full column rank."""
    rows = integer_rows(m)[0]
    cols = rows.shape[1]
    rank_p = _rank_mod_prime(rows) if len(rows) >= cols else None
    if rank_p == cols:
        return list(range(cols)), [], cols, rank_p
    return (*_echelon(rows.tolist()), cols, rank_p)


def _rank_mod_prime(rows: np.ndarray) -> int:
    """rank_mod_p of an integer array, Python ints reduced mod p first."""
    if rows.dtype == object:
        rows = np.mod(rows, CERT_PRIME).astype(np.int64)
    return int(rank_mod_p(rows, CERT_PRIME))


def rank(m) -> int:
    """Rank over the rationals via exact fraction-free elimination."""
    return len(_reduce(m)[0])


def _integer_kernel(m) -> tuple:
    """(B, rank_p): the canonical basis of the right kernel {x : Mx = 0}
    as the rows of one integer array, int64 when every entry fits and
    Python ints otherwise, and m's rank mod CERT_PRIME.  There is one
    primitive vector (gcd 1, leading entry > 0) per free column of the
    RREF, in ascending column order.  Back-substitution clears each pivot
    column from the rows above with the forward step, so the RREF stays
    integral (Bareiss 1968)."""
    pivot_cols, rows, cols, rank_p = _reduce(m)
    free = sorted(set(range(cols)) - set(pivot_cols))
    if not free:
        return np.zeros((0, cols), dtype=np.int64), rank_p
    for i in reversed(range(len(rows))):
        for j in range(i):
            if rows[j][pivot_cols[i]]:
                rows[j] = _clear_column(rows[j], rows[i], pivot_cols[i])
    # row i reads p_i x[c_i] + a_i x[free] = 0 when the other free entries
    # are 0; x[free] = lcm(p_i) makes every x[c_i] an integer
    den = lcm(*(r[c] for r, c in zip(rows, pivot_cols)))
    scale = [den // r[c] for r, c in zip(rows, pivot_cols)]
    a = integer_rows([[r[f] for f in free] for r in rows]
                     or np.zeros((0, len(free)), dtype=np.int64))[0]
    fits = max(den, _max_abs(a) * max(scale, default=0)) < INT64_LIMIT
    dtype = np.int64 if fits else object
    basis = np.zeros((len(free), cols), dtype=dtype)
    basis[np.arange(len(free)), free] = den
    basis[:, pivot_cols] = -(a.astype(dtype) * np.array(scale, dtype=dtype)[:, None]).T
    # divide each vector by its gcd, signed by its leading entry
    lead = basis[np.arange(len(free)), np.argmax(basis != 0, axis=1)]
    g = np.gcd.reduce(basis, axis=1)
    basis //= np.where(lead < 0, -g, g)[:, None]
    if not fits and _max_abs(basis) < INT64_LIMIT:
        basis = basis.astype(np.int64)
    return basis, rank_p


def _certify_kernel(matrix: np.ndarray, basis: np.ndarray,
                    rank_p: Optional[int]) -> None:
    """Raise InternalInconsistencyError unless the rows of ``basis`` are a
    basis of ker ``matrix``, whose rank mod CERT_PRIME is ``rank_p`` (None:
    not yet taken); the proof is in the module docstring."""
    cols, d = matrix.shape[1], len(basis)
    if d:
        if integer_product(matrix, basis).any():
            raise InternalInconsistencyError("a kernel basis vector fails M x = 0")
        nonzero = basis != 0
        last = np.sort(cols - 1 - np.argmax(nonzero[:, ::-1], axis=1))
        triangular = nonzero.any(axis=1).all() and (last[1:] > last[:-1]).all()
        if not triangular and _rank_mod_prime(basis) < d and rank(basis) < d:
            raise InternalInconsistencyError("the kernel basis is linearly dependent")
    if rank_p is None:
        rank_p = _rank_mod_prime(matrix)
    if rank_p > cols - d or (rank_p < cols - d and rank(matrix) != cols - d):
        raise InternalInconsistencyError(
            f"kernel dimension {d} disagrees with the matrix rank")


def integer_kernel_basis(m) -> List[tuple]:
    """The canonical kernel basis of ``_integer_kernel``: one primitive
    integer vector per free column, as a tuple of Python ints."""
    return [tuple(vec) for vec in _integer_kernel(m)[0].tolist()]


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
    pivot_cols, _, cols, _ = _reduce(m)
    return cols - len(pivot_cols)


def spans_full(vectors: Sequence[Sequence], dim: int) -> bool:
    """True iff the rational span of the vectors is all of Q^dim."""
    vectors = [list(v) for v in vectors]
    if any(len(v) != dim for v in vectors):
        raise ValueError("vector length does not match dim")
    return dim == 0 or len(vectors) >= dim and rank(vectors) == dim


def integerize(vec: Sequence) -> tuple:
    """Primitive integer vector: positive multiple, gcd 1, leading entry > 0."""
    ints = integer_rows([vec])[0][0].tolist()
    if not any(ints):
        raise ValueError("cannot integerize the zero vector")
    return tuple(_strip_row(ints))


def in_span(basis: Sequence[Sequence], vec: Sequence) -> bool:
    """Exact membership of vec in the rational span of the basis vectors."""
    basis = [list(b) for b in basis]
    if not any(vec):
        return True
    if not basis:
        return False
    return rank(basis) == rank(basis + [list(vec)])


def same_subspace(basis_a: Sequence[Sequence], basis_b: Sequence[Sequence]) -> bool:
    """Exact equality of the two rational spans."""
    a = [list(r) for r in basis_a]
    b = [list(r) for r in basis_b]
    if not a or not b:
        # the span of no vectors is {0}
        return not any(any(r) for r in a + b)
    ra, rb = rank(a), rank(b)
    return ra == rb == rank(a + b)

"""Exact rational linear algebra: rank, kernel bases, span tests, integerization.

Everything here is exact: rows are cleared of denominators and eliminated
fraction-free over the integers (cross-multiplication with gcd stripping),
with pivots chosen as the first non-zero entry in column order.  Kernel
bases are read off the reduced row echelon form, which is canonical, so
bases and witnesses are reproducible across platforms.

Machine integers enter only through the mod-p rank (``_kernels``), and
only as a sound certificate: the rank of an integer matrix mod p never
exceeds its rational rank.  Here, full column rank mod p proves a trivial
kernel and deficient cases fall through to exact elimination.
``ideals.class_I_check`` uses the same bound the other way round: after
substituting an integerised kernel basis of dimension d into the matrix
exactly, a mod-p rank of cols - d proves that the basis spans the whole
kernel, and a shorter mod-p rank is decided by ``rank``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ._kernels import CERT_PRIME, rank_mod_p


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


def _as_rows(m) -> Tuple[List[list], int]:
    """Accept a RationalMatrix, a numpy array or a sequence of rows."""
    if isinstance(m, RationalMatrix):
        return m.row_lists(), m.cols
    if isinstance(m, np.ndarray):
        if m.ndim != 2:
            raise ValueError("need a 2-d array")
        return [[int(x) for x in row] for row in m.tolist()], int(m.shape[1])
    rows = [list(r) for r in m]
    if not rows:
        raise ValueError("cannot infer column count from an empty row sequence")
    cols = len(rows[0])
    if any(len(r) != cols for r in rows):
        raise ValueError("ragged rows")
    return rows, cols


def _clear_denominators(row: Sequence) -> List[int]:
    # fast path: an all-int row (the 0/1 constraint rows) skips the
    # isinstance(x, Fraction) checks, which go through the numbers ABCs
    if set(map(type, row)) <= {int}:
        return list(row)
    mult = 1
    for x in row:
        if isinstance(x, Fraction):
            mult = mult * x.denominator // gcd(mult, x.denominator)
    out = []
    for x in row:
        if isinstance(x, Fraction):
            out.append(x.numerator * (mult // x.denominator))
        else:
            out.append(int(x) * mult)
    return out


def _strip_row(row: List[int]) -> List[int]:
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        row = [x // g for x in row]
    for x in row:
        if x:
            if x < 0:
                row = [-y for y in row]
            break
    return row


def _echelon(int_rows: Iterable[List[int]]):
    """Fraction-free forward elimination.

    Returns (pivot_cols, pivot_rows) with pivot columns strictly increasing
    per row; pivot_rows are gcd-stripped integer rows.
    """
    pivots = {}  # col -> row
    for row in int_rows:
        row = list(row)
        for c in sorted(pivots):
            v = row[c]
            if v:
                p = pivots[c]
                pv = p[c]
                row = _strip_row([pv * x - v * y for x, y in zip(row, p)])
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None:
            pivots[lead] = row
    cols_sorted = sorted(pivots)
    return cols_sorted, [pivots[c] for c in cols_sorted]


def _rref(pivot_cols: List[int], pivot_rows: List[List[int]]) -> List[List[Fraction]]:
    """Canonical reduced row echelon form of the pivot rows."""
    rows = [[Fraction(x) for x in r] for r in pivot_rows]
    for i in reversed(range(len(rows))):
        c = pivot_cols[i]
        piv = rows[i][c]
        rows[i] = [x / piv for x in rows[i]]
        for j in range(i):
            f = rows[j][c]
            if f:
                rows[j] = [x - f * y for x, y in zip(rows[j], rows[i])]
    return rows


def _certified_full_column_rank(int_rows: List[List[int]], cols: int) -> bool:
    """True only when full column rank is certain (rank mod p == cols)."""
    if len(int_rows) < cols or cols == 0:
        return cols == 0
    try:
        mat = np.array(int_rows, dtype=np.int64)
    except OverflowError:
        big = np.array(int_rows, dtype=object)
        mat = np.mod(big, CERT_PRIME).astype(np.int64)
    else:
        mat = np.mod(mat, CERT_PRIME)
    return int(rank_mod_p(mat, CERT_PRIME)) == cols


def rank(m) -> int:
    """Rank over the rationals via exact fraction-free elimination."""
    rows, cols = _as_rows(m)
    int_rows = [_clear_denominators(r) for r in rows]
    pivot_cols, _ = _echelon(int_rows)
    return len(pivot_cols)


def kernel_basis(m) -> List[tuple]:
    """Canonical basis of the right kernel {x : Mx = 0}.

    One basis vector per free column of the RREF, in ascending column
    order; entries are Fractions and each vector satisfies Mx = 0 exactly.
    """
    rows, cols = _as_rows(m)
    int_rows = [_clear_denominators(r) for r in rows]
    if _certified_full_column_rank(int_rows, cols):
        return []
    pivot_cols, pivot_rows = _echelon(int_rows)
    rref = _rref(pivot_cols, pivot_rows)
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for i, c in enumerate(pivot_cols):
            vec[c] = -rref[i][free]
        basis.append(tuple(vec))
    return basis


def kernel_dim(m) -> int:
    rows, cols = _as_rows(m)
    int_rows = [_clear_denominators(r) for r in rows]
    if _certified_full_column_rank(int_rows, cols):
        return 0
    pivot_cols, _ = _echelon(int_rows)
    return cols - len(pivot_cols)


def spans_full(vectors: Sequence[Sequence], dim: int) -> bool:
    """True iff the rational span of the vectors is all of Q^dim."""
    vectors = [list(v) for v in vectors]
    for v in vectors:
        if len(v) != dim:
            raise ValueError("vector length does not match dim")
    if dim == 0:
        return True
    if len(vectors) < dim:
        return False
    int_rows = [_clear_denominators(r) for r in vectors]
    if _certified_full_column_rank(int_rows, dim):
        return True
    pivot_cols, _ = _echelon(int_rows)
    return len(pivot_cols) == dim


def integerize(vec: Sequence) -> tuple:
    """Primitive integer vector: positive multiple, gcd 1, leading entry > 0."""
    vals = [x if isinstance(x, Fraction) else Fraction(x) for x in vec]
    if all(x == 0 for x in vals):
        raise ValueError("cannot integerize the zero vector")
    mult = 1
    for x in vals:
        mult = mult * x.denominator // gcd(mult, x.denominator)
    ints = [int(x * mult) for x in vals]
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
    if not a and not b:
        return True
    if not a:
        return all(not any(r) for r in b)
    if not b:
        return all(not any(r) for r in a)
    ra, rb = rank(a), rank(b)
    return ra == rb == rank(a + b)

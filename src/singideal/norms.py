"""Floating-point operator norms for finite groupoid convolution algebras
and the finite-scale norm equation for restriction to a unit subset.

On a finite discrete unit space the approximate unit supported off a unit
subset X is eventually the exact indicator of the complement, so the
norm-equation limit collapses to a single evaluation: the reduced norm of
the compression p a p (p the indicator of the identity arrows over X)
must equal the reduced norm of the restriction of a to the reduction
groupoid over X.

Every operator norm is the square root of the top eigenvalue of a Gram
matrix, from one symmetric eigensolve at every dimension.  Norms are
evaluated for a batch of functions at once, and every float block goes
through one gather routine, ``_block_tops``: d x d blocks, given by their
column indices, are gathered into C-contiguous (functions, blocks, d, d)
chunks of at most ``NORM_BATCH`` entries (or one block), split over
blocks first and then over functions, each taking one Gram product and
one batched eigensolve.  A reduced norm gathers every index stack the
groupoid tabulated at construction (the left-regular blocks of all units
of one dimension).  The gather must be contiguous: a strided gather sends
the Gram product down another matmul kernel, whose results differ in the
last bits.

The norm equation is evaluated on a ``NormBlock``: a batch of functions
as integer rows over one denominator, converted once to floats, for a
list of unit subsets at once.  ``normcheck`` draws its trials as such rows
(``sampling.random_numerators``); functions in hand go through
``exact.integer_rows`` first.  No arrow joins two orbits, so a subset X
is the disjoint union of its parts S = X ∩ O, one per orbit O it meets,
and all the work is done once per distinct part.
The reduction over X is the disjoint union of the reductions over its
parts, each unit's block the same matrix in the same row order, and
p_X f p_X is the sum of the p_S f p_S.  For each part the reduction
groupoid is built once; p f p for the whole block is two ``convolve_rows``
calls with the unit-indicator row, checked exactly to be the block's rows
masked to the reduction's arrows, and the part's left side reads the
block's floats gathered onto the reduction.  On the right, entry (g, h) of
the block of p f p at a unit v survives iff r(g) and r(h) lie in X, and
both lie in reach(v), the ranges of the arrows out of v, which is v's
orbit; so the block is one matrix for every X with the same part
X ∩ reach(v).  For an arrow t: v -> u, g -> g t maps the arrows out of u
onto the arrows out of v, keeping ranges, and (g t)(h t)^-1 = g h^-1: the
block at v is the block at u with rows and columns permuted, for every f
and every part.  ``_check_translates`` checks that exactly on the integer
index blocks, once per call and before any float is compared, so each part
S takes one eigensolve, at its key: the least unit of S's orbit outside S,
or S[0] when S is the whole orbit.  Outside S the key's block is a
permuted, zero-padded copy of a reduction block, so the float residual
still compares two different eigensolves.  A subset's left side is the
largest over its parts, and its right side the largest over its parts'
keys.  The bits are those of one reduction over X and, at each key, of
``spectral_norm`` of ``regular_rep_matrix`` of p f p: each block is that
matrix entry for entry, +0.0 where masked (its index is -1, which reads a
+0.0 column appended to the floats), in a C-contiguous chunk; matmul and
eigvalsh act matrix by matrix; and sqrt is monotone and max exact.  Floats
are always float(Fraction), correctly rounded: numerator rows are divided
in float64 only when the numerators and the denominator are below 2^53,
and as Python ints otherwise.  The Gram product squares every entry, so
a float norm takes a row or matrix only when its largest |entry| is 0 or
in [2^-480, 2^480], where max^2 <= top <= (entries) max^2 keeps the top
eigenvalue a normal float: ``spectral_norm`` checks its whole input and
the Python-int division checks each row exactly, before dividing, and
both raise ValueError outside it.  A row divided in float64 has its
largest |entry| in [2^-53, 2^53] already.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Sequence

import numpy as np

from .exact import _max_abs, integer_rows
from .groupoid import (FiniteGroupoid, GroupoidFunction, convolve_rows,
                       function_from_row, reduction_groupoid)
from .groups import FiniteGroup, SizeCapError, SubgroupFamily
from .ideals import InternalInconsistencyError

# integers below this in magnitude convert to float64 exactly
EXACT_FLOAT_INT = 2 ** 53

# a float norm takes a largest |entry| of 0 or in [2^-480, 2^480], where
# the Gram product's top eigenvalue stays a normal float
FLOAT_RANGE_BITS = 480

# entries gathered per batched eigensolve chunk (a block larger than this
# is a chunk of its own); the CLI also draws its normcheck trial functions
# in blocks of at most this many values
NORM_BATCH = 1 << 14

# sum of d^3 over the d x d blocks one normcheck trial eigensolves.  One
# trial as a process on a 2-CPU x86 machine: C2^7 minimal 6.7e7 in
# 0.5-1.0 s, S5 minimal 4.9e7 in 0.7 s, D50 minimal 8.8e7 in 1.2 s, D70
# minimal 4.6e8 in 2.6 s, C2000 {[0]} 1.6e10 in 1.9 s, D100 minimal 2.65e9
# in 3.4-4.1 s at 50 MiB.  D200 minimal and C5040 {[0]} need 8.2e10 and
# 2.6e11.
NORMCHECK_WORK_CAP = 2 * 10 ** 10


def _out_of_range(exponent: int) -> ValueError:
    return ValueError(f"largest |entry| about 2^{exponent} is outside the float norm "
                      f"range [2^-{FLOAT_RANGE_BITS}, 2^{FLOAT_RANGE_BITS}]")


def _row_floats(nums: np.ndarray, den: int) -> np.ndarray:
    """nums / den as float64, each entry correctly rounded: one float64
    division when both operands convert exactly, else Python int division,
    after checking exactly that every non-zero row's largest |entry| lies in
    the float norm range (in the float64 branch it lies in [2^-53, 2^53])."""
    if (nums.dtype == np.int64 and den < EXACT_FLOAT_INT
            and _max_abs(nums) < EXACT_FLOAT_INT):
        return nums.astype(np.float64) / float(den)
    rows = nums.tolist()
    for row in rows:
        top = max(map(abs, row), default=0)
        if top and not (den <= top << FLOAT_RANGE_BITS and top <= den << FLOAT_RANGE_BITS):
            raise _out_of_range(top.bit_length() - den.bit_length())
    return np.array([[n / den for n in row] for row in rows],
                    dtype=np.float64).reshape(nums.shape)


class NormBlock(NamedTuple):
    """A batch of functions as integer rows over one denominator, and as floats."""

    numerators: np.ndarray
    floats: np.ndarray


def norm_block(nums: np.ndarray, den: int) -> NormBlock:
    """The integer rows ``nums`` over ``den`` with their floats, for
    ``block_residuals``."""
    return NormBlock(nums, _row_floats(nums, den))


def function_floats(f: GroupoidFunction) -> np.ndarray:
    """The rational values of f as floats, each equal to float(v)."""
    return _row_floats(*integer_rows([f.values]))[0]


def regular_rep_matrix(groupoid: FiniteGroupoid, f: GroupoidFunction,
                       unit: int) -> np.ndarray:
    """Matrix of left convolution by f on the arrows with source ``unit``.

    Basis vectors are the arrows in canonical order; entry (g, h) is
    f(g h^-1).
    """
    if not 0 <= unit < len(groupoid.units):
        raise ValueError(f"unit {unit} not found")
    return function_floats(f)[groupoid._rep_blocks[unit]]


def _gram_tops(a: np.ndarray) -> np.ndarray:
    """Top Gram eigenvalue of every matrix in the stack ``a``."""
    return np.linalg.eigvalsh(np.swapaxes(a, -1, -2) @ a)[..., -1]


def spectral_norm(m) -> float:
    """Largest singular value: the root of the Gram matrix's top eigenvalue.

    ``m`` may also be a stack of matrices (leading axes); the result is
    then the largest norm in the stack, from one batched eigensolve.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.size == 0:
        return 0.0
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    top = np.abs(a).max()
    if top and not 2.0 ** -FLOAT_RANGE_BITS <= top <= 2.0 ** FLOAT_RANGE_BITS:
        raise _out_of_range(math.frexp(top)[1] - 1)
    return math.sqrt(max(float(_gram_tops(a).max()), 0.0))


def _block_tops(floats: np.ndarray, count: int, d: int, index) -> np.ndarray:
    """(functions, count) top Gram eigenvalues of ``count`` d x d blocks of
    the rows of ``floats``, ``index(s)`` the column indices of the blocks
    in the slice s.  The blocks are gathered in C-contiguous chunks of at
    most NORM_BATCH entries (or one block), split over blocks first, then
    over functions; each chunk's indices are built only when it is."""
    tops = np.empty((len(floats), count))
    per = max(1, NORM_BATCH // (d * d))
    for lo in range(0, count, per):
        cols = index(slice(lo, lo + per))
        fs = max(1, NORM_BATCH // cols.size)
        for f in range(0, len(floats), fs):
            # take, not floats[:, cols]: the gather must be C-contiguous
            tops[f:f + fs, lo:lo + per] = _gram_tops(np.take(floats[f:f + fs], cols, axis=1))
    return tops


def _reduced_norms(groupoid: FiniteGroupoid, vals: np.ndarray) -> np.ndarray:
    """Reduced norm of every row of the (functions x arrows) floats ``vals``."""
    tops = np.concatenate([_block_tops(vals, len(stack), stack.shape[-1], stack.__getitem__)
                           for stack in groupoid._rep_stacks], axis=1)
    return np.sqrt(np.maximum(0.0, tops.max(axis=1)))


def reduced_norm(groupoid: FiniteGroupoid, f: GroupoidFunction) -> float:
    """Sup over units of the operator norm of left convolution by f."""
    return float(_reduced_norms(groupoid, function_floats(f)[None])[0])


def _compress(groupoid: FiniteGroupoid, nums: np.ndarray,
              units: Sequence[int]) -> np.ndarray:
    """Integer rows p f p for the rows f of ``nums``, p the indicator of
    the identity arrows over the unit subset."""
    p = np.zeros((1, groupoid.num_arrows()), dtype=np.int64)
    p[0, np.asarray(groupoid.unit_arrows)[list(units)]] = 1
    return convolve_rows(groupoid, p, convolve_rows(groupoid, nums, p))


def compress_to_units(groupoid: FiniteGroupoid, f: GroupoidFunction,
                      units: Sequence[int]) -> GroupoidFunction:
    """p f p for p the indicator of the identity arrows over the unit subset."""
    nums, den = integer_rows([f.values])
    return function_from_row(groupoid, _compress(groupoid, nums, units)[0], den)


def _orbit_labels(sources, ranges, num_units: int) -> np.ndarray:
    """Each unit's orbit, labelled by its least unit: the ranges of the
    arrows (or cosets) with a unit as source are its orbit."""
    label = np.arange(num_units)
    np.minimum.at(label, sources, ranges)
    return label


def _orbit_parts(label: np.ndarray, subsets: Sequence[Sequence[int]]):
    """(keys, members): for each distinct part S = X ∩ O of the sorted
    subsets X over the orbits O (``label`` each unit's orbit), in order of
    first appearance, the pair (v, S) of S and its key v, the least unit
    of S's orbit outside S, or S[0] when S is the whole orbit; and for each
    subset the indices of its parts.  Raises ValueError on a unit out of
    range."""
    n = len(label)
    label = label.tolist()
    parts, members = {}, []
    for units in subsets:
        split = {}
        for u in units:
            if not 0 <= u < n:
                raise ValueError(f"unit {u} out of range")
            split.setdefault(label[u], []).append(u)
        members.append([parts.setdefault(tuple(part), len(parts)) for part in split.values()])
    orbits = {}
    for v in range(n):
        orbits.setdefault(label[v], []).append(v)
    return [(next((v for v in orbits[label[part[0]]] if v not in part), part[0]), part)
            for part in parts], members


def _check_translates(groupoid: FiniteGroupoid, label: np.ndarray) -> None:
    """Check exactly that every unit's index block is its orbit's least
    unit's block, translated (``label`` each unit's orbit).

    For an arrow t: x -> u, g -> g t maps the arrows out of u onto the
    arrows out of x, keeping ranges, and (g t)(h t)^-1 = g h^-1; so the
    block at x, its rows and columns permuted by that map, is the block
    at u entry for entry, and so are their masks to any unit subset.  The
    check requires the products g t to be the arrows out of x, each once,
    and the permuted block to equal the block at u.  Raises
    InternalInconsistencyError naming x and u otherwise.
    """
    for x in np.flatnonzero(label != np.arange(len(label))).tolist():
        u = int(label[x])
        out_of_x = np.asarray(groupoid.arrows_by_source[x])
        t = out_of_x[np.argmax(groupoid._ranges[out_of_x] == u)]
        translates = groupoid.product(np.asarray(groupoid.arrows_by_source[u]), t)
        # the positions of the g t among the (ascending) arrows out of x
        perm = np.searchsorted(out_of_x, translates)
        block = groupoid._rep_blocks[x]
        if not (np.array_equal(np.sort(perm), np.arange(len(out_of_x)))
                and np.array_equal(out_of_x[perm], translates)
                and np.array_equal(block[perm][:, perm], groupoid._rep_blocks[u])):
            raise InternalInconsistencyError(
                f"the block at unit {x} is not the block at unit {u} translated")


def _masked_index(groupoid: FiniteGroupoid, index: np.ndarray, parts) -> np.ndarray:
    """The unit's index block ``index`` once per unit subset S in ``parts``,
    -1 at the entries without source and range in S."""
    # entry (g, h) is the arrow g h^-1, of range r(g) and source r(h);
    # column 0 holds the ranges r(g) of the rows
    inside = np.zeros((len(parts), len(groupoid.units)), dtype=bool)
    for i, part in enumerate(parts):
        inside[i, list(part)] = True
    row = inside[:, groupoid._ranges[index[:, 0]]]
    return np.where(row[:, :, None] & row[:, None, :], index, -1)


def _key_tops(groupoid: FiniteGroupoid, keys, floats: np.ndarray) -> np.ndarray:
    """(functions, keys) top Gram eigenvalues: key (v, S) is the block of
    the ``floats`` at v, zero at the arrows without source and range in S,
    where its index is -1 and reads a +0.0 column appended to the floats."""
    tops = np.empty((len(floats), len(keys)))
    padded = np.concatenate((floats, np.zeros((len(floats), 1))), axis=1)
    by_unit = {}
    for k, (v, _) in enumerate(keys):
        by_unit.setdefault(v, []).append(k)
    for v, ks in by_unit.items():
        index = groupoid._rep_blocks[v]
        tops[:, ks] = _block_tops(padded, len(ks), len(index), lambda s: _masked_index(
            groupoid, index, [keys[k][1] for k in ks[s]]))
    return tops


def block_residuals(groupoid: FiniteGroupoid, subsets: Sequence[Sequence[int]],
                    block: NormBlock) -> List[List[float]]:
    """The norm-equation residual of every function of ``block``, one list
    per unit subset.

    Raises InternalInconsistencyError, before any float is compared,
    unless every unit's index block is its orbit's least unit's block
    translated (``_check_translates``) and, for every subset, p f p
    equals f on the arrows with source and range in the subset and
    vanishes elsewhere, exactly.
    """
    subsets = [sorted(set(units)) for units in subsets]
    if not all(subsets):
        raise ValueError("unit subset must be non-empty")
    # reach(v) is v's orbit
    label = _orbit_labels(groupoid._sources, groupoid._ranges, len(groupoid.units))
    keys, members = _orbit_parts(label, subsets)
    _check_translates(groupoid, label)
    nums, lhs = block.numerators, []
    if not len(nums):
        return [[] for _ in subsets]
    for _, part in keys:
        reduced, kept = reduction_groupoid(groupoid, part)
        masked = np.zeros_like(nums)
        masked[:, kept] = nums[:, kept]
        if not np.array_equal(_compress(groupoid, nums, part), masked):
            raise InternalInconsistencyError(
                f"p f p over units {list(part)} is not f restricted to the reduction")
        lhs.append(_reduced_norms(reduced, block.floats[:, kept]))
    lhs = np.stack(lhs, axis=1)
    # the translates make every unit of a part's orbit one key: its block
    # at each unit is the block at the key, permuted
    rhs = np.sqrt(np.maximum(0.0, _key_tops(groupoid, keys, block.floats)))
    return [np.abs(lhs[:, m].max(axis=1) - rhs[:, m].max(axis=1)).tolist() for m in members]


def norm_equation_residuals(groupoid: FiniteGroupoid, units: Sequence[int],
                            fs: Sequence[GroupoidFunction]) -> List[float]:
    """``verify_norm_equation(groupoid, units, f)`` for every f in ``fs``,
    from one reduction and one batched reduced norm per orbit part."""
    block = norm_block(*integer_rows([f.values for f in fs]))
    return block_residuals(groupoid, [units], block)[0]


def verify_norm_equation(groupoid: FiniteGroupoid, units: Sequence[int],
                         f: GroupoidFunction) -> float:
    """|  ||f restricted to the reduction over X||_r  -  ||p f p||_r  |.

    Every subset of a finite discrete unit space is locally invariant and
    the compression by the terminal approximate unit is exact, so the
    residual is floating-point noise whenever the implementation is right.
    Raises InternalInconsistencyError, before any float is compared, when
    p f p is not exactly f restricted to the reduction.
    """
    return norm_equation_residuals(groupoid, units, [f])[0]


def check_sweep_work(group: FiniteGroup, family: SubgroupFamily) -> int:
    """The work of one normcheck trial (every unit, pair and all units),
    the sum of d^3 over the d x d blocks it eigensolves, counted on the
    coset table before the groupoid is built; raises SizeCapError past
    NORMCHECK_WORK_CAP.

    The ranges of the cosets of X_u are u's orbit O of k units, c = d_u / k
    at each.  The p f p side takes one block of O's dimension d_u per
    distinct part X ∩ O, once per orbit: k singletons, k(k-1)/2 pairs and,
    for k >= 3, O.  The reduction to each distinct part S = X ∩ O with u
    in S has the block c |S| at u: {u}, the k - 1 pairs in O and, for
    k >= 3, O.
    """
    d = (group.order // np.array([len(sub) for sub in family.members])).tolist()
    n = len(d)
    label = _orbit_labels(np.repeat(np.arange(n), d), family.cosets.ranges, n)
    work = 0
    for u, (d_u, k) in enumerate(zip(d, np.bincount(label, minlength=n)[label].tolist())):
        if label[u] == u:
            work += (k + k * (k - 1) // 2 + (k >= 3)) * d_u ** 3
        work += (d_u // k) ** 3 * (1 + 8 * (k - 1)) + (d_u ** 3 if k >= 3 else 0)
    if work > NORMCHECK_WORK_CAP:
        raise SizeCapError(
            f"the coset groupoid of {group.name} has {sum(d)} arrows and blocks of "
            f"dimension up to {max(d)}: a normcheck trial eigensolves blocks of "
            f"sum d^3 = {work:.2g}, over the cap {NORMCHECK_WORK_CAP:.2g}")
    return work

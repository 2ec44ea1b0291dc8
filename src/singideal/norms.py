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
through one gather routine, ``_block_norms``: d x d blocks, given by a
(blocks, d, d) stack of column indices, are gathered into C-contiguous
(functions, blocks, d, d) chunks of at most ``NORM_BATCH`` entries (or
one block), split over blocks first and then over functions, each taking
one Gram product and one batched eigensolve.  The root is taken in one
place, ``_gram_norms``, per matrix and clamped at 0; sqrt is correctly
rounded and monotone, so the largest root is the root of the largest top
eigenvalue, bit for bit.  A reduced norm gathers
every index stack the groupoid tabulated at construction (the
left-regular blocks of all units of one dimension).  The gather must be
contiguous: a strided gather sends the Gram product down another matmul
kernel, whose results differ in the last bits.

The norm equation is evaluated by ``block_residuals`` on a batch of
functions, given as integer rows over one denominator and converted once
to floats, for a list of unit subsets at once.  ``norm_sweep`` is the
whole ``normcheck`` sweep: it draws its trials as such rows
(``sampling.random_numerators``) over the subsets of ``unit_subsets``;
functions in hand go through ``exact.integer_rows`` first.  No arrow
joins two orbits, so a subset X is the disjoint union of its parts
S = X ∩ O, one per orbit O it meets, and all the work is done once per
distinct part.
The reduction over X is the disjoint union of the reductions over its
parts, each unit's block the same matrix in the same row order, and
p_X f p_X is the sum of the p_S f p_S.  For each part the reduction
groupoid is built once; p f p for the whole batch is two ``convolve_rows``
calls with the unit-indicator row, checked exactly to be the batch's rows
masked to the reduction's arrows, and the part's left side reads the
batch's floats gathered onto the reduction.  On the right, entry (g, h) of
the block of p f p at a unit v reads the arrow g h^-1, of range r(g) and
source r(h); it survives iff the reduction keeps that arrow, that is iff
r(g) and r(h) lie in X, and both lie in reach(v), the ranges of the
arrows out of v, which is v's orbit; so the block is one matrix for every
X with the same part X ∩ reach(v).  For an arrow t: v -> u, g -> g t
maps the arrows out of u onto the arrows out of v, keeping ranges, and
(g t)(h t)^-1 = g h^-1: the block at v is the block at u with rows and
columns permuted, for every f and every part.  ``_check_translates`` checks that exactly on the integer
index blocks, once per call and before any float is compared, so each part
S takes one eigensolve, at its key: the least unit of S's orbit outside S,
or S[0] when S is the whole orbit.  Outside S the key's block is a
permuted, zero-padded copy of a reduction block, so the float residual
still compares two different eigensolves.  A subset's left side is the
largest over its parts, and its right side the largest over its parts'
keys.  The bits are those of one reduction over X and, at each key, of
``spectral_norm`` of ``regular_rep_matrix`` of p f p: each block, p f p's
floats (+0.0 off the reduction) at the key's index block, is that matrix
entry for entry, in a C-contiguous chunk; matmul and eigvalsh act matrix
by matrix; and sqrt is monotone and max exact.  Floats are always
float(Fraction), correctly rounded: numerator rows are divided
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

import itertools
import math
import random
from decimal import ROUND_CEILING, Context
from typing import List, Sequence

import numpy as np

from .exact import _max_abs, integer_rows
from .groupoid import (FiniteGroupoid, GroupoidFunction, _check_range, _invariant_cosets,
                       convolve_rows, function_from_row, reduction_groupoid)
from .groups import FiniteGroup, SizeCapError, SubgroupFamily
from .ideals import InternalInconsistencyError
from .sampling import DENOMINATOR, random_numerators

# integers below this in magnitude convert to float64 exactly
EXACT_FLOAT_INT = 2 ** 53

# a float norm takes a largest |entry| of 0 or in [2^-480, 2^480], where
# the Gram product's top eigenvalue stays a normal float
FLOAT_RANGE_BITS = 480

# entries gathered per batched eigensolve chunk (a block larger than this
# is a chunk of its own); ``norm_sweep`` also draws its trial functions in
# blocks of at most this many values
NORM_BATCH = 1 << 14

# sum of d^3 over the d x d blocks one normcheck trial eigensolves.  One
# trial as a process on a 2-CPU x86 machine: C2^7 minimal 6.7e7 in
# 0.5-1.0 s, S5 minimal 4.9e7 in 0.7 s, D50 minimal 8.8e7 in 1.2 s, D70
# minimal 4.6e8 in 2.6 s, C2000 {[0]} 1.6e10 in 1.9 s, D100 minimal 2.65e9
# in 3.4-4.1 s at 50 MiB.  D200 minimal and C5040 {[0]} need 8.2e10 and
# 2.6e11.  ``check_sweep_work`` caps a whole run at trials x max(trial's
# work, NORMCHECK_TRIAL_FLOOR): a trial costs at least its draw and bookkeeping,
# 6.4-8.3 us in process on C6 {[0,3]} (work 54) over 10^5-10^6 trials,
# which D100 minimal's 1.3 ns per unit (3.4 s for 2.65e9) prices at 5000.
NORMCHECK_WORK_CAP = 2 * 10 ** 10
NORMCHECK_TRIAL_FLOOR = 5000


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


def function_floats(f: GroupoidFunction) -> np.ndarray:
    """The rational values of f as floats, each equal to float(v)."""
    return _row_floats(*integer_rows([f.values]))[0]


def regular_rep_matrix(groupoid: FiniteGroupoid, f: GroupoidFunction,
                       unit: int) -> np.ndarray:
    """Matrix of left convolution by f on the arrows with source ``unit``.

    Basis vectors are the arrows in canonical order; entry (g, h) is
    f(g h^-1).
    """
    _check_range([unit], len(groupoid.units), "unit")
    return function_floats(f)[groupoid._rep_blocks[unit]]


def _gram_norms(a: np.ndarray) -> np.ndarray:
    """Operator norm of every matrix in the stack ``a``: the root of its
    Gram matrix's top eigenvalue, clamped at 0."""
    return np.sqrt(np.maximum(0.0, np.linalg.eigvalsh(np.swapaxes(a, -1, -2) @ a)[..., -1]))


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
    return float(_gram_norms(a).max())


def _block_norms(floats: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """(functions, blocks) operator norms of the d x d blocks of the
    rows of ``floats`` whose column indices are the (blocks, d, d) index
    ``stack``.  The blocks are gathered in C-contiguous chunks of at most
    NORM_BATCH entries (or one block), split over blocks first, then over
    functions."""
    count, d = len(stack), stack.shape[-1]
    norms = np.empty((len(floats), count))
    per = max(1, NORM_BATCH // (d * d))
    for lo in range(0, count, per):
        cols = stack[lo:lo + per]
        fs = max(1, NORM_BATCH // cols.size)
        for f in range(0, len(floats), fs):
            # take, not floats[:, cols]: the gather must be C-contiguous
            norms[f:f + fs, lo:lo + per] = _gram_norms(np.take(floats[f:f + fs], cols, axis=1))
    return norms


def _reduced_norms(groupoid: FiniteGroupoid, vals: np.ndarray) -> np.ndarray:
    """Reduced norm of every row of the (functions x arrows) floats ``vals``."""
    return np.hstack([_block_norms(vals, stack) for stack in groupoid._rep_stacks]).max(axis=1)


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
    _check_range(units, len(groupoid.units), "unit")
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
        _check_range(units, n, "unit")
        split = {}
        for u in units:
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


def block_residuals(groupoid: FiniteGroupoid, subsets: Sequence[Sequence[int]],
                    nums: np.ndarray, den: int) -> List[List[float]]:
    """The norm-equation residual of every function whose integer row over
    ``den`` is a row of ``nums``, one list per unit subset.

    Raises InternalInconsistencyError, before any float is compared,
    unless every unit's index block is its orbit's least unit's block
    translated (``_check_translates``) and, for every subset, p f p
    equals f on the arrows with source and range in the subset and
    vanishes elsewhere, exactly.
    """
    floats = _row_floats(nums, den)
    subsets = [sorted(set(units)) for units in subsets]
    if not all(subsets):
        raise ValueError("unit subset must be non-empty")
    # reach(v) is v's orbit
    label = _orbit_labels(groupoid._sources, groupoid._ranges, len(groupoid.units))
    keys, members = _orbit_parts(label, subsets)
    _check_translates(groupoid, label)
    if not len(nums):
        return [[] for _ in subsets]
    lhs, kepts = [], []
    for _, part in keys:
        reduced, kept = reduction_groupoid(groupoid, part)
        kept = np.asarray(kept, dtype=np.intp)
        masked = np.zeros_like(nums)
        masked[:, kept] = nums[:, kept]
        if not np.array_equal(_compress(groupoid, nums, part), masked):
            raise InternalInconsistencyError(
                f"p f p over units {list(part)} is not f restricted to the reduction")
        lhs.append(_reduced_norms(reduced, floats[:, kept]))
        kepts.append(kept)
    lhs = np.stack(lhs, axis=1)
    # the translates make every unit of a part's orbit one key: its block
    # at each unit is the block at the key, permuted.  p f p's floats are
    # the part's kept floats and +0.0 elsewhere, gathered at the key's
    # block; interleaved with the reductions loop, these eigensolves made
    # D100 minimal's call 20-30% slower
    pfp, rhs = np.zeros_like(floats), np.empty_like(lhs)
    for k, ((v, _), kept) in enumerate(zip(keys, kepts)):
        pfp[:, kept] = floats[:, kept]
        rhs[:, k] = _block_norms(pfp, groupoid._rep_blocks[v][None])[:, 0]
        pfp[:, kept] = 0.0
    return [np.abs(lhs[:, m].max(axis=1) - rhs[:, m].max(axis=1)).tolist() for m in members]


def norm_equation_residuals(groupoid: FiniteGroupoid, units: Sequence[int],
                            fs: Sequence[GroupoidFunction]) -> List[float]:
    """``verify_norm_equation(groupoid, units, f)`` for every f in ``fs``,
    from one reduction and one batched reduced norm per orbit part."""
    return block_residuals(groupoid, [units], *integer_rows([f.values for f in fs]))[0]


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


def unit_subsets(num_units: int):
    """The configured subset list: singletons, pairs, and all units."""
    subsets = [[u] for u in range(num_units)]
    subsets.extend([list(c) for c in itertools.combinations(range(num_units), 2)])
    # all units is a subset of its own once it is neither a singleton nor a pair
    if num_units >= 3:
        subsets.append(list(range(num_units)))
    return subsets


def norm_sweep(groupoid: FiniteGroupoid, trials: int, seed: int) -> tuple:
    """(subsets, maxima): the ``unit_subsets`` of the groupoid's units and
    each subset's largest norm-equation residual over ``trials`` functions.

    The functions are drawn in seed order as integer rows over
    ``sampling.DENOMINATOR`` (``sampling.random_numerators``), a block of
    at most NORM_BATCH values at a time, and each block takes one
    ``block_residuals`` call, so each orbit part's reduction is built once
    per block.
    """
    rng = random.Random(seed)
    subsets = unit_subsets(len(groupoid.units))
    maxima = [0.0] * len(subsets)
    size = max(1, NORM_BATCH // groupoid.num_arrows())
    for start in range(0, trials, size):
        nums = random_numerators(rng, min(size, trials - start), groupoid.num_arrows())
        residuals = block_residuals(groupoid, subsets, nums, DENOMINATOR)
        maxima = [max(top, *found) for top, found in zip(maxima, residuals)]
    return subsets, maxima


def check_sweep_work(group: FiniteGroup, family: SubgroupFamily, trials: int) -> int:
    """The work of one ``norm_sweep`` trial (every ``unit_subsets`` subset),
    the sum of d^3 over the d x d blocks it eigensolves, counted on the
    coset table before the groupoid is built: the whole admission rule of
    a normcheck run.  Raises SizeCapError when ``trials`` trials, each
    priced at its work or NORMCHECK_TRIAL_FLOOR, whichever is more, pass
    NORMCHECK_WORK_CAP.  As ``build_coset_groupoid`` does, it raises
    SizeCapError, from the member sizes before the coset table is built,
    when the groupoid's regular index blocks would pass
    ``groupoid.ENTRY_CAP`` entries, and ValueError when a conjugate of a
    member is not a member.

    The ranges of the cosets of X_u are u's orbit O of k units, c = d_u / k
    at each.  The p f p side takes one block of O's dimension d_u per
    distinct part X ∩ O, once per orbit: the singletons, pairs and all
    units of ``unit_subsets`` meet O in k singletons, k(k-1)/2 pairs and,
    for k >= 3, O (a pair across two orbits meets each in a singleton).
    The reduction to each distinct part S = X ∩ O with u in S has the
    block c |S| at u: {u}, the k - 1 pairs in O and, for k >= 3, O.
    """
    table, sources, d = _invariant_cosets(group, family)
    n = len(d)
    label = _orbit_labels(sources, table.ranges, n)
    work = 0
    for u, (d_u, k) in enumerate(zip(d, np.bincount(label, minlength=n)[label].tolist())):
        if label[u] == u:
            work += (k + k * (k - 1) // 2 + (k >= 3)) * d_u ** 3
        work += (d_u // k) ** 3 * (1 + 8 * (k - 1)) + (d_u ** 3 if k >= 3 else 0)
    run = trials * max(work, NORMCHECK_TRIAL_FLOOR)
    if run > NORMCHECK_WORK_CAP:
        try:
            cost = f"{run:.2g}"
        except OverflowError:  # past float range: Decimal's form, rounded up
            cost = f"{Context(prec=2, rounding=ROUND_CEILING).create_decimal(run):.2g}"
        raise SizeCapError(
            f"the coset groupoid of {group.name} has {sum(d)} arrows and blocks of "
            f"dimension up to {max(d)}: a normcheck trial eigensolves blocks of "
            f"sum d^3 = {work:.2g}, priced at least {NORMCHECK_TRIAL_FLOOR}, so "
            f"--trials {trials} costs {cost}, over the cap {NORMCHECK_WORK_CAP:.2g}")
    return work

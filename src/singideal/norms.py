"""Floating-point operator norms for finite groupoid convolution algebras
and the finite-scale norm equation for restriction to a unit subset.

On a finite discrete unit space the approximate unit supported off a unit
subset X is eventually the exact indicator of the complement, so the
norm-equation limit collapses to a single evaluation: the reduced norm of
the compression p a p (p the indicator of the identity arrows over X)
must equal the reduced norm of the restriction of a to the reduction
groupoid over X.

Every operator norm is the square root of the top eigenvalue of a Gram
matrix, from one symmetric eigensolve at every dimension.  Reduced norms
are evaluated for a batch of functions at once: every index stack the
groupoid tabulated at construction (the left-regular blocks of all units
of one dimension) is gathered for a chunk of functions into one
C-contiguous (functions, units, d, d) array, capped at ``NORM_BATCH``
entries, which takes one Gram product and one batched eigensolve.  The
gather must be contiguous: a strided gather sends the Gram product down
another matmul kernel, whose results differ in the last bits.

The norm equation is evaluated on a ``NormBlock``: a batch of functions
converted once to integer rows over one denominator (``exact.integer_rows``)
and once to floats.  For each unit subset the reduction groupoid is built
once; p f p for the whole block is two ``convolve_rows`` calls with the
unit-indicator row, checked exactly to be the block's rows masked to the
reduction's arrows, so both sides read the block's floats, masked or
gathered.  Floats are always float(Fraction), correctly rounded: numerator
rows are divided in float64 only when the numerators and the denominator
are below 2^53, and as Python ints otherwise.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Sequence

import numpy as np

from .exact import EXACT_FLOAT_INT, _max_abs, integer_rows
from .groupoid import (FiniteGroupoid, GroupoidFunction, convolve_rows,
                       function_from_row, reduction_groupoid)
from .ideals import InternalInconsistencyError

# entries gathered per batched eigensolve chunk; the CLI also draws its
# normcheck trial functions in blocks of at most this many values
NORM_BATCH = 1 << 14


def _row_floats(nums: np.ndarray, den: int) -> np.ndarray:
    """nums / den as float64, each entry correctly rounded: one float64
    division when both operands convert exactly, else Python int division."""
    if (nums.dtype == np.int64 and den < EXACT_FLOAT_INT
            and _max_abs(nums) < EXACT_FLOAT_INT):
        return nums.astype(np.float64) / float(den)
    return np.array([n / den for n in nums.ravel().tolist()],
                    dtype=np.float64).reshape(nums.shape)


class NormBlock(NamedTuple):
    """A batch of functions as integer rows over one denominator, and as floats."""

    numerators: np.ndarray
    denominator: int
    floats: np.ndarray


def norm_block(fs: Sequence[GroupoidFunction]) -> NormBlock:
    """The functions ``fs`` converted once, for ``block_residuals``."""
    nums, den = integer_rows([f.values for f in fs])
    return NormBlock(nums, den, _row_floats(nums, den))


def function_floats(f: GroupoidFunction) -> np.ndarray:
    """The rational values of f as floats, each equal to float(v)."""
    return norm_block([f]).floats[0]


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
    return math.sqrt(max(float(_gram_tops(a).max()), 0.0))


def _reduced_norms(groupoid: FiniteGroupoid, vals: np.ndarray) -> List[float]:
    """Reduced norm of every row of the (functions x arrows) floats
    ``vals``, stack by stack in chunks."""
    tops = np.zeros(len(vals))
    for stack in groupoid._rep_stacks:
        per = max(1, NORM_BATCH // stack.size)
        for start in range(0, len(vals), per):
            # take, not vals[:, stack]: the gather must be C-contiguous
            chunk = np.take(vals[start:start + per], stack, axis=1)
            part = tops[start:start + per]
            np.maximum(part, _gram_tops(chunk).max(axis=-1), out=part)
    return np.sqrt(tops).tolist()


def reduced_norm(groupoid: FiniteGroupoid, f: GroupoidFunction) -> float:
    """Sup over units of the operator norm of left convolution by f."""
    return _reduced_norms(groupoid, function_floats(f)[None])[0]


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


def block_residuals(groupoid: FiniteGroupoid, units: Sequence[int],
                    block: NormBlock) -> List[float]:
    """The norm-equation residual of every function of ``block``.

    Raises InternalInconsistencyError unless p f p equals f on the arrows
    with source and range in the subset and vanishes elsewhere, exactly.
    """
    units = sorted(set(units))
    if not units:
        raise ValueError("unit subset must be non-empty")
    reduced, kept = reduction_groupoid(groupoid, units)
    nums = block.numerators
    if not len(nums):
        return []
    outside = np.ones(groupoid.num_arrows(), dtype=bool)
    outside[kept] = False
    if not np.array_equal(_compress(groupoid, nums, units), np.where(outside, 0, nums)):
        raise InternalInconsistencyError(
            f"p f p over units {units} is not f restricted to the reduction")
    lhs = _reduced_norms(reduced, block.floats[:, kept])
    # p f p is f masked to the kept arrows, and so are its floats
    rhs = _reduced_norms(groupoid, np.where(outside, 0.0, block.floats))
    return [abs(a - b) for a, b in zip(lhs, rhs)]


def norm_equation_residuals(groupoid: FiniteGroupoid, units: Sequence[int],
                            fs: Sequence[GroupoidFunction]) -> List[float]:
    """``verify_norm_equation(groupoid, units, f)`` for every f in ``fs``,
    from one reduction and one batched reduced norm per side."""
    return block_residuals(groupoid, units, norm_block(fs))


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

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
are evaluated for a batch of functions at once: each function is
converted to floats once, and every index stack the groupoid tabulated at
construction (the left-regular blocks of all units of one dimension) is
gathered for a chunk of functions into one C-contiguous
(functions, units, d, d) array, capped at ``NORM_BATCH`` entries, which
takes one Gram product and one batched eigensolve.  The gather must be
contiguous: a strided gather sends the Gram product down another matmul
kernel, whose results differ in the last bits.  The norm equation is
evaluated one unit subset at a time over such a batch, so the reduction
groupoid is built once per subset, not once per function.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from .groupoid import (FiniteGroupoid, GroupoidFunction, convolve,
                       reduction_groupoid, restrict_function, unit_indicator)

# entries gathered per batched eigensolve chunk; the CLI also draws its
# normcheck trial functions in blocks of at most this many values
NORM_BATCH = 1 << 14


def function_floats(f: GroupoidFunction) -> np.ndarray:
    """The rational values of f as floats (numerator / denominator is
    float(v), correctly rounded, without the Fraction method call)."""
    return np.array([v.numerator / v.denominator for v in f.values],
                    dtype=np.float64)


def _padded_floats(groupoid: FiniteGroupoid,
                   fs: Sequence[GroupoidFunction]) -> np.ndarray:
    """(functions, arrows + 1) float values; column -1 = undefined product."""
    vals = np.zeros((len(fs), groupoid.num_arrows() + 1))
    for row, f in zip(vals, fs):
        row[:-1] = function_floats(f)
    return vals


def regular_rep_matrix(groupoid: FiniteGroupoid, f: GroupoidFunction,
                       unit: int) -> np.ndarray:
    """Matrix of left convolution by f on the arrows with source ``unit``.

    Basis vectors are the arrows in canonical order; entry (g, h) is
    f(g h^-1).
    """
    if not 0 <= unit < len(groupoid.units):
        raise ValueError(f"unit {unit} not found")
    return _padded_floats(groupoid, [f])[0][groupoid._rep_blocks[unit]]


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


def _reduced_norms(groupoid: FiniteGroupoid,
                   fs: Sequence[GroupoidFunction]) -> List[float]:
    """Reduced norm of every function in ``fs``, stack by stack in chunks."""
    vals = _padded_floats(groupoid, fs)
    tops = np.zeros(len(fs))
    for stack in groupoid._rep_stacks:
        per = max(1, NORM_BATCH // stack.size)
        for start in range(0, len(fs), per):
            # take, not vals[:, stack]: the gather must be C-contiguous
            chunk = np.take(vals[start:start + per], stack, axis=1)
            part = tops[start:start + per]
            np.maximum(part, _gram_tops(chunk).max(axis=-1), out=part)
    return np.sqrt(tops).tolist()


def reduced_norm(groupoid: FiniteGroupoid, f: GroupoidFunction) -> float:
    """Sup over units of the operator norm of left convolution by f."""
    return _reduced_norms(groupoid, [f])[0]


def compress_to_units(groupoid: FiniteGroupoid, f: GroupoidFunction,
                      units: Sequence[int]) -> GroupoidFunction:
    """p f p for p the indicator of the identity arrows over the unit subset."""
    p = unit_indicator(groupoid, units)
    return convolve(groupoid, p, convolve(groupoid, f, p))


def norm_equation_residuals(groupoid: FiniteGroupoid, units: Sequence[int],
                            fs: Sequence[GroupoidFunction]) -> List[float]:
    """``verify_norm_equation(groupoid, units, f)`` for every f in ``fs``,
    from one reduction and one batched reduced norm per side."""
    units = sorted(set(units))
    if not units:
        raise ValueError("unit subset must be non-empty")
    reduced, kept = reduction_groupoid(groupoid, units)
    lhs = _reduced_norms(reduced, [restrict_function(reduced, kept, f) for f in fs])
    rhs = _reduced_norms(groupoid, [compress_to_units(groupoid, f, units) for f in fs])
    return [abs(a - b) for a, b in zip(lhs, rhs)]


def verify_norm_equation(groupoid: FiniteGroupoid, units: Sequence[int],
                         f: GroupoidFunction) -> float:
    """|  ||f restricted to the reduction over X||_r  -  ||p f p||_r  |.

    Every subset of a finite discrete unit space is locally invariant and
    the compression by the terminal approximate unit is exact, so the
    residual is floating-point noise whenever the implementation is right.
    """
    return norm_equation_residuals(groupoid, units, [f])[0]

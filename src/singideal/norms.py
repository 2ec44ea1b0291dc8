"""Floating-point operator norms for finite groupoid convolution algebras
and the finite-scale norm equation for restriction to a unit subset.

On a finite discrete unit space the approximate unit supported off a unit
subset X is eventually the exact indicator of the complement, so the
norm-equation limit collapses to a single evaluation: the reduced norm of
the compression p a p (p the indicator of the identity arrows over X)
must equal the reduced norm of the restriction of a to the reduction
groupoid over X.

Every operator norm is the square root of the top eigenvalue of a Gram
matrix, from one symmetric eigensolve at every dimension.  A reduced norm
converts the function to floats once and gathers every unit's matrix from
the index blocks the groupoid tabulated at construction; units of equal
dimension share one stack and one batched eigensolve.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .groupoid import (FiniteGroupoid, GroupoidFunction, convolve,
                       reduction_groupoid, restrict_function, unit_indicator)


def function_floats(f: GroupoidFunction) -> np.ndarray:
    """The rational values of f as floats (numerator / denominator is
    float(v), correctly rounded, without the Fraction method call)."""
    return np.array([v.numerator / v.denominator for v in f.values],
                    dtype=np.float64)


def _padded_floats(f: GroupoidFunction) -> np.ndarray:
    return np.append(function_floats(f), 0.0)  # index -1 = undefined product


def regular_rep_matrix(groupoid: FiniteGroupoid, f: GroupoidFunction,
                       unit: int) -> np.ndarray:
    """Matrix of left convolution by f on the arrows with source ``unit``.

    Basis vectors are the arrows in canonical order; entry (g, h) is
    f(g h^-1).
    """
    if not 0 <= unit < len(groupoid.units):
        raise ValueError(f"unit {unit} not found")
    return _padded_floats(f)[groupoid._rep_blocks[unit]]


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
    top = np.linalg.eigvalsh(np.swapaxes(a, -1, -2) @ a)[..., -1].max()
    return math.sqrt(max(float(top), 0.0))


def reduced_norm(groupoid: FiniteGroupoid, f: GroupoidFunction) -> float:
    """Sup over units of the operator norm of left convolution by f."""
    vals = _padded_floats(f)
    return max(spectral_norm(vals[stack]) for stack in groupoid._rep_stacks)


def compress_to_units(groupoid: FiniteGroupoid, f: GroupoidFunction,
                      units: Sequence[int]) -> GroupoidFunction:
    """p f p for p the indicator of the identity arrows over the unit subset."""
    p = unit_indicator(groupoid, units)
    return convolve(groupoid, p, convolve(groupoid, f, p))


def verify_norm_equation(groupoid: FiniteGroupoid, units: Sequence[int],
                         f: GroupoidFunction) -> float:
    """|  ||f restricted to the reduction over X||_r  -  ||p f p||_r  |.

    Every subset of a finite discrete unit space is locally invariant and
    the compression by the terminal approximate unit is exact, so the
    residual is floating-point noise whenever the implementation is right.
    """
    units = sorted(set(units))
    if not units:
        raise ValueError("unit subset must be non-empty")
    reduced, kept = reduction_groupoid(groupoid, units)
    lhs = reduced_norm(reduced, restrict_function(reduced, kept, f))
    rhs = reduced_norm(groupoid, compress_to_units(groupoid, f, units))
    return abs(lhs - rhs)

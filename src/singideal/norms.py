"""Floating-point operator norms for finite groupoid convolution algebras
and the finite-scale norm equation for restriction to a unit subset.

On a finite discrete unit space the approximate unit supported off a unit
subset X is eventually the exact indicator of the complement, so the
norm-equation limit collapses to a single evaluation: the reduced norm of
the compression p a p (p the indicator of the identity arrows over X)
must equal the reduced norm of the restriction of a to the reduction
groupoid over X.

Every operator norm is the square root of the top eigenvalue of a Gram
matrix, from one symmetric eigensolve at every dimension.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .groupoid import (FiniteGroupoid, GroupoidFunction, convolve,
                       reduction_groupoid, restrict_function, unit_indicator)


def function_floats(f: GroupoidFunction) -> np.ndarray:
    return np.array([float(v) for v in f.values], dtype=np.float64)


def regular_rep_matrix(groupoid: FiniteGroupoid, f: GroupoidFunction,
                       unit: int) -> np.ndarray:
    """Matrix of left convolution by f on the arrows with source ``unit``.

    Basis vectors are the arrows in canonical order; entry (g, h) is
    f(g h^-1).
    """
    if not 0 <= unit < len(groupoid.units):
        raise ValueError(f"unit {unit} not found")
    arrows = np.array(groupoid.arrows_by_source[unit], dtype=np.int64)
    if arrows.size == 0:
        return np.zeros((0, 0))
    vals = np.append(function_floats(f), 0.0)  # index -1 = undefined product
    idx = groupoid.compose_table[np.ix_(arrows, groupoid.inverse[arrows])]
    return vals[idx]


def spectral_norm(m) -> float:
    """Largest singular value: the root of the Gram matrix's top eigenvalue."""
    a = np.asarray(m, dtype=np.float64)
    if a.size == 0:
        return 0.0
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return math.sqrt(max(float(np.linalg.eigvalsh(a.T @ a)[-1]), 0.0))


def reduced_norm(groupoid: FiniteGroupoid, f: GroupoidFunction) -> float:
    """Sup over units of the operator norm of left convolution by f."""
    return max(spectral_norm(regular_rep_matrix(groupoid, f, u))
               for u in range(len(groupoid.units)))


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

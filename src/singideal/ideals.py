"""Vanishing tests for the singular-ideal analogues of a group with a
subgroup family, integer witnesses, and the intersection-property verdicts.

Two kernels are computed through deliberately separate routes:

* the *algebraic* kernel -- solutions of the coset-sum equations
  sum_{h in gX} a(h) = 0, one linear constraint per distinct coset;
* the *full* kernel -- group-algebra elements annihilated by every
  quasi-regular permutation representation attached to the family,
  assembled entry-by-entry from the representation matrices.

For a finite group the two subspaces coincide; a mismatch is an internal
consistency failure, never a mathematical outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import exact
from .exact import RationalMatrix
from .groups import (FiniteGroup, SubgroupFamily, _is_prime,
                     cosets_of_subgroup, distinct_cosets, minimal_subgroups,
                     subgroup_generated)


class InternalInconsistencyError(RuntimeError):
    """The algebraic and full kernels disagree: an implementation bug."""


class NotAbelianError(ValueError):
    pass


@dataclass(frozen=True)
class GroupAlgebraElement:
    """An exact-coefficient element of the group algebra."""

    group: FiniteGroup
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.group.order:
            raise ValueError("coefficient vector length must equal the group order")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


@dataclass
class IdealReport:
    algebraic_kernel_dim: int
    full_kernel_dim: int
    witness: Optional[GroupAlgebraElement]
    weak_containment: bool
    in_class_I: bool
    ai_verdict: Optional[bool] = None
    cross_checks: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = {"coeffs": [str(int(c)) for c in self.witness.coeffs]}
        return {
            "algebraic_kernel_dim": self.algebraic_kernel_dim,
            "full_kernel_dim": self.full_kernel_dim,
            "witness": witness,
            "weak_containment": self.weak_containment,
            "in_class_I": self.in_class_I,
            "ai_verdict": self.ai_verdict,
            "cross_checks": self.cross_checks,
        }

    @classmethod
    def from_json_dict(cls, data: dict, group: Optional[FiniteGroup] = None) -> "IdealReport":
        witness = None
        if data.get("witness") is not None:
            if group is None:
                raise ValueError("a group is required to rebuild the witness")
            coeffs = tuple(int(c) for c in data["witness"]["coeffs"])
            witness = GroupAlgebraElement(group, coeffs)
        return cls(
            algebraic_kernel_dim=int(data["algebraic_kernel_dim"]),
            full_kernel_dim=int(data["full_kernel_dim"]),
            witness=witness,
            weak_containment=bool(data["weak_containment"]),
            in_class_I=bool(data["in_class_I"]),
            ai_verdict=data.get("ai_verdict"),
            cross_checks=dict(data.get("cross_checks", {})),
        )


def coset_constraint_matrix(group: FiniteGroup, family: SubgroupFamily) -> RationalMatrix:
    """One 0/1 row per distinct coset; the kernel is the algebraic ideal."""
    cosets = distinct_cosets(group, family)
    n = group.order
    rows = []
    for coset in cosets:
        row = [0] * n
        for x in coset.elements:
            row[x] = 1
        rows.append(row)
    return RationalMatrix.from_rows(rows, cols=n)


def algebraic_ideal_kernel(group: FiniteGroup, family: SubgroupFamily) -> List[tuple]:
    """Basis of {a : all coset sums of a over the family vanish}."""
    if not family.members:
        raise ValueError("family must be non-empty")
    return exact.kernel_basis(coset_constraint_matrix(group, family))


def integer_witness(group: FiniteGroup, family: SubgroupFamily) -> Optional[GroupAlgebraElement]:
    """Primitive integer element of the algebraic kernel, or None if trivial."""
    basis = algebraic_ideal_kernel(group, family)
    if not basis:
        return None
    return GroupAlgebraElement(group, exact.integerize(basis[0]))


def check_witness(group: FiniteGroup, family: SubgroupFamily,
                  coeffs: Sequence) -> bool:
    """Exact substitution of the coset-sum constraints; True iff all vanish."""
    for coset in distinct_cosets(group, family):
        if sum(coeffs[x] for x in coset.elements) != 0:
            return False
    return True


def quasi_regular_matrix(group: FiniteGroup, sub: Sequence[int], g: int) -> RationalMatrix:
    """Permutation matrix of g on the left cosets of the subgroup."""
    cosets = cosets_of_subgroup(group, sub)
    index = {c.elements: i for i, c in enumerate(cosets)}
    k = len(cosets)
    rows = [[0] * k for _ in range(k)]
    for j, coset in enumerate(cosets):
        shifted = tuple(sorted(group.mul(g, x) for x in coset.elements))
        rows[index[shifted]][j] = 1
    return RationalMatrix.from_rows(rows, cols=k)


def _stacked_representation_rows(group: FiniteGroup, family: SubgroupFamily) -> np.ndarray:
    """Rows of the linearized map a -> (lambda_X(a))_X, one per matrix entry.

    Row (X, i, j) holds, for each column g, the (i, j) entry of the coset
    permutation matrix of g.  Duplicate rows are removed before
    elimination; the kernel is unchanged.
    """
    n = group.order
    blocks = []
    for sub in family.members:
        cosets = cosets_of_subgroup(group, sub)
        k = len(cosets)
        elem_to_coset = np.empty(n, dtype=np.int64)
        for j, coset in enumerate(cosets):
            for x in coset.elements:
                elem_to_coset[x] = j
        reps = np.array([c.representative for c in cosets], dtype=np.int64)
        # act[g, j] = index of the coset g * (coset j)
        act = elem_to_coset[np.asarray(group.table, dtype=np.int64)[:, reps]]
        rows = np.zeros((k, k, n), dtype=np.int8)
        g_idx = np.arange(n)[:, None]
        j_idx = np.arange(k)[None, :]
        rows[act, j_idx, g_idx] = 1
        blocks.append(rows.reshape(k * k, n))
    stacked = np.concatenate(blocks, axis=0)
    return np.unique(stacked, axis=0)


def full_ideal_kernel(group: FiniteGroup, family: SubgroupFamily) -> List[tuple]:
    """Basis of the joint kernel of the stacked quasi-regular representations."""
    if not family.members:
        raise ValueError("family must be non-empty")
    return exact.kernel_basis(_stacked_representation_rows(group, family))


def weak_containment_regular(group: FiniteGroup, family: SubgroupFamily) -> bool:
    """True iff the stacked quasi-regular representation is faithful on the
    group algebra, i.e. the full kernel is trivial."""
    return len(full_ideal_kernel(group, family)) == 0


def class_I_check(group: FiniteGroup, family: SubgroupFamily) -> IdealReport:
    """Full report with the two-kernel consistency check.

    Raises InternalInconsistencyError when the independently computed
    kernels differ, which for finite groups can only mean a bug.
    """
    algebraic = algebraic_ideal_kernel(group, family)
    full = full_ideal_kernel(group, family)
    dims_equal = len(algebraic) == len(full)
    subspaces_equal = dims_equal and exact.same_subspace(algebraic, full)
    if not subspaces_equal:
        raise InternalInconsistencyError(
            f"kernel mismatch on {group.name}: algebraic dim {len(algebraic)}, "
            f"full dim {len(full)}")
    witness = None
    if algebraic:
        witness = GroupAlgebraElement(group, exact.integerize(algebraic[0]))
    full_dim = len(full)
    report = IdealReport(
        algebraic_kernel_dim=len(algebraic),
        full_kernel_dim=full_dim,
        witness=witness,
        weak_containment=full_dim == 0,
        in_class_I=(full_dim == 0) or (len(algebraic) > 0),
        cross_checks={"kernel_dims_equal": dims_equal,
                      "kernel_subspaces_equal": subspaces_equal},
    )
    return report


def property_AI(group: FiniteGroup) -> IdealReport:
    """Automatic-intersection verdict via the minimal-subgroup span test.

    The verdict is True iff the coset indicators of the non-trivial minimal
    subgroups fail to span the group algebra (equivalently the algebraic
    kernel for that family is non-trivial).  The trivial group has no
    minimal subgroups and is vacuously True.
    """
    family = minimal_subgroups(group)
    if not family.members:
        return IdealReport(0, 0, None, weak_containment=True, in_class_I=True,
                           ai_verdict=True,
                           cross_checks={"minimal_family_empty": True})
    report = class_I_check(group, family)
    report.ai_verdict = report.algebraic_kernel_dim > 0
    return report


def abelian_AI_criterion(group: FiniteGroup) -> bool:
    """For every prime p, at most one subgroup of order p."""
    if not group.is_abelian:
        raise NotAbelianError(f"{group.name} is not abelian")
    per_prime = {}
    for g in range(1, group.order):
        p = group.element_order(g)
        if _is_prime(p):
            per_prime.setdefault(p, set()).add(subgroup_generated(group, (g,)))
    return all(len(subs) <= 1 for subs in per_prime.values())

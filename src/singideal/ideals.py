"""Vanishing tests for the singular-ideal analogues of a group with a
subgroup family, integer witnesses, and the intersection-property verdicts.

Two kernels describe the same subspace of the group algebra:

* the *algebraic* kernel -- solutions of the coset-sum equations
  sum_{h in gX} a(h) = 0, one linear constraint per distinct coset;
* the *full* kernel -- group-algebra elements annihilated by every
  quasi-regular permutation representation attached to the family.

Entry (i, j) of the representation on G/X, as a function of g, is the
indicator of c_i X c_j^-1, a left coset of the conjugate c_j X c_j^-1.
For a conjugation-invariant family the deduplicated entry rows are
therefore exactly the coset rows, so both kernels are the kernel of one
0/1 int8 array scattered from the coset numbering ``groups.coset_index``,
and are computed by one engine, elimination mod a prime
(``exact._integer_kernel``); Fractions appear only in the public
``exact.kernel_basis`` views.  Two checks that can fail
back this up.  ``_check_entry_sets`` confirms the identity above from the
Cayley table and the family's coset table.  It gathers row i = 0 only,
the sets X c_j^-1, and checks that each is a left coset of its range;
row i is the left translate by c_i of row 0, so by associativity it is
a coset of the same range: the library's constructors build associative
tables, and ``groups.cayley_group`` runs Light's test on any other.  A
transversal check, c_i in the coset numbered i, makes column j = 0 the k
cosets of X, so every family coset occurs.  The kernel comes certified:
full column rank mod p proves it trivial, and otherwise
``exact._certify_kernel`` proves that the integer basis read back from
the RREF mod p is the canonical basis of ker M:
M B = 0 exactly, each vector ends at its own free column and is zero at
the others, and d = |G| - r_p, r_p the pivot count of the same pass (the
argument is in the ``exact`` module docstring).  A failure of either
check is an internal consistency failure, never a mathematical outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import exact
from .exact import InternalInconsistencyError, RationalMatrix
from .groups import (GATHER_BLOCK, FiniteGroup, SizeCapError, SubgroupFamily,
                     _prime_mask, coset_index, coset_table, element_orders,
                     minimal_subgroups)

# the int8 coset matrix takes one byte per entry, 128 MiB at the cap
MATRIX_ENTRY_CAP = 2 ** 27


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

    def to_json_dict(self) -> dict:
        """{"coeffs": [...]}, each integer coefficient as a decimal string."""
        return {"coeffs": [str(int(c)) for c in self.coeffs]}


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
        return {
            "algebraic_kernel_dim": self.algebraic_kernel_dim,
            "full_kernel_dim": self.full_kernel_dim,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "weak_containment": self.weak_containment,
            "in_class_I": self.in_class_I,
            "ai_verdict": self.ai_verdict,
            "cross_checks": dict(self.cross_checks),
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


def _coset_matrix(group: FiniteGroup, family: SubgroupFamily) -> np.ndarray:
    """One 0/1 int8 row per distinct coset; raises SizeCapError, before
    allocating, past MATRIX_ENTRY_CAP entries."""
    n = group.order
    cosets = sum(n // len(sub) for sub in family.members)
    if cosets * n > MATRIX_ENTRY_CAP:
        raise SizeCapError(f"the coset matrix of {group.name} needs {cosets} x {n} "
                           f"entries, over the cap {MATRIX_ENTRY_CAP}")
    rows = np.zeros((cosets, n), dtype=np.int8)
    rows[coset_index(group, family), np.arange(n)] = 1
    return rows


def coset_constraint_matrix(group: FiniteGroup, family: SubgroupFamily) -> RationalMatrix:
    """One 0/1 row per distinct coset; the kernel is the algebraic ideal."""
    rows = _coset_matrix(group, family)
    return RationalMatrix(*rows.shape, tuple(rows.ravel().tolist()))


def algebraic_ideal_kernel(group: FiniteGroup, family: SubgroupFamily) -> List[tuple]:
    """Basis of {a : all coset sums of a over the family vanish}, the
    canonical Fraction basis of the coset matrix's kernel.  The coset sums
    are the values of q, so ``groupoid.kernel_of_q_basis`` is this function."""
    return exact.kernel_basis(_coset_matrix(group, family))


def integer_witness(group: FiniteGroup, family: SubgroupFamily) -> Optional[GroupAlgebraElement]:
    """Primitive integer element of the algebraic kernel, or None if trivial."""
    basis = exact._integer_kernel(_coset_matrix(group, family))
    return GroupAlgebraElement(group, tuple(basis[0].tolist())) if len(basis) else None


def _coset_sums(group: FiniteGroup, family: SubgroupFamily, coeffs: Sequence) -> tuple:
    """(sums, d): sums[i] / d is the sum of the rational ``coeffs`` over the
    coset numbered i, from one exact product with the coset matrix."""
    if len(coeffs) != group.order:
        raise ValueError("coefficient vector length must equal the group order")
    nums, den = exact.integer_rows([coeffs])
    return exact.integer_product(_coset_matrix(group, family), nums)[:, 0], den


def check_witness(group: FiniteGroup, family: SubgroupFamily,
                  coeffs: Sequence) -> bool:
    """Exact substitution of the coset-sum constraints; True iff all vanish."""
    return not _coset_sums(group, family, coeffs)[0].any()


def quasi_regular_matrix(group: FiniteGroup, sub: Sequence[int], g: int) -> RationalMatrix:
    """Permutation matrix of g on the left cosets of the subgroup."""
    if not 0 <= g < group.order:
        raise ValueError(f"element {g} out of range for order {group.order}")
    (ids,), reps = SubgroupFamily(group, (tuple(sorted(sub)),)).cosets[:2]
    k = len(reps)
    rows = np.zeros((k, k), dtype=np.int8)
    # column j: g c_j X is the coset numbered ids[g c_j]
    rows[ids[group.table[g, reps]], np.arange(k)] = 1
    return RationalMatrix(k, k, tuple(rows.ravel().tolist()))


def _check_entry_sets(group: FiniteGroup, family: SubgroupFamily) -> None:
    """Confirm that the stacked representation rows are the coset rows.

    For each member X with coset representatives c_0 < c_1 < ..., the
    entry set c_i X c_j^-1 must be a left coset of c_j X c_j^-1, that
    conjugate must be a family member of the size of X, and every family
    coset must occur as some entry set.  Representatives and conjugates (the
    groupoid's ranges) are read from ``groups.coset_table``; the entry sets
    are gathered here, so a wrong range fails: X c_j^-1 is a left coset of
    the true conjugate only.

    Only row i = 0, the sets X c_j^-1, is gathered: |G| entries per member,
    members of one order together, GATHER_BLOCK entries at a time.  Left
    translation maps a left coset a Y to the left coset (c_i a) Y, so by
    associativity row i, c_i (X c_j^-1), is a coset of the conjugate that
    row 0 is a coset of.  Every group the library builds is associative:
    the constructors build associative tables (the tests check each against
    a per-entry loop reference and Light's test), ``cayley_group`` runs
    Light's test on every table from outside, and ``subgroup_as_group``
    takes a sub-table of an associative table.  Coverage is a transversal
    check: c_i lies in the coset numbered start + i, so c_0 lies in X,
    column j = 0 is c_i X, and the k cosets of X all occur there.
    """
    table, inverse, n, members = group.table, group.inverse, group.order, family.members
    index, reps, ranges, _ = coset_table(group, family)
    sizes = np.array([len(sub) for sub in members])
    counts = n // sizes
    starts = np.cumsum(counts) - counts
    step = max(1, GATHER_BLOCK // n)
    for size in sorted(set(sizes.tolist())):
        us = np.flatnonzero(sizes == size)
        subs = np.array([members[u] for u in us]).reshape(len(us), size)
        arrows = starts[us, None] + np.arange(n // size)
        inv_c, owner = inverse[reps[arrows]], ranges[arrows]
        for bad, what in ((owner < 0, "not a family member"),
                          (sizes[owner] != size, "read as a member of another size")):
            if bad.any():
                sub = members[us[np.flatnonzero(bad.any(axis=1))[0]]]
                raise InternalInconsistencyError(
                    f"a conjugate of {list(sub)} in {group.name} is {what}")
        for p in range(0, len(us), step):
            block = slice(p, p + step)
            # entries[., j, :] = X c_j^-1, numbered as cosets of the range of c_j X
            entries = table[subs[block, None, :], inv_c[block, :, None]]
            ids = index[owner[block, :, None], entries]
            bad = (ids != ids[..., :1]).any(axis=(1, 2))
            if bad.any():
                sub = members[us[p + int(np.flatnonzero(bad)[0])]]
                raise InternalInconsistencyError(
                    f"an entry set of the representation on {group.name}/{list(sub)} "
                    f"is not a left coset of its conjugate")
    missing = index[np.repeat(np.arange(len(members)), counts), reps] != np.arange(len(reps))
    if missing.any():
        raise InternalInconsistencyError(
            f"{int(missing.sum())} family cosets of {group.name} are not entry "
            f"sets of the stacked representation")


def full_ideal_kernel(group: FiniteGroup, family: SubgroupFamily) -> List[tuple]:
    """Basis of the joint kernel of the stacked quasi-regular representations.

    The deduplicated entry rows of the representations are the coset rows
    (checked by ``_check_entry_sets``), so this is the canonical basis of
    the kernel of ``coset_constraint_matrix``.
    """
    matrix = _coset_matrix(group, family)
    _check_entry_sets(group, family)
    return exact.kernel_basis(matrix)


def weak_containment_regular(group: FiniteGroup, family: SubgroupFamily) -> bool:
    """True iff the stacked quasi-regular representation is faithful on the
    group algebra, i.e. the full kernel is trivial: the verdict of
    ``class_I_check``, from the same entry-set check and certified kernel."""
    return class_I_check(group, family).weak_containment


def class_I_check(group: FiniteGroup, family: SubgroupFamily) -> IdealReport:
    """Full report from one constraint matrix and its certified kernel.

    Raises InternalInconsistencyError when the entry-set check or the
    kernel certificate fails, which for finite groups can only mean a bug.
    """
    matrix = _coset_matrix(group, family)
    _check_entry_sets(group, family)
    basis = exact._integer_kernel(matrix)
    dim = len(basis)
    witness = GroupAlgebraElement(group, tuple(basis[0].tolist())) if dim else None
    # the certified kernel is both the algebraic and the full kernel, so
    # either it is trivial (weak containment) or it holds a witness
    return IdealReport(
        algebraic_kernel_dim=dim,
        full_kernel_dim=dim,
        witness=witness,
        weak_containment=dim == 0,
        in_class_I=True,
        cross_checks={"kernel_dims_equal": True,
                      "kernel_subspaces_equal": True},
    )


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
    """For every prime p, at most one subgroup of order p.

    Distinct subgroups of order p meet in the identity and each holds p - 1
    elements of order p, so this is a count: at most p - 1 such elements.
    """
    if not group.is_abelian:
        raise NotAbelianError(f"{group.name} is not abelian")
    orders = element_orders(group)
    counts = np.bincount(orders[_prime_mask(orders)])
    primes = np.flatnonzero(counts)
    return bool((counts[primes] <= primes - 1).all())

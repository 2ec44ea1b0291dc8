"""Depth-truncated one-point-compactification groupoid over a group and a
subgroup family: one non-Hausdorff unit at infinity carrying the whole
group, and finitely many discrete levels each carrying a copy of the
coset groupoid.

Every verdict is read off the family in closed form.  The tail point
(X, n) lies in a neighbourhood of (gamma, inf) iff gamma X' = X for some
member X', which forces X' = X and gamma in X.  So the limit set of the
constant tail (X, n) is X x {inf}, the essential fibre is the family, and
the unit at infinity is extremely dangerous iff (0,) is not a member.
The units, basic neighbourhoods and level groupoids are built only when
read.  Reading any of them at a depth where it would hold more than
NEIGHBORHOOD_POINT_CAP entries (units, points or groupoid references),
or lifting a witness to more level points than that, raises SizeCapError
before anything is built or checked; a report that reads none of them
answers at any depth.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .groupoid import build_coset_groupoid
from .groups import (FiniteGroup, SizeCapError, SubgroupFamily, coset_index,
                     distinct_cosets)
from .ideals import check_witness

INFINITY = "inf"

# cap on the points stored in the basic neighbourhoods, which take about
# 115 MiB at the cap (C6 with three members, CPython 3.11), and on the
# level points of a witness lift
NEIGHBORHOOD_POINT_CAP = 10 ** 6


def _check_cap(depth: int, count: int, needs: str) -> None:
    """Raise SizeCapError "hls depth <depth> <needs with the count>, over
    the cap" when ``count`` entries pass NEIGHBORHOOD_POINT_CAP."""
    if count > NEIGHBORHOOD_POINT_CAP:
        raise SizeCapError(f"hls depth {depth} {needs.format(count)}, "
                           f"over the cap {NEIGHBORHOOD_POINT_CAP}")


class NotAWitnessError(ValueError):
    """The supplied element fails a coset-sum constraint."""


@dataclass(frozen=True)
class TruncatedHLS:
    group: FiniteGroup
    family: SubgroupFamily
    depth: int
    infinity_arrows: tuple            # (gamma, "inf") for each group element

    @functools.cached_property
    def level_groupoids(self) -> tuple:
        """depth references to one coset groupoid, built on first read.

        Raises SizeCapError, before building anything, when the depth
        passes NEIGHBORHOOD_POINT_CAP.
        """
        _check_cap(self.depth, self.depth, "needs {} level groupoids")
        return (build_coset_groupoid(self.group, self.family),) * self.depth

    @functools.cached_property
    def basic_neighborhoods(self) -> dict:
        """(gamma, cutoff) -> frozenset of (gamma, inf) and the (gamma X, n)
        with n from the cutoff to the depth, built on first read.

        Raises SizeCapError, before building anything, when they would hold
        more than NEIGHBORHOOD_POINT_CAP points.
        """
        # each of the order * depth neighbourhoods holds (gamma, inf) and,
        # for each member X, the points (gamma X, n) from its cutoff to the
        # depth
        depth, members = self.depth, len(self.family.members)
        points = self.group.order * depth * (2 + members * (depth + 1)) // 2
        _check_cap(depth, points, "needs {} neighbourhood points")
        payloads = [c.elements for c in distinct_cosets(self.group, self.family)]
        neighborhoods = {}
        for gamma, ids in enumerate(coset_index(self.group, self.family).T.tolist()):
            translates = [payloads[i] for i in ids]
            for cutoff in range(1, self.depth + 1):
                pts = {(gamma, INFINITY)}
                for coset in translates:
                    pts.update((coset, n) for n in range(cutoff, self.depth + 1))
                neighborhoods[(gamma, cutoff)] = frozenset(pts)
        return neighborhoods

    @property
    def units(self) -> tuple:
        """The unit at infinity followed by (subgroup, level) pairs.

        Raises SizeCapError, before building anything, when there would be
        more than NEIGHBORHOOD_POINT_CAP of them.
        """
        _check_cap(self.depth, 1 + len(self.family.members) * self.depth, "needs {} units")
        out = [(0, INFINITY)]
        for level in range(1, self.depth + 1):
            out.extend((sub, level) for sub in self.family.members)
        return tuple(out)

    def basic_neighborhood(self, gamma: int, cutoff: int) -> frozenset:
        return self.basic_neighborhoods[(gamma, cutoff)]


def build_hls(group: FiniteGroup, family: SubgroupFamily, depth: int) -> TruncatedHLS:
    """Truncate the level index at ``depth``, keeping the infinity fibre exact."""
    if not family.members:
        raise ValueError("family must be non-empty")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return TruncatedHLS(
        group=group,
        family=family,
        depth=depth,
        infinity_arrows=tuple((g, INFINITY) for g in group.elements()),
    )


def limit_set(hls: TruncatedHLS, tail_subgroup: Sequence[int]) -> frozenset:
    """Limit set at infinity of the constant-tail unit sequence ((X, n))_n,
    which is X x {inf}."""
    sub = tuple(sorted(tail_subgroup))
    if sub not in hls.family.members:
        raise ValueError(f"{sub} is not a member of the family")
    return frozenset((g, INFINITY) for g in sub)


def essential_fiber(hls: TruncatedHLS) -> SubgroupFamily:
    """Maximal limit sets of constant-tail unit sequences, as subgroups: the
    family itself, whose members are already sorted by (|X|, X).

    For finite families every convergent unit sequence has an eventually
    constant subgroup subnet, so constant tails exhaust the fibre.
    """
    return SubgroupFamily(hls.group, hls.family.members)


def is_extremely_dangerous(hls: TruncatedHLS) -> bool:
    """True iff the trivial subgroup is missing from the essential fibre."""
    return (0,) not in hls.family.members


@dataclass(frozen=True)
class SingularCandidate:
    """A function on the truncation: values at infinity plus level values.

    ``level_values`` maps (coset elements, level) to rationals and is zero
    below the cutoff by construction.
    """

    hls: TruncatedHLS
    infinity_values: tuple
    level_values: dict
    cutoff: int


def singular_function_from_witness(hls: TruncatedHLS, witness, cutoff: int) -> SingularCandidate:
    """Lift an integer kernel element: value b(gamma) at (gamma, inf) and the
    coset sum of b at each level point from the cutoff on.

    Only a witness whose coset sums all vanish (``ideals.check_witness``)
    is lifted, so every level value is 0 while the infinity values are
    not: the finite rendering of a non-zero function whose zero set is dense.
    Raises SizeCapError, before the witness is checked or the level values
    are built, when there would be more than NEIGHBORHOOD_POINT_CAP of
    them: one per coset and level, the sum of [G:X] over the members times
    the depth.
    """
    coeffs = tuple(getattr(witness, "coeffs", witness))
    if len(coeffs) != hls.group.order:
        raise ValueError("witness length must equal the group order")
    if not 1 <= cutoff <= hls.depth:
        raise ValueError("cutoff must lie between 1 and the depth")
    if all(c == 0 for c in coeffs):
        raise NotAWitnessError("witness must be non-zero")
    points = sum(hls.group.order // len(sub) for sub in hls.family.members) * hls.depth
    _check_cap(hls.depth, points, "lifts the witness to {} level points")
    if not check_witness(hls.group, hls.family, coeffs):
        raise NotAWitnessError("element fails a coset-sum constraint")
    zero = Fraction(0)
    level_values = {(coset.elements, n): zero
                    for coset in distinct_cosets(hls.group, hls.family)
                    for n in range(1, hls.depth + 1)}
    return SingularCandidate(hls, coeffs, level_values, cutoff)


def verify_singular(hls: TruncatedHLS, candidate: SingularCandidate) -> bool:
    """True iff the candidate vanishes on every level arrow (the dense
    Hausdorff part) but not at infinity."""
    if candidate.hls is not hls:
        raise ValueError("candidate lives on a different truncation")
    if any(v != 0 for v in candidate.level_values.values()):
        return False
    return any(v != 0 for v in candidate.infinity_values)


def hls_report(hls: TruncatedHLS, witness=None) -> dict:
    """JSON-ready summary: dangerous-point verdict, fibre, witness lift."""
    report = {
        "depth": hls.depth,
        "extremely_dangerous": is_extremely_dangerous(hls),
        "essential_fiber": [list(sub) for sub in essential_fiber(hls).members],
        "witness_lifted": False,
        "verify_singular": None,
    }
    if witness is not None:
        candidate = singular_function_from_witness(hls, witness, cutoff=1)
        report["witness_lifted"] = True
        report["verify_singular"] = verify_singular(hls, candidate)
    return report

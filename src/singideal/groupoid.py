"""Finite groupoids, the coset groupoid of a subgroup family, convolution,
and the coset-sum homomorphism used as an independent kernel oracle.

Arrows of the coset groupoid are the distinct cosets g*X themselves; the
source of a coset Y is y^-1 Y, its range is Y y^-1 (both independent of
the representative y, which the builder verifies), and composable pairs
multiply pointwise.  Composition is tabulated once at build time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from . import exact
from .groups import FiniteGroup, SubgroupFamily, distinct_cosets


class Arrow(NamedTuple):
    index: int
    source: int
    range: int
    payload: tuple


class FiniteGroupoid:
    """Units, arrows, inverse and a dense composition table (-1 = undefined)."""

    def __init__(self, units: Sequence, arrows: Sequence[Arrow],
                 inverse: Sequence[int], compose_table):
        self.units = tuple(units)
        self.arrows = tuple(arrows)
        self.inverse = np.asarray(inverse, dtype=np.int32)
        self.compose_table = np.asarray(compose_table, dtype=np.int32)
        m = len(self.arrows)
        if self.inverse.shape != (m,) or self.compose_table.shape != (m, m):
            raise ValueError("inverse/composition tables do not match arrow count")
        by_source = [[] for _ in self.units]
        for a in self.arrows:
            by_source[a.source].append(a.index)
        self.arrows_by_source = tuple(tuple(v) for v in by_source)
        unit_arrows = [-1] * len(self.units)
        for a in self.arrows:
            if a.source == a.range and self.compose_table[a.index, a.index] == a.index:
                # candidate identity; confirmed by neutrality below
                if self._acts_neutrally(a.index):
                    unit_arrows[a.source] = a.index
        if any(u < 0 for u in unit_arrows):
            raise ValueError("some unit has no identity arrow")
        self.unit_arrows = tuple(unit_arrows)

    def _acts_neutrally(self, e: int) -> bool:
        src = self.arrows[e].source
        for b in self.arrows:
            if b.range == src and self.compose_table[e, b.index] != b.index:
                return False
            if b.source == src and self.compose_table[b.index, e] != b.index:
                return False
        return True

    def num_arrows(self) -> int:
        return len(self.arrows)

    def compose(self, a: int, b: int) -> Optional[int]:
        c = int(self.compose_table[a, b])
        return None if c < 0 else c

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def is_unit_arrow(self, a: int) -> bool:
        return a in self.unit_arrows

    def check_axioms(self) -> None:
        """Exhaustive groupoid axiom check; raises AssertionError on failure."""
        for a in self.arrows:
            ai = self.inv(a.index)
            assert self.arrows[ai].source == a.range and self.arrows[ai].range == a.source
            assert self.compose(a.index, ai) == self.unit_arrows[a.range]
            assert self.compose(ai, a.index) == self.unit_arrows[a.source]
        for a in self.arrows:
            for b in self.arrows:
                c = self.compose(a.index, b.index)
                if a.source == b.range:
                    assert c is not None
                    cc = self.arrows[c]
                    assert cc.range == a.range and cc.source == b.source
                else:
                    assert c is None
        for a in self.arrows:
            for b in self.arrows:
                if a.source != b.range:
                    continue
                ab = self.compose(a.index, b.index)
                for c in self.arrows:
                    if b.source != c.range:
                        continue
                    bc = self.compose(b.index, c.index)
                    assert self.compose(ab, c.index) == self.compose(a.index, bc)

    def to_json_dict(self) -> dict:
        return {
            "units": [list(u) if isinstance(u, tuple) else u for u in self.units],
            "arrows": [{"index": a.index, "source": a.source, "range": a.range,
                        "elements": list(a.payload)} for a in self.arrows],
            "inverse": self.inverse.tolist(),
            "compose": self.compose_table.tolist(),
        }


@dataclass(frozen=True)
class GroupoidFunction:
    """Finitely-supported rational function on the arrows of a groupoid."""

    groupoid: FiniteGroupoid
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.groupoid.num_arrows():
            raise ValueError("value vector length must equal the arrow count")

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


def delta(groupoid: FiniteGroupoid, arrow: int) -> GroupoidFunction:
    vals = [Fraction(0)] * groupoid.num_arrows()
    vals[arrow] = Fraction(1)
    return GroupoidFunction(groupoid, tuple(vals))


def unit_indicator(groupoid: FiniteGroupoid,
                   units: Optional[Sequence[int]] = None) -> GroupoidFunction:
    """Indicator of the identity arrows over the given units (default: all)."""
    chosen = range(len(groupoid.units)) if units is None else units
    vals = [Fraction(0)] * groupoid.num_arrows()
    for u in chosen:
        vals[groupoid.unit_arrows[u]] = Fraction(1)
    return GroupoidFunction(groupoid, tuple(vals))


def build_coset_groupoid(group: FiniteGroup, family: SubgroupFamily) -> FiniteGroupoid:
    """The groupoid of distinct cosets over a conjugation-invariant family."""
    if not family.members:
        raise ValueError("family must be non-empty")
    cosets = distinct_cosets(group, family)
    unit_index = {sub: i for i, sub in enumerate(family.members)}
    arrow_index = {c.elements: i for i, c in enumerate(cosets)}

    def source_of(elems: tuple) -> tuple:
        y = elems[0]
        src = tuple(sorted(group.mul(group.inv(y), x) for x in elems))
        for other in elems[1:]:
            alt = tuple(sorted(group.mul(group.inv(other), x) for x in elems))
            if alt != src:
                raise AssertionError("source depends on the coset representative")
        return src

    def range_of(elems: tuple) -> tuple:
        y = elems[0]
        rng = tuple(sorted(group.mul(x, group.inv(y)) for x in elems))
        for other in elems[1:]:
            alt = tuple(sorted(group.mul(x, group.inv(other)) for x in elems))
            if alt != rng:
                raise AssertionError("range depends on the coset representative")
        return rng

    arrows = []
    for i, c in enumerate(cosets):
        arrows.append(Arrow(i, unit_index[source_of(c.elements)],
                            unit_index[range_of(c.elements)], c.elements))

    m = len(arrows)
    inverse = np.empty(m, dtype=np.int32)
    for a in arrows:
        inv_elems = tuple(sorted(group.inv(x) for x in a.payload))
        inverse[a.index] = arrow_index[inv_elems]

    compose = np.full((m, m), -1, dtype=np.int32)
    for a in arrows:
        for b in arrows:
            if a.source != b.range:
                continue
            y, z = a.payload[0], b.payload[0]
            yz = group.mul(y, z)
            sub = family.members[b.source]
            product = tuple(sorted(group.mul(yz, x) for x in sub))
            compose[a.index, b.index] = arrow_index[product]

    return FiniteGroupoid(family.members, arrows, inverse, compose)


def q_map(group: FiniteGroup, family: SubgroupFamily, coeffs: Sequence,
          groupoid: Optional[FiniteGroupoid] = None) -> GroupoidFunction:
    """Coset-sum image of a group-algebra element: value at Y is sum over Y."""
    coeffs = getattr(coeffs, "coeffs", coeffs)
    if len(coeffs) != group.order:
        raise ValueError("coefficient vector length must equal the group order")
    if groupoid is None:
        groupoid = build_coset_groupoid(group, family)
    vals = tuple(sum((coeffs[x] for x in a.payload), Fraction(0))
                 for a in groupoid.arrows)
    return GroupoidFunction(groupoid, vals)


def convolve(groupoid: FiniteGroupoid, f1: GroupoidFunction,
             f2: GroupoidFunction) -> GroupoidFunction:
    """Exact convolution (f1*f2)(g) = sum over h with s(h)=s(g) of f1(g h^-1) f2(h)."""
    if f1.groupoid is not groupoid or f2.groupoid is not groupoid:
        raise ValueError("functions live on a different groupoid")
    inv = groupoid.inverse
    table = groupoid.compose_table
    out = [Fraction(0)] * groupoid.num_arrows()
    support = [i for i, v in enumerate(f2.values) if v != 0]
    for h in support:
        fh = f2.values[h]
        src = groupoid.arrows[h].source
        for g in groupoid.arrows_by_source[src]:
            gh = table[g, inv[h]]
            v = f1.values[gh]
            if v != 0:
                out[g] += v * fh
    return GroupoidFunction(groupoid, tuple(out))


def involution(groupoid: FiniteGroupoid, f: GroupoidFunction) -> GroupoidFunction:
    """f*(g) = conj(f(g^-1)); conjugation is trivial for rational values."""
    vals = tuple(f.values[groupoid.inv(a)] for a in range(groupoid.num_arrows()))
    return GroupoidFunction(groupoid, vals)


def _q_rows(group: FiniteGroup, family: SubgroupFamily,
            groupoid: Optional[FiniteGroupoid]) -> exact.RationalMatrix:
    """One 0/1 row per arrow, marking the group elements of its coset.

    Without a groupoid the rows come straight from ``distinct_cosets``,
    which are the arrow payloads of ``build_coset_groupoid`` in order.
    """
    if groupoid is None:
        payloads = [c.elements for c in distinct_cosets(group, family)]
    else:
        payloads = [a.payload for a in groupoid.arrows]
    n = group.order
    rows = []
    for payload in payloads:
        row = [0] * n
        for x in payload:
            row[x] = 1
        rows.append(row)
    return exact.RationalMatrix.from_rows(rows, cols=n)


def kernel_of_q_dimension(group: FiniteGroup, family: SubgroupFamily,
                          groupoid: Optional[FiniteGroupoid] = None) -> int:
    """Exact dimension of {a : q(a) = 0}, assembled from the groupoid arrows."""
    return exact.kernel_dim(_q_rows(group, family, groupoid))


def kernel_of_q_basis(group: FiniteGroup, family: SubgroupFamily,
                      groupoid: Optional[FiniteGroupoid] = None) -> List[tuple]:
    """Exact basis of {a : q(a) = 0}; the third kernel route."""
    return exact.kernel_basis(_q_rows(group, family, groupoid))


def reduction_groupoid(groupoid: FiniteGroupoid, units: Sequence[int]):
    """Reduction to a unit subset: arrows with source and range inside it.

    Returns (reduced groupoid, kept arrow indices in original numbering).
    """
    units = sorted(set(units))
    if not units:
        raise ValueError("unit subset must be non-empty")
    for u in units:
        if not 0 <= u < len(groupoid.units):
            raise ValueError(f"unit {u} out of range")
    unit_pos = {u: i for i, u in enumerate(units)}
    kept = [a.index for a in groupoid.arrows
            if a.source in unit_pos and a.range in unit_pos]
    arrow_pos = {a: i for i, a in enumerate(kept)}
    arrows = [Arrow(arrow_pos[a], unit_pos[groupoid.arrows[a].source],
                    unit_pos[groupoid.arrows[a].range], groupoid.arrows[a].payload)
              for a in kept]
    inverse = [arrow_pos[groupoid.inv(a)] for a in kept]
    m = len(kept)
    compose = np.full((m, m), -1, dtype=np.int32)
    for i, a in enumerate(kept):
        for j, b in enumerate(kept):
            c = groupoid.compose(a, b)
            if c is not None:
                compose[i, j] = arrow_pos[c]
    reduced = FiniteGroupoid([groupoid.units[u] for u in units],
                             arrows, inverse, compose)
    return reduced, kept


def restrict_function(reduced: FiniteGroupoid, kept: Sequence[int],
                      f: GroupoidFunction) -> GroupoidFunction:
    return GroupoidFunction(reduced, tuple(f.values[a] for a in kept))

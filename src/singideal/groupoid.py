"""Finite groupoids, the coset groupoid of a subgroup family, convolution,
and the coset-sum homomorphism q, whose kernel is the coset matrix's.

Arrows of the coset groupoid are the distinct cosets g*X themselves; the
source of a coset Y is y^-1 Y, its range is Y y^-1 (both independent of
the representative y, which the builder verifies), and composable pairs
multiply pointwise.  Composition is tabulated once at build time with
lookups in coset_of = ``groups.coset_index`` (coset_of[u, g] is the arrow
g X_u): the product of y X_a and z X_b (where s(a) = r(b)) is
coset_of[s(b), y z], filled one unit's block of composable pairs at a
time.  A reduction remaps its block of the table with one index lookup.
Convolution stays exact: it sums Python ints over the common
denominators of the two supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from . import exact
from .groups import (FiniteGroup, SizeCapError, SubgroupFamily, coset_index,
                     distinct_cosets)
from .ideals import _coset_matrix

# the int32 compose table takes four bytes per entry, 512 MiB at the cap
COMPOSE_ENTRY_CAP = 2 ** 27


class Arrow(NamedTuple):
    index: int
    source: int
    range: int
    payload: tuple


class FiniteGroupoid:
    """Units, arrows, inverse and a dense composition table (-1 = undefined).

    The constructor also tabulates, once, the left-regular index block of
    every unit u: entry (g, h) is the arrow g h^-1, for g and h in the
    arrows with source u in canonical order.  Blocks of equal dimension
    share one (units, d, d) stack, so a norm evaluates each stack with one
    batched eigensolve.
    """

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
        self._sources = np.array([a.source for a in self.arrows], dtype=np.intp)
        self._ranges = np.array([a.range for a in self.arrows], dtype=np.intp)
        self.unit_arrows = self._find_unit_arrows()
        self._rep_stacks, self._rep_blocks = self._regular_index_blocks()

    def _find_unit_arrows(self) -> tuple:
        """The identity arrow of each unit; raises if some unit has none.

        A candidate e (source = range, e e = e) is the identity at u = s(e)
        when e b = b for every b with range u and b e = b for every b with
        source u.  Two such arrows at one unit would equal their product,
        so each unit has at most one.
        """
        table, src, rng = self.compose_table, self._sources, self._ranges
        idx = np.arange(len(self.arrows))
        unit_arrows = [-1] * len(self.units)
        for e in np.flatnonzero((src == rng) & (table[idx, idx] == idx)).tolist():
            u = src[e]
            into, out_of = np.flatnonzero(rng == u), np.flatnonzero(src == u)
            if (table[e, into] == into).all() and (table[out_of, e] == out_of).all():
                unit_arrows[u] = e
        if any(u < 0 for u in unit_arrows):
            raise ValueError("some unit has no identity arrow")
        return tuple(unit_arrows)

    def _regular_index_blocks(self):
        """(stacks, per-unit views into them) of the left-regular index blocks."""
        dims = sorted({len(v) for v in self.arrows_by_source})
        stacks, blocks = [], [None] * len(self.units)
        for d in dims:
            at = [u for u, v in enumerate(self.arrows_by_source) if len(v) == d]
            arrows = np.array([self.arrows_by_source[u] for u in at], dtype=np.intp)
            stack = self.compose_table[arrows[:, :, None],
                                       self.inverse[arrows][:, None, :]]
            stack.setflags(write=False)
            stacks.append(stack)
            for i, u in enumerate(at):
                blocks[u] = stack[i]
        return tuple(stacks), tuple(blocks)

    def num_arrows(self) -> int:
        return len(self.arrows)

    def compose(self, a: int, b: int) -> Optional[int]:
        c = int(self.compose_table[a, b])
        return None if c < 0 else c

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

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
    """The groupoid of distinct cosets over a conjugation-invariant family;
    raises SizeCapError, before building, past COMPOSE_ENTRY_CAP entries."""
    count = sum(group.order // len(sub) for sub in family.members)
    if count ** 2 > COMPOSE_ENTRY_CAP:
        raise SizeCapError(f"the coset groupoid of {group.name} has {count} arrows: "
                           f"{count ** 2} compose entries, over the cap {COMPOSE_ENTRY_CAP}")
    cosets = distinct_cosets(group, family)
    # coset_of[u, g]: the arrow g X_u
    coset_of = coset_index(group, family)
    table, inv = group.table, group.inverse
    unit_index = {sub: i for i, sub in enumerate(family.members)}
    m = len(cosets)
    sources = np.empty(m, dtype=np.intp)
    ranges = np.empty(m, dtype=np.intp)
    for ids in coset_of:
        # the arrows of one member are numbered consecutively
        index = np.arange(ids.min(), ids.max() + 1)
        elems = np.array([cosets[i].elements for i in index], dtype=np.intp)
        # row y of coset Y: sorted y^-1 Y (source) or sorted Y y^-1 (range);
        # every row of a coset must give the same set
        y_inv = inv[elems][:, :, None]
        src_rows = np.sort(table[y_inv, elems[:, None, :]], axis=2)
        rng_rows = np.sort(table[elems[:, None, :], y_inv], axis=2)
        if not (src_rows == src_rows[:, :1]).all():
            raise AssertionError("source depends on the coset representative")
        if not (rng_rows == rng_rows[:, :1]).all():
            raise AssertionError("range depends on the coset representative")
        sources[index] = [unit_index[tuple(r)] for r in src_rows[:, 0].tolist()]
        ranges[index] = [unit_index[tuple(r)] for r in rng_rows[:, 0].tolist()]

    arrows = [Arrow(i, s, r, c.elements)
              for i, (s, r, c) in enumerate(zip(sources.tolist(), ranges.tolist(), cosets))]
    reps = np.array([c.elements[0] for c in cosets], dtype=np.intp)
    # (y X)^-1 = X y^-1 = y^-1 (y X y^-1): the coset of the range containing y^-1
    inverse = coset_of[ranges, inv[reps]]
    # (y X_a)(z X_b) = y z X_b whenever X_a = z X_b z^-1, that is s(a) = r(b) = u
    compose = np.full((m, m), -1, dtype=np.int32)
    for u in range(len(family.members)):
        left = np.flatnonzero(sources == u)
        right = np.flatnonzero(ranges == u)
        compose[np.ix_(left, right)] = coset_of[
            sources[right][None, :], table[reps[left][:, None], reps[right][None, :]]]

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


def _over_common_denominator(values, indices):
    """(d, {i: values[i] * d}) for d the least common denominator of the
    values at ``indices``; the scaled values are Python ints."""
    dens = [values[i].denominator for i in indices]
    den = math.lcm(*dens)
    return den, {i: values[i].numerator * (den // d) for i, d in zip(indices, dens)}


def convolve(groupoid: FiniteGroupoid, f1: GroupoidFunction,
             f2: GroupoidFunction) -> GroupoidFunction:
    """Exact convolution (f1*f2)(g) = sum over h with s(h)=s(g) of f1(g h^-1) f2(h).

    Each term is f1(k) f2(h) landing on g = k h, for h in the support of
    f2 and k in the support of f1 with s(k) = r(h).  Both supports are
    scaled to integers over their common denominators, the terms are
    summed as Python ints (one table lookup per unit r(h)), and each
    non-zero sum becomes one normalised Fraction.
    """
    if f1.groupoid is not groupoid or f2.groupoid is not groupoid:
        raise ValueError("functions live on a different groupoid")
    values1, values2 = f1.values, f2.values
    # v.numerator, not v: the property is cheaper than Fraction.__bool__
    support2 = [h for h, v in enumerate(values2) if v.numerator]
    hs_at = {}
    for h, r in zip(support2, groupoid._ranges[support2].tolist()):
        hs_at.setdefault(r, []).append(h)
    ks_at = {}
    for r in hs_at:
        ks = [k for k in groupoid.arrows_by_source[r] if values1[k].numerator]
        if ks:
            ks_at[r] = ks
    den1, ints1 = _over_common_denominator(
        values1, [k for ks in ks_at.values() for k in ks])
    den2, ints2 = _over_common_denominator(
        values2, [h for r in ks_at for h in hs_at[r]])
    table = groupoid.compose_table
    acc = [0] * groupoid.num_arrows()
    for r, ks in ks_at.items():
        hs = hs_at[r]
        bs = [ints2[h] for h in hs]
        rows = table[np.array(ks, dtype=np.intp)[:, None], hs].tolist()
        for k, row in zip(ks, rows):
            a = ints1[k]
            for g, b in zip(row, bs):
                acc[g] += a * b
    den, zero = den1 * den2, Fraction(0)
    return GroupoidFunction(groupoid, tuple([Fraction(n, den) if n else zero
                                             for n in acc]))


def involution(groupoid: FiniteGroupoid, f: GroupoidFunction) -> GroupoidFunction:
    """f*(g) = conj(f(g^-1)); conjugation is trivial for rational values."""
    vals = tuple(f.values[groupoid.inv(a)] for a in range(groupoid.num_arrows()))
    return GroupoidFunction(groupoid, vals)


def kernel_of_q_dimension(group: FiniteGroup, family: SubgroupFamily) -> int:
    """Exact dimension of {a : q(a) = 0}: one row per arrow, marking its coset."""
    return exact.kernel_dim(_coset_matrix(group, family))


def kernel_of_q_basis(group: FiniteGroup, family: SubgroupFamily) -> List[tuple]:
    """Exact basis of {a : q(a) = 0}; the third kernel route."""
    return exact.kernel_basis(_coset_matrix(group, family))


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
    unit_pos = np.full(len(groupoid.units), -1, dtype=np.intp)
    unit_pos[units] = np.arange(len(units))
    sources, ranges = unit_pos[groupoid._sources], unit_pos[groupoid._ranges]
    kept = np.flatnonzero((sources >= 0) & (ranges >= 0))
    # pos[a]: the new index of kept arrow a; pos[-1] = -1 keeps "undefined"
    pos = np.full(groupoid.num_arrows() + 1, -1, dtype=np.int32)
    pos[kept] = np.arange(len(kept))
    arrows = [Arrow(i, s, r, groupoid.arrows[a].payload)
              for i, (a, s, r) in enumerate(zip(kept.tolist(), sources[kept].tolist(),
                                                ranges[kept].tolist()))]
    compose = pos[groupoid.compose_table[np.ix_(kept, kept)]]
    reduced = FiniteGroupoid([groupoid.units[u] for u in units],
                             arrows, pos[groupoid.inverse[kept]], compose)
    return reduced, kept.tolist()


def restrict_function(reduced: FiniteGroupoid, kept: Sequence[int],
                      f: GroupoidFunction) -> GroupoidFunction:
    return GroupoidFunction(reduced, tuple(f.values[a] for a in kept))

"""Finite groupoids, the coset groupoid of a subgroup family, convolution,
and the coset-sum homomorphism q, whose kernel is the coset matrix's.

Arrows of the coset groupoid are the distinct cosets g*X themselves; the
source of y X_u is X_u, its range is y X_u y^-1, and composable pairs
multiply pointwise; ranges and representatives y come from the family's
``groups.coset_table``.  A groupoid's product is a vectorised rule on
arrow index arrays, not a stored table: the coset groupoid reads the
table's numbering coset_of (coset_of[u, g] is the arrow g X_u), the
product of y X_a and z X_b (where s(a) = r(b)) being coset_of[b, y z],
and a reduction composes its parent's rule with one index lookup.
The coset-sum map q is one exact product of the coefficients with the
coset matrix, whose rows are numbered like the arrows.  Convolution
stays exact: functions become integer numerator rows over one common
denominator (``exact.integer_rows``), and one engine (``convolve_rows``)
convolves whole blocks of such rows: the composable pairs come from one
``_matching`` join and their products are added onto the product arrows
with one ``np.add.at`` scatter, as in ``exact.integer_product``, in int64
when a bound taken before multiplying proves that no partial sum can
overflow, in Python ints otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from . import exact
from .exact import _matching
from .groups import (FiniteGroup, SizeCapError, SubgroupFamily, coset_table,
                     distinct_cosets)
from .ideals import _coset_matrix, _coset_sums

# int32 entries a groupoid allocates at once, 512 MiB at the cap: the
# regular index blocks Σ_X [G:X]^2 when building, the compose table m^2 on read
ENTRY_CAP = 2 ** 27

# products gathered at once by convolve_rows: 32 MiB in int64
CONVOLVE_CHUNK = 1 << 22


class Arrow(NamedTuple):
    index: int
    source: int
    range: int
    payload: tuple


class FiniteGroupoid:
    """Units, arrows, inverse and a product rule: ``product(k, h)`` maps
    broadcastable arrow index arrays with s(k) = r(h) to the arrows k h.

    The constructor also tabulates, once, the left-regular index block of
    every unit u: entry (g, h) is the arrow g h^-1, for g and h in the
    arrows with source u in canonical order.  Blocks of equal dimension
    share one (units, d, d) stack, so a norm evaluates each stack with one
    batched eigensolve.
    """

    def __init__(self, units: Sequence, arrows: Sequence[Arrow],
                 inverse: Sequence[int], product: Callable):
        self.units = tuple(units)
        self.arrows = tuple(arrows)
        self.inverse = np.asarray(inverse, dtype=np.int32)
        self.product = product
        if self.inverse.shape != (len(self.arrows),):
            raise ValueError("inverse table does not match arrow count")
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
        src, rng = self._sources, self._ranges
        loops = np.flatnonzero(src == rng)
        unit_arrows = [-1] * len(self.units)
        for e in loops[self.product(loops, loops) == loops].tolist():
            u = src[e]
            into, out_of = np.flatnonzero(rng == u), np.flatnonzero(src == u)
            if ((self.product(e, into) == into).all()
                    and (self.product(out_of, e) == out_of).all()):
                unit_arrows[u] = e
        if any(u < 0 for u in unit_arrows):
            raise ValueError("some unit has no identity arrow")
        return tuple(unit_arrows)

    def _regular_index_blocks(self):
        """(stacks, per-unit views into them) of the left-regular index
        blocks; an entry g h^-1, for g and h with one source, is always defined."""
        dims = sorted({len(v) for v in self.arrows_by_source})
        stacks, blocks = [], [None] * len(self.units)
        for d in dims:
            at = [u for u, v in enumerate(self.arrows_by_source) if len(v) == d]
            arrows = np.array([self.arrows_by_source[u] for u in at], dtype=np.intp)
            stack = self.product(arrows[:, :, None], self.inverse[arrows][:, None, :])
            stack.setflags(write=False)
            stacks.append(stack)
            for i, u in enumerate(at):
                blocks[u] = stack[i]
        return tuple(stacks), tuple(blocks)

    def num_arrows(self) -> int:
        return len(self.arrows)

    def compose(self, a: int, b: int) -> Optional[int]:
        return int(self.product(a, b)) if self._sources[a] == self._ranges[b] else None

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    @property
    def compose_table(self) -> np.ndarray:
        """The read-only int32 (arrows x arrows) table of ``product``, -1
        where s(a) != r(b); raises SizeCapError, before allocating, past
        ENTRY_CAP entries."""
        m = len(self.arrows)
        if m * m > ENTRY_CAP:
            raise SizeCapError(f"a compose table of {m} arrows needs {m * m} entries, "
                               f"over the cap {ENTRY_CAP}")
        table = np.full((m, m), -1, dtype=np.int32)
        a, b = _matching(self._sources, self._ranges, len(self.units))
        table[a, b] = self.product(a, b)
        table.setflags(write=False)
        return table

    def check_axioms(self) -> None:
        """Exhaustive groupoid axiom check over every arrow, composable pair
        and composable triple, on index arrays; raises AssertionError on
        failure.  Pairs with s(a) != r(b) have no product by construction."""
        src, rng, inv = self._sources, self._ranges, self.inverse
        units, idx = np.asarray(self.unit_arrows), np.arange(len(self.arrows))
        assert (src[inv] == rng).all() and (rng[inv] == src).all()
        assert (self.product(idx, inv) == units[rng]).all()
        assert (self.product(inv, idx) == units[src]).all()
        a, b = _matching(src, rng, len(self.units))
        ab = self.product(a, b)
        assert ((0 <= ab) & (ab < len(idx))).all()
        assert (rng[ab] == rng[a]).all() and (src[ab] == src[b]).all()
        # the triples (a, b, c): each pair (a, b) with every c with r(c) = s(b)
        pair, c = _matching(src[b], rng, len(self.units))
        assert (self.product(ab[pair], c)
                == self.product(a[pair], self.product(b[pair], c))).all()

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
    raises SizeCapError, before building, when its regular index blocks
    would pass ENTRY_CAP entries."""
    index = [group.order // len(sub) for sub in family.members]
    count, entries = sum(index), sum(d * d for d in index)
    if entries > ENTRY_CAP:
        raise SizeCapError(f"the coset groupoid of {group.name} has {count} arrows: "
                           f"{entries} regular-block entries, over the cap {ENTRY_CAP}")
    # coset_of[u, g]: the arrow g X_u; the cosets of X_u are numbered in a run
    coset_of, reps, ranges, _ = coset_table(group, family)
    sources = np.repeat(np.arange(len(index)), index)
    if (ranges < 0).any():
        sub = family.members[sources[np.argmax(ranges < 0)]]
        raise ValueError(f"a conjugate of {list(sub)} in {group.name} is not "
                         f"a family member")
    arrows = [Arrow(i, s, r, c.elements) for i, (s, r, c) in
              enumerate(zip(sources.tolist(), ranges.tolist(), distinct_cosets(group, family)))]
    # (y X)^-1 = X y^-1 = y^-1 (y X y^-1): the coset of the range containing y^-1
    inverse = coset_of[ranges, group.inverse[reps]]
    # (y X_a)(z X_b) = y z X_b whenever X_a = z X_b z^-1, that is s(a) = r(b)
    return FiniteGroupoid(family.members, arrows, inverse,
                          lambda k, h: coset_of[sources[h], group.table[reps[k], reps[h]]])


def q_map(group: FiniteGroup, family: SubgroupFamily, coeffs: Sequence,
          groupoid: Optional[FiniteGroupoid] = None) -> GroupoidFunction:
    """Coset-sum image of a group-algebra element: value at Y is sum over Y,
    one exact product with the coset matrix, whose row i is the arrow i; a
    ``groupoid`` with another arrow count raises ValueError."""
    coeffs = getattr(coeffs, "coeffs", coeffs)
    sums, den = _coset_sums(group, family, coeffs)
    if groupoid is None:
        groupoid = build_coset_groupoid(group, family)
    return function_from_row(groupoid, sums, den)


def function_from_row(groupoid: FiniteGroupoid, row, den: int) -> GroupoidFunction:
    """The function with values row[g] / den, as normalised Fractions."""
    zero = Fraction(0)
    return GroupoidFunction(groupoid, tuple([Fraction(n, den) if n else zero
                                             for n in row.tolist()]))


def convolve_rows(groupoid: FiniteGroupoid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact convolution of integer rows: row i of the result is a[i] * b[i]
    (a single row on either side is used for every row of the other).

    Each term a(k) b(h) lands on k h, for k and h in the union supports
    of ``a`` and ``b`` with s(k) = r(h).  The pairs (k, h) come from one
    ``_matching`` join, as in ``exact.integer_product``; their products are
    gathered as columns and added onto the columns k h with one ``np.add.at``,
    for a slice of the ks at a time, so that no slice gathers more than
    ``CONVOLVE_CHUNK`` products.  They are multiplied in int64 when
    max|a| max|b| (terms per product arrow) < 2^63, so that no partial sum
    can overflow, whatever the order of addition, and as Python ints
    otherwise.
    """
    ks = np.flatnonzero((a != 0).any(axis=0))
    hs = np.flatnonzero((b != 0).any(axis=0))
    n = np.broadcast_shapes((len(a),), (len(b),))[0]
    # k h = g fixes k = g h^-1 and s(h) = s(g): g takes at most as many
    # terms as the support of b has arrows with source s(g)
    terms = int(np.bincount(groupoid._sources[hs]).max()) if len(hs) else 0
    exact_in_int64 = (a.dtype == np.int64 and b.dtype == np.int64
                      and exact._max_abs(a) * exact._max_abs(b) * terms
                      < exact.INT64_LIMIT)
    dtype = np.int64 if exact_in_int64 else object
    out = np.zeros((n, groupoid.num_arrows()), dtype=dtype)
    # each k meets at most this many hs
    per_k = int(np.bincount(groupoid._ranges[hs]).max()) if len(hs) else 1
    step = max(1, CONVOLVE_CHUNK // max(n * per_k, 1))
    for start in range(0, len(ks), step):
        k = ks[start:start + step]
        i, j = _matching(groupoid._sources[k], groupoid._ranges[hs], len(groupoid.units))
        k, h = k[i], hs[j]
        np.add.at(out, (slice(None), groupoid.product(k, h)),
                  a[:, k].astype(dtype, copy=False) * b[:, h].astype(dtype, copy=False))
    return out


def convolve(groupoid: FiniteGroupoid, f1: GroupoidFunction,
             f2: GroupoidFunction) -> GroupoidFunction:
    """Exact convolution (f1*f2)(g) = sum over h with s(h)=s(g) of f1(g h^-1) f2(h),
    as one row of ``convolve_rows`` over the product of the two common
    denominators."""
    if f1.groupoid is not groupoid or f2.groupoid is not groupoid:
        raise ValueError("functions live on a different groupoid")
    (a, den1), (b, den2) = (exact.integer_rows([f.values]) for f in (f1, f2))
    return function_from_row(groupoid, convolve_rows(groupoid, a, b)[0], den1 * den2)


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
    # pos[a]: the new index of kept arrow a
    pos = np.full(groupoid.num_arrows(), -1, dtype=np.int32)
    pos[kept] = np.arange(len(kept))
    arrows = [Arrow(i, s, r, groupoid.arrows[a].payload)
              for i, (a, s, r) in enumerate(zip(kept.tolist(), sources[kept].tolist(),
                                                ranges[kept].tolist()))]
    reduced = FiniteGroupoid([groupoid.units[u] for u in units], arrows,
                             pos[groupoid.inverse[kept]],
                             lambda k, h: pos[groupoid.product(kept[k], kept[h])])
    return reduced, kept.tolist()


def restrict_function(reduced: FiniteGroupoid, kept: Sequence[int],
                      f: GroupoidFunction) -> GroupoidFunction:
    return GroupoidFunction(reduced, tuple(f.values[a] for a in kept))

"""Finite groups as Cayley tables, subgroup machinery, conjugation, cosets.

Elements are integers 0..order-1 with the identity fixed at index 0.
Constructors define canonical element orderings (cyclic: residues,
products: mixed radix with the leftmost factor most significant,
symmetric: lexicographic permutations) so that kernels, witnesses and
reports downstream are reproducible byte for byte.

Subgroup tests and conjugation are table gathers, conjugation over one
representative per left coset: a parsed subgroup may hold thousands of
elements, and |X|^2 Python calls or |G| conjugates of it cost seconds
and hundreds of MiB before any coset matrix exists.  A family builds one
``coset_table`` (cosets numbered, represented and conjugated), which the
closure, coset matrix, entry-set check and coset groupoid all read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

DEFAULT_ORDER_CAP = 5040
DEFAULT_LATTICE_CAP = 48


class GroupTableError(ValueError):
    """A supplied Cayley table violates a group axiom."""


class SizeCapError(ValueError):
    """A requested construction or enumeration exceeds its size cap."""


class FamilyNotInvariantError(ValueError):
    """A subgroup family is not conjugation invariant and auto-closure is off."""


class FiniteGroup:
    """A finite group given by its Cayley table.

    ``table[a, b]`` is the index of the product a*b, the identity is
    index 0 and ``inverse[a]`` is the index of a^-1, read as the position
    of 0 in row a.  The table must already be a group table with identity
    0: nothing is checked here.  The constructors below build one, and
    ``cayley_group`` validates a table from outside the library.
    """

    __slots__ = ("order", "table", "inverse", "name", "_orders")

    def __init__(self, table, name: str = "G"):
        table = np.ascontiguousarray(table, dtype=np.int32)
        inv = np.argmin(table, axis=1).astype(np.int32)
        table.setflags(write=False)
        inv.setflags(write=False)
        self.order = int(table.shape[0])
        self.table = table
        self.inverse = inv
        self.name = name
        self._orders = None    # element_orders, computed on first call

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return int(self.table[self.table[g, x], self.inverse[g]])

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = int(self.table[x, g])
            k += 1
        return k

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def _associativity_failure(table: np.ndarray) -> Optional[int]:
    """A generator a with (x a) y != x (a y) for some x, y; None if associative.

    Light's test: the elements a with (x a) y = x (a y) for all x, y hold
    the identity and are closed under the product, since (x (a b)) y =
    ((x a) b) y = (x a) (b y) = x (a (b y)) = x ((a b) y).  So when the
    generators pass, so does each of their left products, ``_closure``, and
    testing generators whose closure is the whole table suffices.  They are
    chosen greedily, each the smallest element outside the closure of those
    chosen so far; on a loop that is no group, left products may close up
    differently from all products, which changes the generators but not the
    verdict.  Each closure looks up |R| products per generator, with no
    |R|^2 gather, and each generator costs one O(n^2) check.
    """
    n = table.shape[0]
    gens, reached = [], {0}
    while len(reached) < n:
        gens.append(next(x for x in range(n) if x not in reached))
        reached = _closure(table, gens)
    for a in gens:
        if not np.array_equal(table[table[:, a]], table[:, table[a]]):
            return a
    return None


def _closure(table: np.ndarray, gens: Iterable[int]) -> set:
    """The identity and every left product g_1 (g_2 (... g_k)) of the
    generators, walked one frontier at a time with the identity left out
    of the multipliers: in a finite group, the subgroup they generate.
    """
    gens = sorted(set(gens) - {0})
    elems, frontier = {0}, [0]
    while frontier:
        new = []
        for b in frontier:
            for a in gens:
                c = table.item(a, b)
                if c not in elems:
                    elems.add(c)
                    new.append(c)
        frontier = new
    return elems


# ---------------------------------------------------------------------------
# constructors

# The constructors build group tables with whole-array index arithmetic,
# associative by construction, and FiniteGroup checks none of them; the
# tests check each against a per-entry loop reference and run every
# cayley_group check on it.  cayley_group checks every axiom of a table
# from outside.

def _leaf_order(kind: str, n: int) -> int:
    """The order of ``cyclic(n)``, ``dihedral(n)`` or ``symmetric_group(n)``
    (``kind`` as in ``make_group``), or the constructor's refusal of an n
    it does not build, raised before anything is allocated."""
    if kind == "symmetric":
        if not 1 <= n <= 5:
            raise ValueError("symmetric groups are supported for 1 <= n <= 5")
        return math.factorial(n)
    if n < 1:
        raise ValueError("cyclic order must be >= 1" if kind == "cyclic"
                         else "dihedral parameter must be >= 1")
    return _check_order(n if kind == "cyclic" else 2 * n, "order {}")


def _check_order(order: int, what: str) -> int:
    """``order``, or SizeCapError "<what, formatted with the order> exceeds
    cap <DEFAULT_ORDER_CAP>" when it passes the cap."""
    if order > DEFAULT_ORDER_CAP:
        raise SizeCapError(f"{what.format(order)} exceeds cap {DEFAULT_ORDER_CAP}")
    return order


def cyclic(n: int) -> FiniteGroup:
    _leaf_order("cyclic", n)
    idx = np.arange(n, dtype=np.int32)
    table = np.add.outer(idx, idx)
    np.remainder(table, n, out=table)
    return FiniteGroup(table, name=f"C{n}")


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on lexicographically ordered permutation tuples; (p*q)(i) = p[q[i]]."""
    _leaf_order("symmetric", n)
    perms = np.array(list(permutations(range(n))), dtype=np.int64).reshape(-1, n)
    # a permutation's base-n digits, most significant first, increase in
    # lexicographic order, so its index is the rank of that number
    weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    products = perms[np.arange(len(perms))[:, None, None], perms[None, :, :]]
    table = np.searchsorted(perms @ weights, products @ weights)
    return FiniteGroup(table, name=f"S{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; element f*n + k encodes flip^f rot^k.

    flip^f1 rot^k1 flip^f2 rot^k2 = flip^(f1 xor f2) rot^(k1 -+ k2), so the
    table is four blocks read from C_n's: entry (k1, k2) of ``c`` is k1 + k2
    and of ``neg`` k1 - k2, mod n, and the flipped blocks add n.
    """
    _leaf_order("dihedral", n)
    c = cyclic(n).table
    neg = c[:, -np.arange(n)]
    return FiniteGroup(np.block([[c, c + n], [neg + n, neg]]), name=f"D{n}")


_Q8_AXIS = np.array(((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)))
_Q8_SIGN = np.array(((0, 0, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1)))


def quaternion_group() -> FiniteGroup:
    """Q8 with element 2*axis + sign over the ordered basis 1, i, j, k."""
    sign, axis = np.arange(8) & 1, np.arange(8) >> 1
    # sign rule: i*j = k, j*k = i, k*i = j, squares of i,j,k are -1; row 0
    # and column 0 of _Q8_SIGN are zero, so 1 commutes without a flip
    flip = _Q8_SIGN[axis[:, None], axis[None, :]]
    table = (2 * _Q8_AXIS[axis[:, None], axis[None, :]]
             + (sign[:, None] ^ sign[None, :] ^ flip))
    return FiniteGroup(table, name="Q8")


def direct_product(factors: Sequence[FiniteGroup]) -> FiniteGroup:
    """Direct product with mixed-radix element indexing, leftmost factor most significant."""
    if not factors:
        return cyclic(1)
    _check_order(math.prod(g.order for g in factors), "product order {}")
    table = np.zeros((1, 1), dtype=np.int32)
    for g in factors:
        m = g.order
        # index (a, x) -> a*m + x
        table = (table[:, None, :, None] * m + g.table[None, :, None, :])
        table = table.reshape(table.shape[0] * m, table.shape[2] * m)
    name = " x ".join(g.name for g in factors)
    return FiniteGroup(table, name=name)


def cayley_group(table) -> FiniteGroup:
    """A group from a Cayley table the library did not build, checked
    against every group axiom: integer entries in range, identity 0 on
    both sides, a Latin square, two-sided inverses and Light's
    associativity test.  Raises GroupTableError on the first that fails.
    """
    table = np.asarray(table)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise GroupTableError("Cayley table must be square")
    n = _check_order(int(table.shape[0]), "explicit table order")
    if n == 0:
        raise GroupTableError("empty Cayley table")
    # range first, on the uncast entries: Python ints past int64 arrive as
    # float64 or object arrays, and an int32 cast wraps 2^32 to 0
    if table.dtype.kind in "biufO" and (table.min() < 0 or table.max() >= n):
        raise GroupTableError("table entries out of range")
    if table.dtype.kind not in "iu":
        raise GroupTableError(f"table entries must be integers, got {table.dtype}")
    # a copy: FiniteGroup freezes the array it stores, which is not the caller's
    group = FiniteGroup(table.astype(np.int32), name=f"cayley[{n}]")
    table, inv = group.table, group.inverse
    idx = np.arange(n, dtype=np.int32)
    if not np.array_equal(table[0], idx) or not np.array_equal(table[:, 0], idx):
        raise GroupTableError("index 0 is not a two-sided identity")
    # Latin square: n entries per row (column) that hit all n values
    hit = np.zeros((n, n), dtype=bool)
    hit[idx[:, None], table] = True
    rows_ok = hit.all()
    hit[...] = False
    hit[table, idx] = True
    if not (rows_ok and hit.all()):
        raise GroupTableError("table rows/columns are not permutations")
    del hit
    # each row holds one 0, at the right inverse; it must be two-sided
    left = table[inv, idx]
    if left.any():
        a = int(np.flatnonzero(left)[0])
        raise GroupTableError(f"element {a} has no two-sided inverse")
    a = _associativity_failure(table)
    if a is not None:
        raise GroupTableError(f"associativity fails involving element {a}")
    return group


def make_group(spec: dict) -> FiniteGroup:
    """Build a group from a JSON-style specification dict.

    Supported kinds: {"kind": "cyclic", "n": 6}, {"kind": "product",
    "factors": [...]}, {"kind": "symmetric", "n": 4}, {"kind":
    "dihedral", "n": 5}, {"kind": "quaternion8"}, {"kind": "cayley",
    "table": [[...]]}.  The whole spec is priced before anything is built
    (``_priced_spec``): a product is refused at the first factor whose
    running order passes DEFAULT_ORDER_CAP, with no factor built.
    """
    return _priced_spec(spec)[1]()


def _priced_spec(spec) -> tuple:
    """(order, build): the order of the group a spec describes, read from
    the spec with every field check, size cap and message of the build, and
    a callable that builds the group.  Only a Cayley table's entries and
    axioms are left to ``build``.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("group spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    if kind in ("cyclic", "symmetric", "dihedral"):
        n = _spec_int(_spec_field(spec, "n", f"{kind} group spec"), "n")
        build = {"cyclic": cyclic, "symmetric": symmetric_group, "dihedral": dihedral}[kind]
        return _leaf_order(kind, n), lambda: build(n)
    if kind == "product":
        order, builds = 1, []
        for f in _spec_list(_spec_field(spec, "factors", "product group spec"), "factors"):
            factor_order, factor_build = _priced_spec(f)
            order = _check_order(order * factor_order, "product order {}")
            builds.append(factor_build)
        return order, lambda: direct_product([build() for build in builds])
    if kind == "quaternion8":
        return 8, quaternion_group
    if kind == "cayley":
        rows = _spec_field(spec, "table", "cayley group spec")
        if not (isinstance(rows, list) and rows and all(
                isinstance(row, list) and len(row) == len(rows) for row in rows)):
            raise GroupTableError("Cayley table must be square")
        return _check_order(len(rows), "explicit table order"), lambda: cayley_group(
            [[_spec_int(x, "table entry") for x in row] for row in rows])
    raise ValueError(f"unknown group kind {kind!r}")


def _spec_field(spec: dict, key: str, what: str):
    """spec[key], or ValueError naming the missing key."""
    if key not in spec:
        raise ValueError(f"{what} has no {key!r} key")
    return spec[key]


def _spec_list(value, what: str) -> list:
    """A JSON list: a dict, a string, a number or null does not pass."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def _spec_int(value, what: str) -> int:
    """An integral JSON number: 6 and 6.0 pass, 1.5, true and "6" do not."""
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or (isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# subgroups

def subgroup_generated(group: FiniteGroup, gens: Iterable[int]) -> tuple:
    """Smallest subgroup containing ``gens``, as a sorted index tuple: the
    left products of the generators, ``_closure``."""
    gens = sorted(set(gens))
    for g in gens:
        if not 0 <= g < group.order:
            raise IndexError(f"generator {g} out of range for order {group.order}")
    return tuple(sorted(_closure(group.table, gens)))


def element_orders(group: FiniteGroup) -> np.ndarray:
    """The order of every element, as a read-only int64 array indexed by
    element, computed once per group.

    An element's order is the smallest divisor d of |G| with g^d = 1, so
    the divisors are tried in increasing order, each power g^d taken for
    all elements at once from the repeated squares g^(2^j).
    """
    if group._orders is not None:
        return group._orders
    n, table = group.order, group.table
    squares = [np.arange(n)]
    while 1 << len(squares) <= n:
        squares.append(table[squares[-1], squares[-1]])
    orders = np.zeros(n, dtype=np.int64)
    for d in (d for d in range(1, n + 1) if n % d == 0):
        power = np.zeros(n, dtype=np.intp)
        for j, square in enumerate(squares):
            if d >> j & 1:
                power = table[power, square]
        orders[(power == 0) & (orders == 0)] = d
    orders.setflags(write=False)
    group._orders = orders
    return orders


def is_subgroup(group: FiniteGroup, elems: Sequence[int]) -> bool:
    """``elems`` (repeats allowed) holds 0 and is closed under the product:
    one membership mask and one |X| x |X| gather of the table."""
    member = np.zeros(group.order, dtype=bool)
    member[np.asarray(elems, dtype=np.intp)] = True
    x = np.flatnonzero(member)
    return bool(member[0] and member[group.table[x[:, None], x]].all())


def _require_subgroup(group: FiniteGroup, sub: Sequence[int]) -> None:
    """Raise ValueError unless ``sub`` lists the elements of a subgroup, once each."""
    for x in sub:
        if not 0 <= x < group.order:
            raise ValueError(f"element {x} out of range for order {group.order}")
    if len(set(sub)) != len(sub):
        raise ValueError(f"{tuple(sub)} repeats an element")
    if not is_subgroup(group, sub):
        raise ValueError(f"{tuple(sub)} is not a subgroup")


def enumerate_subgroups(group: FiniteGroup) -> list:
    """All subgroups, each once, sorted by size then lexicographically.

    Each subgroup is kept with the generators it was first found from, and
    grows by one element g outside it at a time into the ``_closure`` of
    those generators and g, so a walk multiplies by a few generators rather
    than by every element of the subgroup.
    """
    if group.order > DEFAULT_LATTICE_CAP:
        raise SizeCapError(f"subgroup enumeration capped at order "
                           f"{DEFAULT_LATTICE_CAP}; got {group.order}")
    found = {(0,): ()}      # subgroup -> the generators it was found from
    frontier = [(0,)]
    while frontier:
        new = []
        for sub in frontier:
            have = set(sub)
            for g in range(1, group.order):
                if g in have:
                    continue
                gens = found[sub] + (g,)
                bigger = tuple(sorted(_closure(group.table, gens)))
                if bigger not in found:
                    found[bigger] = gens
                    new.append(bigger)
        frontier = new
    return sorted(found, key=lambda s: (len(s), s))


# table entries a blocked gather takes at once (256 KiB in int32)
GATHER_BLOCK = 1 << 16


class CosetTable(NamedTuple):
    """The left cosets of a family's members, numbered as ``coset_index``."""

    index: np.ndarray     # (members, order) int32: entry (u, g) numbers g X_u
    reps: np.ndarray      # per coset, its smallest element
    ranges: np.ndarray    # per coset y X, the member y X y^-1, or -1 if none is
    outside: tuple        # the conjugates y X y^-1 that are no member, sorted


@dataclass(frozen=True)
class SubgroupFamily:
    """A conjugation-invariant set of subgroups in canonical sorted form."""

    group: FiniteGroup
    members: tuple

    @cached_property
    def cosets(self) -> CosetTable:
        """The members' coset table in ``self.group``, shared by every reader."""
        return _coset_table(self.group, self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, sub) -> bool:
        return tuple(sub) in self.members


def _canonical_members(subs: Iterable[Sequence[int]]) -> tuple:
    return tuple(sorted({tuple(sorted(s)) for s in subs}, key=lambda s: (len(s), s)))


def make_family(group: FiniteGroup, subgroups: Iterable[Sequence[int]],
                auto_close: bool = True) -> SubgroupFamily:
    """Canonicalize a set of subgroups into a conjugation-invariant family.

    Families that are not invariant are closed under conjugation with a
    warning unless ``auto_close`` is False, in which case they are rejected.
    """
    members = _canonical_members(subgroups)
    family = conjugation_closure(group, members)
    if family.members != members:
        if not auto_close:
            raise FamilyNotInvariantError(
                "subgroup family is not conjugation invariant")
        warnings.warn("subgroup family was not conjugation invariant; "
                      "closed it under conjugation", stacklevel=2)
    return family


def conjugation_closure(group: FiniteGroup, seeds: Iterable[Sequence[int]]) -> SubgroupFamily:
    """Smallest conjugation-invariant family containing the seed subgroups:
    the seeds' own family, coset table included, if it is invariant."""
    seeds = [tuple(sorted(s)) for s in seeds]
    family = SubgroupFamily(group, _canonical_members(seeds))
    try:
        outside = family.cosets.outside
    except ValueError:
        for sub in seeds:       # name the first bad seed in the order given
            _require_subgroup(group, sub)
        raise
    return SubgroupFamily(group, _canonical_members([*seeds, *outside])) if outside else family


def minimal_subgroups(group: FiniteGroup) -> SubgroupFamily:
    """The cyclic subgroups of prime order, as an invariant family.

    An element g of prime order p lies in exactly one subgroup of order p,
    ``_closure`` of g, so an element that a found subgroup holds is skipped.
    """
    orders = element_orders(group)
    covered = np.zeros(group.order, dtype=bool)
    members = []
    for g in np.flatnonzero(_prime_mask(orders)).tolist():
        if covered[g]:
            continue
        sub = list(_closure(group.table, (g,)))
        covered[sub] = True
        members.append(sub)
    return SubgroupFamily(group, _canonical_members(members))


def _prime_mask(values: np.ndarray) -> np.ndarray:
    """values[i] is prime, for an array of positive integers: one sieve
    of Eratosthenes up to the largest value."""
    prime = np.ones(int(values.max()) + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(len(prime) - 1) + 1):
        if prime[p]:
            prime[p * p::p] = False
    return prime[values]


def normal_closure_subgroup(group: FiniteGroup, family: SubgroupFamily) -> tuple:
    """Subgroup generated by all members and their conjugates; normal in the group."""
    outside = coset_table(group, family).outside
    return subgroup_generated(group, {x for sub in family.members + outside for x in sub})


# ---------------------------------------------------------------------------
# cosets

class Coset(NamedTuple):
    elements: tuple
    representative: int
    subgroup: tuple


def left_coset(group: FiniteGroup, g: int, sub: Sequence[int]) -> tuple:
    return tuple(sorted(int(group.table[g, x]) for x in sub))


def coset_index(group: FiniteGroup, family: SubgroupFamily) -> np.ndarray:
    """The coset numbering: entry (u, g) is the position of g*X_u in
    ``distinct_cosets``, the read-only int32 index of ``coset_table``."""
    return coset_table(group, family).index


def coset_table(group: FiniteGroup, family: SubgroupFamily) -> CosetTable:
    """``family.cosets``, or the table built afresh on another group."""
    if not family.members:
        raise ValueError("family must be non-empty")
    return family.cosets if group is family.group else _coset_table(group, family.members)


def _coset_table(group: FiniteGroup, members: tuple) -> CosetTable:
    """Validate, number, represent and conjugate the members' cosets, a
    block of members of one size (at most GATHER_BLOCK entries, or one
    member) at a time; a member that is not a subgroup gets the error of
    ``_require_subgroup``.  g represents g X exactly when min(g X) = g.
    y X y^-1 depends only on y X, so a coset's range is the conjugate by its
    representative, looked up among the members of its size.
    """
    n, table, inverse = group.order, group.table, group.inverse
    for sub in members:
        if not (0 in sub and 0 <= min(sub) and max(sub) < n and len(set(sub)) == len(sub)):
            _require_subgroup(group, sub)
    sizes = np.array([len(sub) for sub in members], dtype=np.intp)
    counts = n // sizes
    starts = counts.cumsum() - counts
    index = np.empty((len(members), n), dtype=np.int32)
    reps, ranges = np.empty((2, int(counts.sum())), dtype=np.intp)
    outside = []
    for size in sorted(set(sizes.tolist())):
        us = (sizes == size).nonzero()[0]
        subs = np.array([members[u] for u in us], dtype=table.dtype)
        k, step = n // size, max(1, GATHER_BLOCK // (n * size))
        for block in (slice(p, p + step) for p in range(0, len(us), step)):
            x, at = subs[block], starts[us[block], None] + np.arange(k)
            rows = np.arange(len(x))[:, None]
            mins = table[:, x].min(axis=2).T                   # min(g X_u)
            # X holds 0, so it is closed iff each x y X holds 0 (x = 0: X = X^-1)
            ok = (mins == 0)[rows, table[x[:, :, None], x[:, None]].reshape(len(x), -1)].all(1)
            if not ok.all():
                _require_subgroup(group, members[us[block][np.argmin(ok)]])
            first = mins == np.arange(n)
            index[us[block]] = first.cumsum(axis=1)[rows, mins] + (at[:, :1] - 1)
            reps[at] = c = first.nonzero()[1].reshape(len(x), k)      # c_0 < c_1 < ...
            conj = table[table[c[:, :, None], x[:, None, :]], inverse[c][:, :, None]]
            conj.sort(axis=2)
            owner = np.where((conj == x[:, None, :]).all(axis=2), us[block, None], -1)
            moved = owner < 0
            if moved.any() and len(us) > 1:   # search the other members' rows as bytes
                key = np.dtype((np.void, subs.itemsize * size))
                have, want = subs.view(key).ravel(), conj[moved].view(key).ravel()
                order = have.argsort()
                hit = order[np.searchsorted(have, want, sorter=order).clip(max=len(us) - 1)]
                owner[moved] = np.where(have[hit] == want, us[hit], -1)
            ranges[at] = owner
            outside += map(tuple, conj[owner < 0].tolist())
    for array in (index, reps, ranges):
        array.setflags(write=False)
    return CosetTable(index, reps, ranges, _canonical_members(outside))


def cosets_of_subgroup(group: FiniteGroup, sub: Sequence[int]) -> list:
    """Left cosets of one subgroup, ordered by smallest representative."""
    return distinct_cosets(group, SubgroupFamily(group, (tuple(sorted(sub)),)))


def distinct_cosets(group: FiniteGroup, family: SubgroupFamily) -> list:
    """All left cosets g*X over the family, deduplicated.

    Cosets of distinct subgroups are distinct as sets, so the result is
    ordered by family member (size then lexicographic) and, within a
    member, by smallest representative: the numbering of ``coset_index``.
    """
    out = []
    for sub, ids in zip(family.members, coset_index(group, family)):
        # a stable sort by id lists each coset's elements in increasing order
        rows = np.argsort(ids, kind="stable").reshape(-1, len(sub)).tolist()
        out.extend(Coset(tuple(row), row[0], sub) for row in rows)
    return out


def subgroup_as_group(group: FiniteGroup, sub: Sequence[int]) -> FiniteGroup:
    """The subgroup as a standalone group, re-indexed in sorted element order."""
    sub = tuple(sorted(sub))
    _require_subgroup(group, sub)
    x = np.array(sub, dtype=np.intp)
    table = np.searchsorted(x, group.table[x[:, None], x])
    return FiniteGroup(table, name=f"{group.name}|{list(sub)}")


def restrict_family(group: FiniteGroup, sub: Sequence[int],
                    family: SubgroupFamily) -> SubgroupFamily:
    """The family of intersections with a subgroup, re-indexed inside it."""
    sub = tuple(sorted(sub))
    inner = subgroup_as_group(group, sub)
    pos = {x: i for i, x in enumerate(sub)}
    sub_set = set(sub)
    members = {tuple(sorted(pos[x] for x in sub_set & set(m))) for m in family.members}
    return SubgroupFamily(inner, _canonical_members(members))


def parse_family(group: FiniteGroup, spec: dict, auto_close: bool = True) -> SubgroupFamily:
    """Build a family from a JSON-style spec.

    Supported forms: {"subgroups": [[0,3], ...]}, {"minimal": true},
    {"conjugacy_class_of": [0,3]}.  A spec naming more than one of them is
    refused.
    """
    if not isinstance(spec, dict):
        raise ValueError("family spec must be a dict")
    forms = [form for form in ("subgroups", "minimal", "conjugacy_class_of") if form in spec]
    if len(forms) > 1:
        raise ValueError(f"family spec gives more than one form: {', '.join(map(repr, forms))}")
    if spec.get("minimal"):
        return minimal_subgroups(group)
    if "conjugacy_class_of" in spec:
        seed = [_spec_int(x, "subgroup element")
                for x in _spec_list(spec["conjugacy_class_of"], "conjugacy_class_of")]
        return conjugation_closure(group, [seed])
    if "subgroups" in spec:
        subs = [tuple(_spec_int(x, "subgroup element") for x in _spec_list(s, "subgroups entry"))
                for s in _spec_list(spec["subgroups"], "subgroups")]
        return make_family(group, subs, auto_close=auto_close)
    raise ValueError("family spec needs 'subgroups', 'minimal' or 'conjugacy_class_of'")

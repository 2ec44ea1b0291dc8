"""Group construction, subgroup machinery and coset bookkeeping.

Brute-force oracles (exhaustive subset search, naive order computation)
pin down the derived counts before the library paths are trusted.
"""

import random
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from singideal.groups import (Coset, FamilyNotInvariantError, FiniteGroup,
                              GroupTableError, SizeCapError, SubgroupFamily,
                              cayley_group, conjugation_closure, coset_index,
                              cosets_of_subgroup, cyclic, dihedral,
                              direct_product, distinct_cosets, element_orders,
                              enumerate_subgroups, is_subgroup, left_coset,
                              make_family, make_group, minimal_subgroups,
                              normal_closure_subgroup, parse_family,
                              quaternion_group, restrict_family,
                              subgroup_as_group, subgroup_generated,
                              symmetric_group)
from singideal.groups import (DEFAULT_LATTICE_CAP, DEFAULT_ORDER_CAP,
                              _associativity_failure, _prime_mask)
import singideal.atlas
import singideal.groups
from singideal.atlas import abelian_groups_of_order


# the per-pair and all-|G| subgroup routines the table gathers replaced,
# kept as references

def loop_is_subgroup(group, elems):
    s = set(elems)
    if 0 not in s:
        return False
    return all(group.mul(a, b) in s for a in s for b in s)


def loop_conjugates(group, sub):
    """Every conjugate g X g^-1, one row per element g of the group."""
    rows = group.table[group.table[:, list(sub)], group.inverse[:, None]]
    return set(map(tuple, np.sort(rows, axis=1).tolist()))


def loop_subgroup_as_group(group, sub):
    sub = tuple(sorted(sub))
    for x in sub:
        if not 0 <= x < group.order:
            raise ValueError(f"element {x} out of range for order {group.order}")
    if len(set(sub)) != len(sub):
        raise ValueError(f"{tuple(sub)} repeats an element")
    if not loop_is_subgroup(group, sub):
        raise ValueError(f"{tuple(sub)} is not a subgroup")
    pos = {x: i for i, x in enumerate(sub)}
    table = [[pos[group.mul(a, b)] for b in sub] for a in sub]
    return FiniteGroup(table, name=f"{group.name}|{list(sub)}")


def brute_force_subgroups(group):
    """Oracle: every subset containing 0 that is closed under the table."""
    n = group.order
    found = []
    for mask in range(2 ** (n - 1)):
        elems = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1]
        if loop_is_subgroup(group, elems):
            found.append(tuple(elems))
    return sorted(found, key=lambda s: (len(s), s))


def brute_force_order(group, g):
    k, x = 1, g
    while x != 0:
        x = group.mul(x, g)
        k += 1
    return k


def transposition(s3):
    return next(g for g in s3.elements() if s3.element_order(g) == 2)


def test_constructor_orders():
    assert cyclic(1).order == 1
    assert symmetric_group(3).order == 6
    assert dihedral(5).order == 10
    assert quaternion_group().order == 8
    assert direct_product([cyclic(2), cyclic(3)]).order == 6


def test_quaternion_has_exactly_one_involution():
    q8 = quaternion_group()
    orders = [brute_force_order(q8, g) for g in q8.elements()]
    assert orders.count(2) == 1
    assert sorted(set(orders)) == [1, 2, 4]


@pytest.mark.parametrize("group", [cyclic(1), cyclic(7), cyclic(12),
                                   symmetric_group(4), dihedral(4), dihedral(5),
                                   quaternion_group(),
                                   direct_product([cyclic(2), cyclic(4)])])
def test_group_axioms_exhaustive(group):
    n = group.order
    assert n <= 64
    table = group.table
    idx = np.arange(n)
    assert np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)
    for a in range(n):
        assert table[a, group.inv(a)] == 0 and table[group.inv(a), a] == 0
        assert np.array_equal(table[table[a]], table[a][table])


# the per-entry Python builders the constructors replaced, kept as references

def loop_cyclic(n):
    return FiniteGroup([[(a + b) % n for b in range(n)] for a in range(n)], name=f"C{n}")


def loop_symmetric(n):
    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
    return FiniteGroup(table, name=f"S{n}")


def loop_dihedral(n):
    def mul(a, b):
        k1, f1 = a % n, a // n
        k2, f2 = b % n, b // n
        k = (k1 - k2) % n if f1 else (k1 + k2) % n
        return (f1 ^ f2) * n + k

    return FiniteGroup([[mul(a, b) for b in range(2 * n)] for a in range(2 * n)],
                       name=f"D{n}")


def loop_quaternion():
    axis = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    sign = ((0, 0, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1))

    def mul(a, b):
        s1, x1 = a & 1, a >> 1
        s2, x2 = b & 1, b >> 1
        flip = sign[x1][x2] if x1 and x2 else 0
        return 2 * axis[x1][x2] + (s1 ^ s2 ^ flip)

    return FiniteGroup([[mul(a, b) for b in range(8)] for a in range(8)], name="Q8")


def loop_product(factors):
    """Mixed radix, leftmost factor most significant, one entry at a time."""
    orders = [g.order for g in factors]

    def digits(x):
        out = []
        for m in reversed(orders):
            x, d = divmod(x, m)
            out.append(d)
        return out[::-1]

    def mul(a, b):
        out = 0
        for g, m, x, y in zip(factors, orders, digits(a), digits(b)):
            out = out * m + g.mul(x, y)
        return out

    n = int(np.prod(orders))
    return FiniteGroup([[mul(a, b) for b in range(n)] for a in range(n)],
                       name=" x ".join(g.name for g in factors))


def assert_same_group(built, reference):
    assert built.name == reference.name
    assert built.table.dtype == reference.table.dtype == np.int32
    assert built.table.tobytes() == reference.table.tobytes()
    assert built.inverse.tobytes() == reference.inverse.tobytes()


def test_constructors_match_the_loop_builders():
    for n in range(1, 6):
        assert_same_group(symmetric_group(n), loop_symmetric(n))
    for n in [*range(1, 13), 50]:
        assert_same_group(dihedral(n), loop_dihedral(n))
    assert_same_group(quaternion_group(), loop_quaternion())
    for n in range(1, 13):
        assert_same_group(cyclic(n), loop_cyclic(n))
    # the catalog's products, and products with non-abelian factors
    for factors in ([cyclic(2), cyclic(2)], [cyclic(2)] * 3, [cyclic(2), cyclic(4)],
                    [symmetric_group(3), cyclic(2)], [quaternion_group(), cyclic(3)]):
        assert_same_group(direct_product(factors), loop_product(factors))


def test_cyclic_5040_memory():
    # an int32 table built in place, which FiniteGroup stores as it is:
    # the table itself is 96.9 MiB
    tracemalloc.start()
    try:
        group = cyclic(5040)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.table[5039, 2] == 1
    assert peak < 192 * 2 ** 20, f"cyclic(5040) peaked at {peak / 2 ** 20:.1f} MiB"


def test_dihedral_2520_memory():
    # four blocks of C2520's table, 96.9 MiB again; the int64 outer sums
    # the table was once reduced from peaked at 581.5 MiB
    tracemalloc.start()
    try:
        group = dihedral(2520)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.table.dtype == np.int32
    # flip rot^1 . rot^2 = flip rot^-1, and rot^2 . flip rot^1 = flip rot^3
    assert group.table[2521, 2] == 2520 + 2519 and group.table[2, 2521] == 2523
    assert peak < 256 * 2 ** 20, f"dihedral(2520) peaked at {peak / 2 ** 20:.1f} MiB"


def test_element_orders_match_brute_force(catalog):
    for group in [*catalog, symmetric_group(5), dihedral(50), cyclic(360)]:
        orders = element_orders(group)
        assert orders.dtype == np.int64
        assert orders.tolist() == [brute_force_order(group, g) for g in group.elements()]
        assert orders.tolist() == [group.element_order(g) for g in group.elements()]


def test_element_orders_are_computed_once_per_group_and_read_only():
    group = dihedral(6)
    orders = element_orders(group)
    assert element_orders(group) is orders
    with pytest.raises(ValueError):
        orders[1] = 0


def test_atlas_builds_the_cyclic_factors_it_reports(monkeypatch):
    requested = []

    def counting_cyclic(q):
        requested.append(q)
        return cyclic(q)
    monkeypatch.setattr(singideal.atlas, "cyclic", counting_cyclic)
    report = singideal.atlas.ai_atlas(32)
    monkeypatch.undo()
    assert set(requested) == {q for row in report["rows"] for q in map(int, row["factors"])}
    assert report == singideal.atlas.ai_atlas(32)


def loop_minimal_subgroups(group):
    """Reference: the powers of each element of prime order, one ``mul`` at
    a time."""
    subs = set()
    for g in group.elements():
        powers, x = [0], g
        while x:
            powers.append(x)
            x = group.mul(x, g)
        k = len(powers)
        if k > 1 and all(k % d for d in range(2, k)):
            subs.add(tuple(sorted(powers)))
    return tuple(sorted(subs, key=lambda s: (len(s), s)))


def test_minimal_subgroups_match_the_loop_reference(catalog):
    atlas = [g for n in range(1, 65) for _, g in abelian_groups_of_order(n)]
    for group in [*catalog, symmetric_group(5), dihedral(50), *atlas]:
        assert minimal_subgroups(group).members == loop_minimal_subgroups(group)


def test_conjugation_closure_matches_the_loop_reference():
    def loop_closure(group, seeds):
        conj = {tuple(sorted(group.conjugate(g, x) for x in sub))
                for sub in seeds for g in group.elements()}
        return tuple(sorted(conj, key=lambda s: (len(s), s)))

    for group in (symmetric_group(4), dihedral(5), quaternion_group(),
                  direct_product([symmetric_group(3), cyclic(2)])):
        subs = enumerate_subgroups(group)
        for sub in subs:
            assert conjugation_closure(group, [sub]).members == loop_closure(group, [sub])
        assert make_family(group, subs, auto_close=False).members == loop_closure(group, subs)


def test_coset_index_is_one_read_only_array_per_family():
    s4 = symmetric_group(4)
    family = minimal_subgroups(s4)
    index = coset_index(s4, family)
    assert coset_index(s4, family) is index is family.cosets.index
    assert not hasattr(family, "coset_index")
    assert not index.flags.writeable
    with pytest.raises(ValueError):
        index[0, 0] = 1
    # a fresh family numbers its cosets afresh, to the same array
    again = minimal_subgroups(s4)
    assert coset_index(s4, again) is not index
    assert np.array_equal(coset_index(s4, again), index)
    # and a family of another group object is numbered on the group passed
    other = symmetric_group(4)
    assert np.array_equal(coset_index(other, family), index)


def test_invalid_tables_rejected():
    with pytest.raises(GroupTableError, match="not permutations"):
        cayley_group([[0, 1], [1, 1]])  # not a Latin square
    with pytest.raises(GroupTableError, match="not a two-sided identity"):
        cayley_group([[1, 0], [0, 1]])  # 0 not the identity
    # intercalate swap inside the C6 table keeps the Latin property,
    # the identity and all inverses, but destroys associativity:
    # (1*1)*(4*4) = 5*5 = 4 while ((1*(1*4))*4) = 3*4 = 1
    loop = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    loop[1][1], loop[1][4] = loop[1][4], loop[1][1]
    loop[4][1], loop[4][4] = loop[4][4], loop[4][1]
    with pytest.raises(GroupTableError, match="associativity fails"):
        cayley_group(loop)
    # entries that are not integers are refused, not truncated or parsed
    # into C2
    for table in ([[0, 1], [1, 0.7]], [[0.0, 1.9], [1.2, 0.4]],
                  [["0", "1"], ["1", "0"]], [[False, True], [True, False]]):
        with pytest.raises(GroupTableError, match="^table entries must be integers"):
            cayley_group(table)
    # the range is checked before the int32 cast, which wraps 2^32 to 0;
    # Python ints past int64 arrive as float64 or object arrays
    with pytest.raises(GroupTableError, match="^table entries out of range$"):
        cayley_group(np.array([[0, 1], [1, 2 ** 32]]))
    for big in (2, -1, 2 ** 31, 2 ** 63, 2 ** 64, 2 ** 70, -2 ** 63 - 1, -2 ** 70):
        with pytest.raises(GroupTableError, match="^table entries out of range$"):
            cayley_group([[0, 1], [1, big]])
    with pytest.raises(GroupTableError, match="^empty Cayley table$"):
        cayley_group(np.zeros((0, 0)))
    with pytest.raises(GroupTableError, match="^Cayley table must be square$"):
        cayley_group(np.zeros((2, 3), dtype=np.int32))


def test_whole_array_checks_reject_each_axiom():
    rows_only = [[0, 1, 2, 3], [1, 0, 2, 3], [2, 0, 1, 3], [3, 0, 1, 2]]
    for table in (rows_only, np.array(rows_only).T):
        with pytest.raises(GroupTableError, match="not permutations"):
            cayley_group(table)
    # a Latin square with identity in which 2 * 3 = 0 but 3 * 2 = 1
    one_sided = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1],
                 [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]
    with pytest.raises(GroupTableError, match="element 2 has no two-sided inverse"):
        cayley_group(one_sided)


def test_every_constructor_builds_a_valid_table(catalog):
    # FiniteGroup checks nothing, so every table the library builds must
    # pass every cayley_group check, Light's test included
    s4 = symmetric_group(4)
    groups = [*catalog, *(subgroup_as_group(s4, sub) for sub in enumerate_subgroups(s4)),
              symmetric_group(5), dihedral(50), direct_product([cyclic(2)] * 6), cyclic(360),
              dihedral(256), direct_product([cyclic(2)] * 9), cyclic(5040)]
    for group in groups:
        checked = cayley_group(group.table)
        assert np.array_equal(checked.table, group.table), group.name
        assert np.array_equal(checked.inverse, group.inverse), group.name


def test_only_cayley_group_validates(monkeypatch):
    calls = []
    real = singideal.groups._associativity_failure

    def counting(table):
        calls.append(table.shape[0])
        return real(table)
    monkeypatch.setattr(singideal.groups, "_associativity_failure", counting)
    s4 = symmetric_group(4)
    a4 = next(sub for sub in enumerate_subgroups(s4) if len(sub) == 12)
    cyclic(12), dihedral(5), quaternion_group(), direct_product([s4, cyclic(2)])
    subgroup_as_group(s4, a4), make_group({"kind": "cyclic", "n": 360})
    assert calls == []
    assert cayley_group(s4.table).order == 24
    assert make_group({"kind": "cayley", "table": [[0, 1], [1, 0]]}).order == 2
    assert calls == [24, 2]
    # FiniteGroup takes a table that is no group without a check
    assert FiniteGroup([[0, 1], [1, 1]]).order == 2
    assert calls == [24, 2]


def brute_force_associative(table):
    """Oracle: (a b) c = a (b c) for every triple, one row of a at a time."""
    return all(np.array_equal(table[table[a]], table[a][table])
               for a in range(table.shape[0]))


def random_loop(rng, base):
    """A Latin square with identity 0, from intercalate swaps of a group table.

    An intercalate is a 2x2 subsquare [[x, y], [y, x]] at rows r1, r2 and
    columns c1, c2 (all non-zero); swapping x and y keeps the Latin
    property and row and column 0.
    """
    table = np.array(base.table)
    n = base.order
    for _ in range(rng.randint(1, 4)):
        spots = [(r1, r2, c1, c2)
                 for r1 in range(1, n) for r2 in range(r1 + 1, n)
                 for c1 in range(1, n) for c2 in range(c1 + 1, n)
                 if table[r1, c1] == table[r2, c2]
                 and table[r1, c2] == table[r2, c1]]
        if not spots:
            break
        r1, r2, c1, c2 = rng.choice(spots)
        for r in (r1, r2):
            table[r, c1], table[r, c2] = table[r, c2], table[r, c1]
    return table


def test_light_associativity_check_matches_brute_force(catalog):
    for group in catalog:
        assert _associativity_failure(group.table) is None
        assert brute_force_associative(group.table)
    # cyclic tables, and tables that need more than one generator: three
    # for C2^3 and C2 x C2 x C3, where left products of the generators
    # can close a loop differently from all products
    bases = [cyclic(4), cyclic(6), cyclic(8), direct_product([cyclic(2)] * 2),
             direct_product([cyclic(2)] * 3), direct_product([cyclic(2), cyclic(4)]),
             direct_product([cyclic(2), cyclic(2), cyclic(3)]),
             direct_product([cyclic(2), cyclic(6)]), dihedral(4), quaternion_group()]
    rng = random.Random(11)
    verdicts = []
    for trial in range(80):
        table = random_loop(rng, rng.choice(bases))
        idx = np.arange(table.shape[0])
        assert (np.sort(table, axis=0) == idx[:, None]).all()
        assert (np.sort(table, axis=1) == idx).all()
        assert np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)
        verdict = brute_force_associative(table)
        assert (_associativity_failure(table) is None) == verdict, table
        verdicts.append(verdict)
    # the sample has groups and non-associative loops alike
    assert any(verdicts) and not all(verdicts)


def test_make_group_specs_and_caps():
    assert make_group({"kind": "cyclic", "n": 6}).order == 6
    assert make_group({"kind": "quaternion8"}).name == "Q8"
    prod = make_group({"kind": "product", "factors": [
        {"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 2}]})
    assert prod.order == 4 and prod.is_abelian
    with pytest.raises(SizeCapError, match=f"^order 6000 exceeds cap {DEFAULT_ORDER_CAP}$"):
        make_group({"kind": "cyclic", "n": 6000})
    with pytest.raises(SizeCapError, match=f"^order 5042 exceeds cap {DEFAULT_ORDER_CAP}$"):
        make_group({"kind": "dihedral", "n": 2521})
    with pytest.raises(SizeCapError,
                       match=f"^product order 6084 exceeds cap {DEFAULT_ORDER_CAP}$"):
        make_group({"kind": "product", "factors": [{"kind": "cyclic", "n": 78}] * 2})
    with pytest.raises(SizeCapError,
                       match=f"^explicit table order exceeds cap {DEFAULT_ORDER_CAP}$"):
        cayley_group(np.broadcast_to(np.int32(0), (5041, 5041)))
    # a spec's table is refused by its row count, before an entry is read
    with pytest.raises(SizeCapError,
                       match=f"^explicit table order exceeds cap {DEFAULT_ORDER_CAP}$"):
        make_group({"kind": "cayley", "table": [[0] * 5041] * 5041})
    with pytest.raises(ValueError, match="^dihedral parameter must be >= 1$"):
        dihedral(0)
    assert cayley_group([[0, 1], [1, 0]]).name == "cayley[2]"
    # the caller's array is copied, not frozen
    mine = np.array([[0, 1], [1, 0]], dtype=np.int32)
    assert cayley_group(mine).table is not mine and mine.flags.writeable
    with pytest.raises(ValueError):
        make_group({"kind": "symmetric", "n": 6})
    with pytest.raises(ValueError):
        make_group({"kind": "nope"})


def test_library_constructors_refuse_past_the_cap_before_allocating():
    # without the check, cyclic(6000) builds a 137 MiB table and
    # dihedral(40000) asks numpy for 47.7 GiB
    for build, n, order in ((cyclic, 6000, 6000), (dihedral, 2521, 5042),
                            (dihedral, 40000, 80000)):
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError,
                               match=f"^order {order} exceeds cap {DEFAULT_ORDER_CAP}$"):
                build(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, f"{build.__name__}({n}) peaked at {peak / 2 ** 20:.1f} MiB"


def test_product_spec_is_refused_once_its_factors_pass_the_cap():
    # building all thirty C1000 factors before the check took 115 MiB;
    # the second one passes the cap
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError,
                           match=f"^product order 1000000 exceeds cap {DEFAULT_ORDER_CAP}$"):
            make_group({"kind": "product", "factors": [{"kind": "cyclic", "n": 1000}] * 30})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, f"peaked at {peak / 2 ** 20:.1f} MiB"
    assert cyclic(DEFAULT_ORDER_CAP).order == DEFAULT_ORDER_CAP
    assert dihedral(DEFAULT_ORDER_CAP // 2).order == DEFAULT_ORDER_CAP


@pytest.mark.parametrize("factors, order", [
    ([{"kind": "cyclic", "n": 5040}] * 3, 25401600),
    ([{"kind": "dihedral", "n": 2520}, {"kind": "cyclic", "n": 2}], 10080),
])
def test_product_spec_is_priced_before_any_factor_is_built(factors, order):
    # each factor's order is read from its spec: building the factors up to
    # the one past the cap took 194 MiB for three C5040 and 581 MiB for D2520
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError,
                           match=f"^product order {order} exceeds cap {DEFAULT_ORDER_CAP}$"):
            make_group({"kind": "product", "factors": factors})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, f"peaked at {peak / 2 ** 20:.1f} MiB"


def product_closure(group, gens):
    """Oracle: all products of the elements reached, until nothing is new."""
    elems = {0, *gens}
    while True:
        more = elems | {group.mul(a, b) for a in elems for b in elems}
        if more == elems:
            return tuple(sorted(elems))
        elems = more


def test_subgroup_generated(catalog):
    g6 = cyclic(6)
    assert subgroup_generated(g6, {3}) == (0, 3)
    assert subgroup_generated(g6, set()) == (0,)
    s3 = symmetric_group(3)
    t = transposition(s3)
    three_cycle = next(g for g in s3.elements() if s3.element_order(g) == 3)
    assert subgroup_generated(s3, {t, three_cycle}) == tuple(range(6))
    with pytest.raises(IndexError):
        subgroup_generated(g6, {7})
    # every generator pair, one element when the two are equal
    for group in catalog:
        for a in group.elements():
            for b in range(a, group.order):
                assert subgroup_generated(group, {a, b}) == product_closure(group, {a, b})


@pytest.mark.parametrize("group,count", [(cyclic(6), 4), (cyclic(1), 1),
                                         (symmetric_group(3), 6)])
def test_enumerate_subgroups_against_brute_force(group, count):
    subs = enumerate_subgroups(group)
    assert len(subs) == count
    assert subs == brute_force_subgroups(group)


def test_enumerate_subgroups_cap():
    with pytest.raises(SizeCapError, match=f"^subgroup enumeration capped at order "
                                           f"{DEFAULT_LATTICE_CAP}; got 64$"):
        enumerate_subgroups(direct_product([cyclic(8), cyclic(8)]))


def test_minimal_subgroups():
    assert minimal_subgroups(cyclic(4)).members == ((0, 2),)
    v4 = direct_product([cyclic(2), cyclic(2)])
    assert len(minimal_subgroups(v4)) == 3
    assert minimal_subgroups(cyclic(1)).members == ()
    # members have prime order and no proper non-trivial subgroup
    for group in (cyclic(12), symmetric_group(4), quaternion_group()):
        for sub in minimal_subgroups(group):
            proper = [s for s in brute_force_subgroups(subgroup_as_group(group, sub))
                      if 1 < len(s) < len(sub)]
            assert proper == []
            assert brute_force_order(group, sub[1]) == len(sub)


def test_conjugation_closure():
    s3 = symmetric_group(3)
    t = transposition(s3)
    fam = conjugation_closure(s3, [subgroup_generated(s3, (t,))])
    assert len(fam) == 3
    # idempotent and invariant
    again = conjugation_closure(s3, fam.members)
    assert again.members == fam.members
    g6 = cyclic(6)
    fam6 = conjugation_closure(g6, [(0, 3)])
    assert fam6.members == ((0, 3),)


def test_make_family_auto_close_warns():
    s3 = symmetric_group(3)
    t = transposition(s3)
    seed = subgroup_generated(s3, (t,))
    with pytest.warns(UserWarning):
        fam = make_family(s3, [seed])
    assert len(fam) == 3
    with pytest.raises(FamilyNotInvariantError):
        make_family(s3, [seed], auto_close=False)


def test_normal_closure():
    s3 = symmetric_group(3)
    t = transposition(s3)
    fam = conjugation_closure(s3, [subgroup_generated(s3, (t,))])
    closure = normal_closure_subgroup(s3, fam)
    assert closure == tuple(range(6))
    g6 = cyclic(6)
    assert normal_closure_subgroup(g6, make_family(g6, [(0, 3)])) == (0, 3)
    assert normal_closure_subgroup(g6, make_family(g6, [(0,)])) == (0,)
    # normality of the closure
    q8 = quaternion_group()
    n = normal_closure_subgroup(q8, minimal_subgroups(q8))
    assert all(q8.conjugate(g, x) in set(n) for g in q8.elements() for x in n)


def test_distinct_cosets():
    g6 = cyclic(6)
    cosets = distinct_cosets(g6, make_family(g6, [(0, 3)]))
    assert [c.elements for c in cosets] == [(0, 3), (1, 4), (2, 5)]
    assert [c.representative for c in cosets] == [0, 1, 2]
    trivial = distinct_cosets(g6, make_family(g6, [(0,)]))
    assert len(trivial) == 6
    whole = distinct_cosets(g6, make_family(g6, [tuple(range(6))]))
    assert len(whole) == 1


def reference_cosets_of_subgroup(group, sub):
    """Left cosets of one subgroup by a loop over the elements: each coset
    is listed when its smallest element comes up."""
    sub = tuple(sorted(sub))
    seen, out = set(), []
    for g in group.elements():
        elems = left_coset(group, g, sub)
        if elems not in seen:
            seen.add(elems)
            out.append(Coset(elems, elems[0], sub))
    return out


@pytest.fixture(scope="module")
def coset_cases(catalog_cases):
    """Every catalog case, S5 and D50 with their minimal families, and C720
    with {0, 360}."""
    c720 = cyclic(720)
    return (list(catalog_cases)
            + [(g, minimal_subgroups(g)) for g in (symmetric_group(5), dihedral(50))]
            + [(c720, make_family(c720, [(0, 360)]))])


def test_coset_index_matches_loop_reference(coset_cases):
    for group, family in coset_cases:
        reference = [c for sub in family.members
                     for c in reference_cosets_of_subgroup(group, sub)]
        assert distinct_cosets(group, family) == reference
        index = coset_index(group, family)
        assert index.dtype == np.int32
        assert index.shape == (len(family.members), group.order)
        position = {c.elements: i for i, c in enumerate(reference)}
        assert index.tolist() == [[position[left_coset(group, g, sub)]
                                   for g in group.elements()]
                                  for sub in family.members]
    with pytest.raises(ValueError):
        coset_index(cyclic(2), SubgroupFamily(cyclic(2), ()))


def test_lagrange_partition(catalog):
    for group in catalog:
        if group.order > 24:
            continue
        for sub in enumerate_subgroups(group):
            cosets = cosets_of_subgroup(group, sub)
            assert cosets == reference_cosets_of_subgroup(group, sub)
            assert len(cosets) * len(sub) == group.order
            covered = sorted(x for c in cosets for x in c.elements)
            assert covered == list(group.elements())


def test_restrict_family():
    g6 = cyclic(6)
    lam = (0, 2, 4)
    fam = make_family(g6, [(0, 3)])
    restricted = restrict_family(g6, lam, fam)
    assert restricted.members == ((0,),)
    assert restricted.group.order == 3
    # restricting by the whole group re-indexes but keeps the family
    whole = restrict_family(g6, tuple(range(6)), fam)
    assert whole.members == fam.members
    # restricting by the trivial subgroup collapses everything
    triv = restrict_family(g6, (0,), fam)
    assert triv.members == ((0,),)


def random_subsets(rng, group, count):
    """``count`` lists holding 0 and further elements drawn with
    replacement, so that most are not subgroups and many repeat one."""
    n = group.order
    out = []
    for _ in range(count):
        elems = [0] + rng.choices(range(n), k=rng.randint(0, n))
        rng.shuffle(elems)
        out.append(elems)
    return out


def subgroup_as_group_outcome(build, group, elems):
    try:
        inner = build(group, elems)
    except ValueError as exc:
        return str(exc)
    return inner.name, inner.table.tobytes(), inner.inverse.tobytes()


def table_conjugates(group, sub):
    """The conjugates of one subgroup read off the coset table of the
    family holding it alone: the member at every range that is not -1,
    and the conjugates outside the family; or the table's error."""
    family = SubgroupFamily(group, (tuple(sub),))
    try:
        cosets = family.cosets
    except ValueError as exc:
        return str(exc)
    return ({family.members[r] for r in cosets.ranges.tolist() if r >= 0}
            | set(cosets.outside))


def loop_validation(group, sub):
    """The loop reference's validation message for a sorted subset, or None."""
    try:
        loop_subgroup_as_group(group, sub)
    except ValueError as exc:
        return str(exc)
    return None


def test_subgroup_gathers_match_the_loop_references(catalog):
    rng = random.Random(5)
    subgroup_subsets = 0
    for group in catalog:
        for sub in enumerate_subgroups(group):
            assert is_subgroup(group, sub) and loop_is_subgroup(group, sub)
            assert table_conjugates(group, sub) == loop_conjugates(group, sub)
            assert (subgroup_as_group_outcome(subgroup_as_group, group, sub)
                    == subgroup_as_group_outcome(loop_subgroup_as_group, group, sub))
        subsets = random_subsets(rng, group, 200)
        # subsets without 0 and the empty subset
        subsets += [[x for x in elems if x] for elems in subsets[:20]]
        if group.order <= 8:
            # every subset holding 0: the table's closure test reads the
            # coset minima, so it is checked against the loop on all of them
            subsets += [[0] + [g for g in range(1, group.order) if mask >> g & 1]
                        for mask in range(0, 2 ** group.order, 2)]
        for elems in subsets:
            verdict = loop_is_subgroup(group, elems)
            assert is_subgroup(group, elems) == verdict, elems
            assert (subgroup_as_group_outcome(subgroup_as_group, group, elems)
                    == subgroup_as_group_outcome(loop_subgroup_as_group, group, elems))
            if verdict:
                # conjugation is defined on subgroups, listed once each
                sub = sorted(set(elems))
                assert table_conjugates(group, sub) == loop_conjugates(group, sub)
                subgroup_subsets += 1
            # the table refuses every other subset, repeats and all, with
            # the loop reference's message
            sub = sorted(elems)
            assert table_conjugates(group, sub) == (loop_validation(group, sub)
                                                    or loop_conjugates(group, sub))
    # the sample mixes subgroups with subsets that are not
    assert 0 < subgroup_subsets < 220 * len(catalog) // 2


def test_prime_mask_matches_trial_division():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    values = np.arange(1, 5041)
    assert _prime_mask(values).tolist() == [trial_division(n) for n in range(1, 5041)]
    assert _prime_mask(np.array([1])).tolist() == [False]
    assert _prime_mask(np.array([4, 2, 3, 1, 2])).tolist() == [False, True, True, False, True]


def test_parse_index_2_subgroup_of_c5040_memory():
    # the |X|^2 closure gather is 24 MiB and the |G| x |X| coset gather
    # 48 MiB; one conjugate per element of the group would be 2520 times more
    group = cyclic(5040)
    tracemalloc.start()
    try:
        family = parse_family(group, {"subgroups": [list(range(0, 5040, 2))]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert family.members == (tuple(range(0, 5040, 2)),)
    assert peak < 64 * 2 ** 20, f"parsing peaked at {peak / 2 ** 20:.1f} MiB"


def test_coset_index_read_after_parsing_c5040_allocates_nothing():
    # the parse builds the family's coset table; reading its numbering
    # afterwards must not gather the |G| x |X| = 48 MiB table again
    group = cyclic(5040)
    family = parse_family(group, {"subgroups": [list(range(0, 5040, 2))]})
    tracemalloc.start()
    try:
        index = coset_index(group, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert index.tolist() == [[g % 2 for g in range(5040)]]
    assert peak < 2 ** 20, f"reading coset_index peaked at {peak / 2 ** 20:.1f} MiB"


def test_subgroup_as_group_is_a_group():
    s4 = symmetric_group(4)
    for sub in enumerate_subgroups(s4):
        inner = subgroup_as_group(s4, sub)
        assert inner.order == len(sub)


def test_parse_family_forms():
    g6 = cyclic(6)
    assert parse_family(g6, {"subgroups": [[0, 3]]}).members == ((0, 3),)
    assert parse_family(g6, {"minimal": True}).members == ((0, 3), (0, 2, 4))
    assert parse_family(g6, {"conjugacy_class_of": [0, 2, 4]}).members == ((0, 2, 4),)
    with pytest.raises(ValueError):
        parse_family(g6, {"subgroups": [[0, 1]]})  # not closed
    with pytest.raises(ValueError):
        parse_family(g6, {})


def test_left_coset_representative_independence():
    s3 = symmetric_group(3)
    t = transposition(s3)
    sub = subgroup_generated(s3, (t,))
    for g in s3.elements():
        coset = left_coset(s3, g, sub)
        for member in coset:
            assert left_coset(s3, member, sub) == coset

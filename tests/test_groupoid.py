"""Coset groupoid structure, convolution, and the coset-sum oracle."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from singideal import groupoid as groupoid_module
from singideal import norms
from singideal.groupoid import (Arrow, FiniteGroupoid, GroupoidFunction,
                                build_coset_groupoid, convolve, convolve_rows,
                                delta, function_from_row, involution,
                                kernel_of_q_basis, kernel_of_q_dimension,
                                q_map, reduction_groupoid, restrict_function,
                                unit_indicator)
from singideal.groups import (SizeCapError, SubgroupFamily,
                              conjugation_closure, cyclic, dihedral,
                              direct_product, distinct_cosets, make_family,
                              minimal_subgroups, subgroup_generated,
                              symmetric_group)
from singideal.ideals import algebraic_ideal_kernel
from singideal.exact import integer_rows, same_subspace
from singideal.sampling import random_coeffs, random_groupoid_function


def transposition_family(s3):
    t = next(g for g in s3.elements() if s3.element_order(g) == 2)
    return conjugation_closure(s3, [subgroup_generated(s3, (t,))])


def arrow_by_payload(gpd, payload):
    return next(a.index for a in gpd.arrows if a.payload == tuple(payload))


def test_group_case_is_the_group():
    s3 = symmetric_group(3)
    gpd = build_coset_groupoid(s3, make_family(s3, [(0,)]))
    assert len(gpd.units) == 1 and gpd.num_arrows() == 6
    # composition table is the group table up to the singleton encoding
    for a in gpd.arrows:
        for b in gpd.arrows:
            prod = gpd.compose(a.index, b.index)
            assert gpd.arrows[prod].payload == (s3.mul(a.payload[0], b.payload[0]),)


def test_identity_arrow_must_be_neutral_on_both_sides():
    arrows = [Arrow(0, 0, 0, (0,)), Arrow(1, 0, 0, (1,))]
    table = np.array([[0, 1], [1, 0]])
    assert FiniteGroupoid([0], arrows, [0, 1],
                          lambda k, h: table[k, h]).unit_arrows == (0,)
    # every arrow is idempotent and neutral on one side only
    for table in (np.array([[0, 1], [0, 1]]), np.array([[0, 0], [1, 1]])):
        with pytest.raises(ValueError, match="no identity arrow"):
            FiniteGroupoid([0], arrows, [0, 1], lambda k, h: table[k, h])


def test_whole_group_family_single_arrow():
    g6 = cyclic(6)
    gpd = build_coset_groupoid(g6, make_family(g6, [tuple(range(6))]))
    assert len(gpd.units) == 1 and gpd.num_arrows() == 1


def test_non_invariant_family_is_rejected_with_a_message():
    s3 = symmetric_group(3)
    # (0, 1) is a subgroup of order 2 whose conjugates are left out; the
    # normcheck work count refuses it as the build does, before a coset of
    # range -1 labels an orbit
    family = SubgroupFamily(s3, ((0, 1),))
    message = r"^a conjugate of \[0, 1\] in S3 is not a family member$"
    with pytest.raises(ValueError, match=message):
        build_coset_groupoid(s3, family)
    with pytest.raises(ValueError, match=message):
        norms.check_sweep_work(s3, family, 1)


def test_s3_coset_groupoid_shape_and_axioms():
    s3 = symmetric_group(3)
    gpd = build_coset_groupoid(s3, transposition_family(s3))
    assert len(gpd.units) == 3 and gpd.num_arrows() == 9
    gpd.check_axioms()
    # units of the groupoid are exactly the family members
    unit_payloads = {gpd.arrows[gpd.unit_arrows[u]].payload
                     for u in range(len(gpd.units))}
    assert unit_payloads == set(transposition_family(s3).members)


def test_groupoid_axiom_suite_catalog(catalog_cases):
    for group, family in catalog_cases:
        gpd = build_coset_groupoid(group, family)
        gpd.check_axioms()


def axiom_mutants(gpd):
    """(inverse, compose table) pairs that each break one axiom of gpd: two
    products a b and a c, or b a and c a, swapped, for a, b and c off the
    unit arrows (so every unit keeps its identity arrow), or one inverse
    replaced."""
    table, m = gpd.compose_table, gpd.num_arrows()
    off_units = [a for a in range(m) if a not in gpd.unit_arrows]
    for t in (table, table.T):
        for a in off_units:
            for b, c in itertools.combinations([b for b in off_units if t[a, b] >= 0], 2):
                swapped = t.copy()
                swapped[a, b], swapped[a, c] = t[a, c], t[a, b]
                yield gpd.inverse, swapped if t is table else swapped.T
    for a in range(m):
        for b in range(m):
            if b != gpd.inv(a):
                broken = gpd.inverse.copy()
                broken[a] = b
                yield broken, table


@pytest.mark.parametrize("case", ["S3 {e}", "C6 {e, C2}", "S3 transpositions"])
def test_check_axioms_catches_a_swapped_product_or_a_broken_inverse(case):
    s3, c6 = symmetric_group(3), cyclic(6)
    group, family = {"S3 {e}": (s3, make_family(s3, [(0,)])),
                     "C6 {e, C2}": (c6, make_family(c6, [(0,), (0, 3)])),
                     "S3 transpositions": (s3, transposition_family(s3))}[case]
    gpd = build_coset_groupoid(group, family)
    gpd.check_axioms()
    mutants = list(axiom_mutants(gpd))
    assert len(mutants) > gpd.num_arrows() ** 2 // 2
    for inverse, table in mutants:
        mutant = FiniteGroupoid(gpd.units, gpd.arrows, inverse, lambda k, h: table[k, h])
        with pytest.raises(AssertionError):
            mutant.check_axioms()


def test_q_map_examples():
    s3 = symmetric_group(3)
    fam = transposition_family(s3)
    gpd = build_coset_groupoid(s3, fam)
    qe = q_map(s3, fam, [1, 0, 0, 0, 0, 0], gpd)
    units = set(gpd.unit_arrows)
    assert all((qe.values[i] == 1) == (i in units) for i in range(9))

    g2 = cyclic(2)
    fam2 = make_family(g2, [(0, 1)])
    qz = q_map(g2, fam2, [1, -1])
    assert qz.is_zero()

    g6 = cyclic(6)
    fam6 = make_family(g6, [(0, 3)])
    gpd6 = build_coset_groupoid(g6, fam6)
    q1 = q_map(g6, fam6, [0, 1, 0, 0, 0, 0], gpd6)
    target = arrow_by_payload(gpd6, (1, 4))
    assert q1.values[target] == 1 and sum(abs(v) for v in q1.values) == 1


def reference_q_map(gpd, coeffs):
    """The coset sums arrow by arrow, in Fractions."""
    return tuple(sum((Fraction(coeffs[x]) for x in a.payload), Fraction(0))
                 for a in gpd.arrows)


def test_q_map_matches_the_per_arrow_sums(catalog_cases):
    rng = random.Random(31)
    for group, family in catalog_cases:
        gpd = build_coset_groupoid(group, family)
        n = group.order
        small = random_coeffs(rng, n)
        # sums past 2^53 (the int64 product) and past 2^63 (Python ints)
        mid = tuple(rng.randrange(-2 ** 55, 2 ** 55) for _ in range(n))
        huge = tuple(Fraction(rng.randrange(-2 ** 70, 2 ** 70), rng.choice(BIG_DENOMINATORS))
                     for _ in range(n))
        for coeffs in (small, mid, huge):
            out = q_map(group, family, coeffs, gpd).values
            assert out == reference_q_map(gpd, coeffs), (group.name, family.members)
            assert all(type(v) is Fraction for v in out)
    # a groupoid whose arrows are not the family's cosets
    g6 = cyclic(6)
    other = build_coset_groupoid(g6, make_family(g6, [(0,)]))
    with pytest.raises(ValueError):
        q_map(g6, make_family(g6, [(0, 3)]), [1] * 6, other)


def test_q_map_takes_floats_exactly():
    g2 = cyclic(2)
    out = q_map(g2, make_family(g2, [(0,)]), [0.1, 0.2]).values
    assert out == (Fraction(0.1), Fraction(0.2))
    assert all(type(v) is Fraction for v in out)


def test_q_map_is_a_star_homomorphism():
    rng = random.Random(5)
    for group, family in [(symmetric_group(3), None), (cyclic(6), (0, 3))]:
        fam = transposition_family(group) if family is None else make_family(group, [family])
        gpd = build_coset_groupoid(group, fam)
        n = group.order
        for _ in range(8):
            a = random_coeffs(rng, n)
            b = random_coeffs(rng, n)
            prod = [Fraction(0)] * n
            for x in range(n):
                for y in range(n):
                    prod[group.mul(x, y)] += a[x] * b[y]
            lhs = convolve(gpd, q_map(group, fam, a, gpd), q_map(group, fam, b, gpd))
            rhs = q_map(group, fam, tuple(prod), gpd)
            assert lhs.values == rhs.values
            star = tuple(a[group.inv(g)] for g in range(n))
            assert involution(gpd, q_map(group, fam, a, gpd)).values == \
                q_map(group, fam, star, gpd).values


def test_convolution_examples():
    g6 = cyclic(6)
    fam = make_family(g6, [(0, 3)])
    gpd = build_coset_groupoid(g6, fam)
    d14 = delta(gpd, arrow_by_payload(gpd, (1, 4)))
    out = convolve(gpd, d14, d14)
    assert out.values[arrow_by_payload(gpd, (2, 5))] == 1
    assert sum(abs(v) for v in out.values) == 1
    # unit indicator is a left identity
    rng = random.Random(1)
    f = random_groupoid_function(rng, gpd)
    assert convolve(gpd, unit_indicator(gpd), f).values == f.values
    assert convolve(gpd, f, unit_indicator(gpd)).values == f.values


def test_group_case_convolution_matches_group_algebra():
    s3 = symmetric_group(3)
    fam = make_family(s3, [(0,)])
    gpd = build_coset_groupoid(s3, fam)
    pos = {g: arrow_by_payload(gpd, (g,)) for g in s3.elements()}
    rng = random.Random(9)
    for _ in range(10):
        a = random_coeffs(rng, 6)
        b = random_coeffs(rng, 6)
        prod = [Fraction(0)] * 6
        for x in range(6):
            for y in range(6):
                prod[s3.mul(x, y)] += a[x] * b[y]
        fa = GroupoidFunction(gpd, tuple(a[g] for g in range(6)))
        fb = GroupoidFunction(gpd, tuple(b[g] for g in range(6)))
        out = convolve(gpd, fa, fb)
        assert all(out.values[pos[g]] == prod[g] for g in range(6))


def test_convolve_rejects_mismatched_groupoid():
    g2 = cyclic(2)
    gpd1 = build_coset_groupoid(g2, make_family(g2, [(0, 1)]))
    gpd2 = build_coset_groupoid(g2, make_family(g2, [(0,)]))
    f1 = unit_indicator(gpd1)
    f2 = unit_indicator(gpd2)
    with pytest.raises(ValueError):
        convolve(gpd1, f1, f2)


def test_kernel_of_q_examples():
    g6 = cyclic(6)
    assert kernel_of_q_dimension(g6, make_family(g6, [(0,)])) == 0
    g2 = cyclic(2)
    assert kernel_of_q_dimension(g2, make_family(g2, [(0, 1)])) == 1
    v4 = direct_product([cyclic(2), cyclic(2)])
    assert kernel_of_q_dimension(v4, minimal_subgroups(v4)) == 0


def test_q_kernel_matches_algebraic_kernel(catalog_cases):
    # q's rows are the coset matrix's rows: one function computes both
    assert kernel_of_q_basis is algebraic_ideal_kernel
    for group, family in catalog_cases:
        if group.order > 12:
            continue
        qb = kernel_of_q_basis(group, family)
        ab = algebraic_ideal_kernel(group, family)
        assert same_subspace(qb, ab)


def test_reduction_groupoid():
    s3 = symmetric_group(3)
    gpd = build_coset_groupoid(s3, transposition_family(s3))
    red, kept = reduction_groupoid(gpd, [0, 1])
    red.check_axioms()
    assert len(red.units) == 2
    assert all(gpd.arrows[a].source in (0, 1) and gpd.arrows[a].range in (0, 1)
               for a in kept)
    f = unit_indicator(gpd)
    rf = restrict_function(red, kept, f)
    assert sum(rf.values) == 2
    with pytest.raises(ValueError):
        reduction_groupoid(gpd, [])


def test_groupoid_json_dump():
    g6 = cyclic(6)
    gpd = build_coset_groupoid(g6, make_family(g6, [(0, 3)]))
    dump = gpd.to_json_dict()
    assert len(dump["arrows"]) == 3
    assert dump["units"] == [[0, 3]]
    assert len(dump["compose"]) == 3 and len(dump["compose"][0]) == 3


# ---------------------------------------------------------------------------
# Python-loop references for the vectorised build, reduction and convolution:
# one arrow, pair or term at a time, by pointwise set arithmetic.

def reference_coset_tables(group, family):
    """(arrows, inverse, compose) of the coset groupoid."""
    cosets = distinct_cosets(group, family)
    unit_index = {sub: i for i, sub in enumerate(family.members)}
    arrow_index = {c.elements: i for i, c in enumerate(cosets)}

    def side_of(elems, product):
        sides = {tuple(sorted(product(y, x) for x in elems)) for y in elems}
        assert len(sides) == 1, "the side depends on the coset representative"
        return unit_index[sides.pop()]

    arrows = [Arrow(i, side_of(c.elements, lambda y, x: group.mul(group.inv(y), x)),
                    side_of(c.elements, lambda y, x: group.mul(x, group.inv(y))),
                    c.elements)
              for i, c in enumerate(cosets)]
    m = len(arrows)
    inverse = np.empty(m, dtype=np.int32)
    for a in arrows:
        inverse[a.index] = arrow_index[tuple(sorted(group.inv(x) for x in a.payload))]
    # only composable pairs are visited: a with source u after b with range u
    by_range = [[] for _ in family.members]
    for b in arrows:
        by_range[b.range].append(b)
    compose = np.full((m, m), -1, dtype=np.int32)
    for a in arrows:
        for b in by_range[a.source]:
            yz = group.mul(a.payload[0], b.payload[0])
            product = tuple(sorted(group.mul(yz, x) for x in family.members[b.source]))
            compose[a.index, b.index] = arrow_index[product]
    return arrows, inverse, compose


def reference_unit_arrows(arrows, compose):
    """The arrow e at each unit with e b = b and b e = b wherever defined."""
    unit_arrows = {}
    for e in arrows:
        if e.source != e.range or compose[e.index, e.index] != e.index:
            continue
        if all(compose[e.index, b.index] == b.index
               for b in arrows if b.range == e.source) and \
                all(compose[b.index, e.index] == b.index
                    for b in arrows if b.source == e.source):
            unit_arrows[e.source] = e.index
    return tuple(unit_arrows[u] for u in sorted(unit_arrows))


def reference_reduction(groupoid, units):
    """(arrows, inverse, compose, kept) of the reduction to a unit subset."""
    unit_pos = {u: i for i, u in enumerate(sorted(set(units)))}
    kept = [a.index for a in groupoid.arrows
            if a.source in unit_pos and a.range in unit_pos]
    arrow_pos = {a: i for i, a in enumerate(kept)}
    arrows = [Arrow(arrow_pos[a], unit_pos[groupoid.arrows[a].source],
                    unit_pos[groupoid.arrows[a].range], groupoid.arrows[a].payload)
              for a in kept]
    inverse = np.array([arrow_pos[groupoid.inv(a)] for a in kept], dtype=np.int32)
    compose = np.full((len(kept), len(kept)), -1, dtype=np.int32)
    for i, a in enumerate(kept):
        for j, b in enumerate(kept):
            c = groupoid.compose(a, b)
            if c is not None:
                compose[i, j] = arrow_pos[c]
    return arrows, inverse, compose, kept


def reference_convolve(groupoid, f1, f2):
    """(f1*f2)(g) as the sum over h with s(h) = s(g) of f1(g h^-1) f2(h)."""
    out = [Fraction(0)] * groupoid.num_arrows()
    for h in [i for i, v in enumerate(f2.values) if v != 0]:
        for g in groupoid.arrows_by_source[groupoid.arrows[h].source]:
            v = f1.values[groupoid.compose(g, groupoid.inv(h))]
            if v != 0:
                out[g] += v * f2.values[h]
    return tuple(out)


def assert_groupoid_is(gpd, arrows, inverse, compose):
    assert gpd.arrows == tuple(arrows)
    assert gpd.inverse.tobytes() == inverse.tobytes()
    assert gpd.compose_table.tobytes() == compose.tobytes()
    assert gpd.unit_arrows == reference_unit_arrows(arrows, compose)
    assert gpd.arrows_by_source == tuple(
        tuple(a.index for a in arrows if a.source == u) for u in range(len(gpd.units)))


@pytest.fixture(scope="module")
def vectorised_layer_cases(catalog_cases):
    """(group, family, groupoid) for every catalog case, then S5 and D50
    with their minimal families."""
    cases = list(catalog_cases)
    cases += [(g, minimal_subgroups(g)) for g in (symmetric_group(5), dihedral(50))]
    return [(g, f, build_coset_groupoid(g, f)) for g, f in cases]


def test_build_matches_loop_reference(vectorised_layer_cases):
    for group, family, gpd in vectorised_layer_cases:
        assert_groupoid_is(gpd, *reference_coset_tables(group, family))


def test_reduction_matches_loop_reference(vectorised_layer_cases):
    for _, _, gpd in vectorised_layer_cases:
        units = range(len(gpd.units))
        for subset in itertools.chain(itertools.combinations(units, 1),
                                      itertools.combinations(units, 2)):
            reduced, kept = reduction_groupoid(gpd, subset)
            arrows, inverse, compose, ref_kept = reference_reduction(gpd, subset)
            assert kept == ref_kept
            assert reduced.units == tuple(gpd.units[u] for u in subset)
            assert_groupoid_is(reduced, arrows, inverse, compose)


def test_d100_minimal_builds_without_a_dense_table():
    # a dense (arrows x arrows) int32 table alone would take 392 MiB
    group = dihedral(100)
    family = minimal_subgroups(group)
    tracemalloc.start()
    try:
        gpd = build_coset_groupoid(group, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gpd.num_arrows() == 10140
    assert peak < 64 * 2 ** 20


def test_c2_8_minimal_builds_and_reduces_like_the_reference():
    # 255 members of index 128: 4.2M regular-block entries, but 32640^2
    # = 1.07e9 compose entries, which the table refuses to allocate
    group = direct_product([cyclic(2)] * 8)
    gpd = build_coset_groupoid(group, minimal_subgroups(group))
    assert gpd.num_arrows() == 32640
    with pytest.raises(SizeCapError, match="32640 arrows"):
        gpd.compose_table
    reduced, kept = reduction_groupoid(gpd, [3, 200])
    arrows, inverse, compose, ref_kept = reference_reduction(gpd, [3, 200])
    assert kept == ref_kept
    assert_groupoid_is(reduced, arrows, inverse, compose)
    reduced.check_axioms()


def test_convolve_matches_loop_reference(vectorised_layer_cases):
    rng = random.Random(17)
    for _, _, gpd in vectorised_layer_cases:
        m = gpd.num_arrows()
        sparse = []
        for size in (1, 3, 8):
            vals = [Fraction(0)] * m
            for a in rng.sample(range(m), min(size, m)):
                vals[a] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
            sparse.append(GroupoidFunction(gpd, tuple(vals)))
        pairs = list(itertools.product(sparse, sparse))
        # a dense f2 costs the reference m * (arrows per source) steps
        dense = [random_groupoid_function(rng, gpd) for _ in range(2 if m <= 200 else 1)]
        pairs += [(d, s) for d in dense for s in sparse]
        pairs += [(s, d) for d in dense for s in sparse[1:2]]
        if m <= 200:
            pairs += list(itertools.product(dense, dense))
        # numerators near 2^70 over large coprime denominators, on 12 arrows
        huge = []
        for _ in range(2):
            vals = [Fraction(0)] * m
            for a in rng.sample(range(m), min(12, m)):
                vals[a] = Fraction(rng.choice((-1, 1)) * rng.randrange(2 ** 69, 2 ** 70),
                                   rng.choice(BIG_DENOMINATORS))
            huge.append(GroupoidFunction(gpd, tuple(vals)))
        pairs += list(itertools.product(huge, huge)) + [(huge[0], sparse[2])]
        # plain int values, dense only where dense pairs are affordable
        ints = []
        for _ in range(2):
            vals = [0] * m
            for a in range(m) if m <= 200 else rng.sample(range(m), 12):
                vals[a] = rng.randint(-5, 5)
            ints.append(GroupoidFunction(gpd, tuple(vals)))
        pairs += [(ints[0], ints[1]), (ints[1], sparse[1]), (huge[1], ints[0])]
        for f1, f2 in pairs:
            out = convolve(gpd, f1, f2).values
            assert out == reference_convolve(gpd, f1, f2)
            assert all(type(v) is Fraction for v in out)
        cancelling = cancelling_pair(gpd)
        if cancelling is not None:
            f1, f2, g = cancelling
            out = convolve(gpd, f1, f2).values
            assert out == reference_convolve(gpd, f1, f2)
            assert out[g] == 0 and type(out[g]) is Fraction



def random_rows(rng, gpd, dense):
    """Functions with supports of 1, 3 and 8 arrows (and all arrows when
    ``dense``), the all-zero function between them, and two with
    numerators near 2^70 over big denominators."""
    m = gpd.num_arrows()
    sizes = (1, 0, 3, 8) + ((m, 0) if dense else ())
    fs = []
    for size in sizes:
        vals = [Fraction(0)] * m
        for a in rng.sample(range(m), min(size, m)):
            vals[a] = Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3)))
        fs.append(GroupoidFunction(gpd, tuple(vals)))
    huge = []
    for _ in range(2):
        vals = [Fraction(0)] * m
        for a in rng.sample(range(m), min(6, m)):
            vals[a] = Fraction(rng.randrange(2 ** 69, 2 ** 70),
                               rng.choice(BIG_DENOMINATORS))
        huge.append(GroupoidFunction(gpd, tuple(vals)))
    return fs, huge


def test_convolve_rows_batches_match_loop_reference(vectorised_layer_cases,
                                                    monkeypatch):
    rng = random.Random(23)
    for _, _, gpd in vectorised_layer_cases:
        small, huge = random_rows(rng, gpd, dense=gpd.num_arrows() <= 200)
        rows1, rows2 = small, small[1:] + small[:1]
        for fs1, fs2, dtype in ((rows1, rows2, np.int64),
                                (rows1[:2] + huge, huge + rows2[:2], object)):
            (a, den1), (b, den2) = (integer_rows([f.values for f in fs1]),
                                    integer_rows([f.values for f in fs2]))
            assert a.dtype == b.dtype == dtype
            batches = [(convolve_rows(gpd, a, b), fs1, fs2),
                       (convolve_rows(gpd, a[:1], b), fs1[:1] * len(fs2), fs2),
                       (convolve_rows(gpd, a, b[-1:]), fs1, fs2[-1:] * len(fs1))]
            # one k per slice of the gather gives the same rows
            monkeypatch.setattr(groupoid_module, "CONVOLVE_CHUNK", 1)
            sliced = [convolve_rows(gpd, a, b), convolve_rows(gpd, a[:1], b),
                      convolve_rows(gpd, a, b[-1:])]
            monkeypatch.undo()
            for (out, lefts, rights), one_k in zip(batches, sliced):
                assert out.dtype == one_k.dtype and np.array_equal(out, one_k)
                assert out.shape == (len(lefts), gpd.num_arrows())
                for row, f1, f2 in zip(out, lefts, rights):
                    assert (function_from_row(gpd, row, den1 * den2).values
                            == reference_convolve(gpd, f1, f2))


def test_convolve_rows_switches_to_python_ints_at_the_bound():
    # C1: one term per product arrow; C2: two terms on each of its arrows
    for n, terms in ((1, 1), (2, 2)):
        g = cyclic(n)
        gpd = build_coset_groupoid(g, make_family(g, [(0,)]))
        a = np.full((1, n), 2 ** 32 // terms, dtype=np.int64)
        for b_value, dtype in ((2 ** 31 - 1, np.int64), (2 ** 31, object),
                               (-(2 ** 31) + 1, np.int64), (-(2 ** 31), object)):
            b = np.full((1, n), b_value, dtype=np.int64)
            out = convolve_rows(gpd, a, b)
            assert out.dtype == dtype
            # 2^63 - 2^32 in int64 just below the bound, -2^63 or 2^63 at it
            assert out.tolist() == [[2 ** 32 * b_value] * n]


BIG_DENOMINATORS = (2 ** 61 - 1, 2 ** 89 - 1, 3 ** 40, 1000003 * 999983)


def cancelling_pair(gpd):
    """(f1, f2, g) with two non-zero terms of (f1*f2)(g) that cancel, or
    None when no source has two arrows."""
    g = next((g for g in range(gpd.num_arrows())
              if len(gpd.arrows_by_source[gpd.arrows[g].source]) >= 2), None)
    if g is None:
        return None
    h1, h2 = gpd.arrows_by_source[gpd.arrows[g].source][:2]
    k1, k2 = gpd.compose(g, gpd.inv(h1)), gpd.compose(g, gpd.inv(h2))
    v1 = [Fraction(0)] * gpd.num_arrows()
    v2 = [Fraction(0)] * gpd.num_arrows()
    # k1 h1 = k2 h2 = g: (2/3)(-9/7) + (-6/5)(-5/7) = 0
    v1[k1], v1[k2] = Fraction(2, 3), Fraction(-6, 5)
    v2[h1], v2[h2] = Fraction(-9, 7), Fraction(-5, 7)
    return (GroupoidFunction(gpd, tuple(v1)), GroupoidFunction(gpd, tuple(v2)), g)

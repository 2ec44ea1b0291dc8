"""Truncated non-Hausdorff construction: limit sets, dangerous points,
witness lifting."""

import json
import random
import tracemalloc
from fractions import Fraction

import pytest

import singideal.groupoid
from singideal import hls as hls_module
from singideal.cli import main
from singideal.groups import (SizeCapError, conjugation_closure, cyclic,
                              distinct_cosets, make_family, subgroup_generated,
                              symmetric_group)
from singideal.groups import SubgroupFamily
from singideal.hls import (INFINITY, NEIGHBORHOOD_POINT_CAP, NotAWitnessError,
                           SingularCandidate, build_hls, essential_fiber,
                           hls_report, is_extremely_dangerous, limit_set,
                           singular_function_from_witness, verify_singular)
from singideal.ideals import (algebraic_ideal_kernel, check_witness,
                              integer_witness)
from singideal.sampling import random_coeffs


def transposition_family(s3):
    t = next(g for g in s3.elements() if s3.element_order(g) == 2)
    return conjugation_closure(s3, [subgroup_generated(s3, (t,))])


def test_build_shapes():
    g2 = cyclic(2)
    h = build_hls(g2, make_family(g2, [(0, 1)]), 3)
    assert len(h.units) == 4
    assert len(h.infinity_arrows) == 2
    assert h.level_groupoids[0].num_arrows() == 1
    assert len(h.level_groupoids) == 3

    g1 = cyclic(1)
    h1 = build_hls(g1, make_family(g1, [(0,)]), 1)
    assert len(h1.units) == 2

    s3 = symmetric_group(3)
    h3 = build_hls(s3, transposition_family(s3), 2)
    assert len(h3.units) == 7
    assert len(h3.infinity_arrows) == 6
    assert h3.level_groupoids[0].num_arrows() == 9

    with pytest.raises(ValueError):
        build_hls(g2, make_family(g2, [(0, 1)]), 0)
    with pytest.raises(ValueError, match="^family must be non-empty$"):
        build_hls(g2, SubgroupFamily(g2, ()), 1)


def test_hls_builds_no_groupoid_until_one_is_read(monkeypatch, capsys):
    built = []
    init = singideal.groupoid.FiniteGroupoid.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(singideal.groupoid.FiniteGroupoid, "__init__", counting_init)
    s3 = symmetric_group(3)
    assert main(["hls", "--group", '{"kind":"symmetric","n":3}',
                 "--family", '{"conjugacy_class_of":[0,2]}']) == 0
    assert json.loads(capsys.readouterr().out)["verify_singular"] is True
    h = build_hls(s3, transposition_family(s3), 3)
    assert built == []
    levels = h.level_groupoids
    assert len(built) == 1 and levels == (built[0],) * 3
    assert h.level_groupoids is levels and len(built) == 1


def test_neighborhood_point_count_and_cap(catalog_cases):
    # the count checked before building is the count built
    for group, family in catalog_cases:
        if group.order > 12:
            continue
        for depth in (1, 2, 4):
            h = build_hls(group, family, depth)
            points = sum(len(v) for v in h.basic_neighborhoods.values())
            m = len(family.members)
            assert points == group.order * depth * (2 + m * (depth + 1)) // 2
    g6 = cyclic(6)
    fam = make_family(g6, [(0,), (0, 3), (0, 2, 4)])
    # 6 * 333 * (2 + 3 * 334) / 2 = 1000998 points: the first depth past
    # the cap, refused when the neighbourhoods are read, before they are built
    for depth in (333, 10 ** 20):
        h = build_hls(g6, fam, depth)
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError, match=f"^hls depth {depth} needs "):
                h.basic_neighborhoods
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
    assert NEIGHBORHOOD_POINT_CAP == 10 ** 6


def test_units_levels_and_lift_past_the_cap_raise_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("built or checked past the cap")
    monkeypatch.setattr(hls_module, "check_witness", refuse)
    monkeypatch.setattr(hls_module, "build_coset_groupoid", refuse)
    g6 = cyclic(6)
    fam = make_family(g6, [(0, 3)])
    # C6 {[0, 3]}: one member of index 3, so 1 + depth units, depth level
    # groupoids and 3 * depth lifted level points
    for depth in (10 ** 6 + 1, 10 ** 20):
        h = build_hls(g6, fam, depth)
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError, match=(
                    f"^hls depth {depth} needs {depth + 1} units, over the cap 1000000$")):
                h.units
            with pytest.raises(SizeCapError, match=(
                    f"^hls depth {depth} needs {depth} level groupoids, over the cap 1000000$")):
                h.level_groupoids
            with pytest.raises(SizeCapError, match=(
                    f"^hls depth {depth} lifts the witness to {3 * depth} level points, "
                    "over the cap 1000000$")):
                singular_function_from_witness(h, [1, 0, 0, -1, 0, 0], cutoff=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def test_basic_neighborhoods():
    g2 = cyclic(2)
    h = build_hls(g2, make_family(g2, [(0, 1)]), 3)
    nbhd = h.basic_neighborhood(1, 2)
    assert (1, INFINITY) in nbhd
    assert ((0, 1), 2) in nbhd and ((0, 1), 3) in nbhd
    assert ((0, 1), 1) not in nbhd


def test_limit_set_examples():
    g2 = cyclic(2)
    fam = make_family(g2, [(0, 1)])
    h = build_hls(g2, fam, 3)
    assert limit_set(h, (0, 1)) == frozenset({(0, INFINITY), (1, INFINITY)})

    g6 = cyclic(6)
    fam6 = make_family(g6, [(0,), (0, 3)])
    h6 = build_hls(g6, fam6, 2)
    assert limit_set(h6, (0,)) == frozenset({(0, INFINITY)})
    assert limit_set(h6, (0, 3)) == frozenset({(0, INFINITY), (3, INFINITY)})

    s3 = symmetric_group(3)
    fam3 = transposition_family(s3)
    h3 = build_hls(s3, fam3, 2)
    first = fam3.members[0]
    assert limit_set(h3, first) == frozenset({(g, INFINITY) for g in first})
    with pytest.raises(ValueError):
        limit_set(h3, (0, 1, 2))


def test_essential_fiber_is_the_family(catalog_cases):
    for group, family in catalog_cases:
        if group.order > 12:
            continue
        for depth in (1, 2, 3):
            h = build_hls(group, family, depth)
            assert essential_fiber(h).members == family.members


def reference_limit_set(h, sub):
    """(gamma, inf) is a limit point iff every one of its basic
    neighbourhoods holds the tail point (X, depth)."""
    tail_point = (tuple(sorted(sub)), h.depth)
    return frozenset((gamma, INFINITY) for gamma in h.group.elements()
                     if all(tail_point in h.basic_neighborhood(gamma, cutoff)
                            for cutoff in range(1, h.depth + 1)))


def reference_essential_fiber(h):
    subs = {tuple(sorted(g for g, _ in reference_limit_set(h, sub)))
            for sub in h.family.members}
    return tuple(sorted(subs, key=lambda s: (len(s), s)))


def test_closed_forms_match_the_neighbourhoods(catalog_cases):
    # every catalog family, and the same family with the trivial subgroup
    # added, so that the dangerous-point test is seen both ways
    families = list(catalog_cases)
    families += [(g, make_family(g, [(0,), *f.members])) for g, f in catalog_cases
                 if (0,) not in f.members]
    dangerous = set()
    for group, family in families:
        for depth in (1, 2, 3):
            h = build_hls(group, family, depth)
            for sub in family.members:
                assert limit_set(h, sub) == reference_limit_set(h, sub)
            fiber = reference_essential_fiber(h)
            assert essential_fiber(h).members == fiber
            assert is_extremely_dangerous(h) == ((0,) not in fiber)
            dangerous.add(is_extremely_dangerous(h))
    assert dangerous == {True, False}


def test_hls_report_reads_no_neighbourhood():
    s3 = symmetric_group(3)
    fam = transposition_family(s3)
    h = build_hls(s3, fam, 3)
    report = hls_report(h, integer_witness(s3, fam))
    assert report["verify_singular"] is True
    assert "basic_neighborhoods" not in h.__dict__
    assert "level_groupoids" not in h.__dict__
    points = sum(len(v) for v in h.basic_neighborhoods.values())
    assert points == 6 * 3 * (2 + 3 * 4) // 2
    assert h.__dict__["basic_neighborhoods"] is h.basic_neighborhoods


def reference_coset_sums(group, family, coeffs):
    return [sum((Fraction(coeffs[x]) for x in c.elements), Fraction(0))
            for c in distinct_cosets(group, family)]


def test_witness_substitution_past_int64_and_in_fractions(catalog_cases):
    # C12 with {0, 6}: its coset rows weigh 2, so 2^54 goes past exact
    # float64 sums and 2^70 past int64
    g12 = cyclic(12)
    fam = make_family(g12, [(0, 6)])
    w = integer_witness(g12, fam).coeffs
    h = build_hls(g12, fam, 2)
    for scale in (1, 2 ** 54, 2 ** 70):
        big = tuple(c * scale for c in w)
        assert check_witness(g12, fam, big)
        cand = singular_function_from_witness(h, big, 1)
        assert cand.infinity_values == big and verify_singular(h, cand)
        for i in (0, 11):
            perturbed = tuple(c + (j == i) for j, c in enumerate(big))
            assert not check_witness(g12, fam, perturbed)
            with pytest.raises(NotAWitnessError):
                singular_function_from_witness(h, perturbed, 1)
    with pytest.raises(ValueError):
        check_witness(g12, fam, w[:-1])
    # a Fraction view from kernel_basis with denominators 3 (S4 with its
    # cyclic subgroups of order 4)
    s4 = symmetric_group(4)
    fam4 = conjugation_closure(s4, [(0, 7, 17, 22)])
    view = next(v for v in algebraic_ideal_kernel(s4, fam4)
                if any(c.denominator > 1 for c in v))
    h4 = build_hls(s4, fam4, 2)
    assert check_witness(s4, fam4, view)
    cand = singular_function_from_witness(h4, view, 2)
    assert cand.infinity_values == view and verify_singular(h4, cand)
    assert list(cand.level_values) == [(c.elements, n) for c in distinct_cosets(s4, fam4)
                                       for n in (1, 2)]
    perturbed = (view[0] + Fraction(1, 3), *view[1:])
    assert not check_witness(s4, fam4, perturbed)
    with pytest.raises(NotAWitnessError):
        singular_function_from_witness(h4, perturbed, 1)
    # against the Fraction coset sums: kernel vectors with random rational
    # weights pass, random rational vectors fail exactly when some sum does
    rng = random.Random(11)
    for group, family in catalog_cases:
        basis = algebraic_ideal_kernel(group, family)
        for _ in range(3):
            coeffs = random_coeffs(rng, group.order)
            assert check_witness(group, family, coeffs) == (
                not any(reference_coset_sums(group, family, coeffs)))
            if basis:
                weights = random_coeffs(rng, len(basis))
                combo = [sum((a * v[x] for a, v in zip(weights, basis)), Fraction(0))
                         for x in group.elements()]
                assert check_witness(group, family, combo)


def test_extremely_dangerous():
    g2 = cyclic(2)
    assert is_extremely_dangerous(build_hls(g2, make_family(g2, [(0, 1)]), 2))
    assert not is_extremely_dangerous(build_hls(g2, make_family(g2, [(0,)]), 2))
    assert not is_extremely_dangerous(
        build_hls(g2, make_family(g2, [(0,), (0, 1)]), 2))


def test_witness_lifts_to_singular_function():
    g2 = cyclic(2)
    fam = make_family(g2, [(0, 1)])
    h = build_hls(g2, fam, 3)
    w = integer_witness(g2, fam)
    cand = singular_function_from_witness(h, w, 1)
    assert cand.infinity_values == (1, -1)
    assert all(v == 0 for v in cand.level_values.values())
    assert list(cand.level_values) == [((0, 1), n) for n in (1, 2, 3)]
    assert verify_singular(h, cand)
    with pytest.raises(ValueError, match="^candidate lives on a different truncation$"):
        verify_singular(build_hls(g2, fam, 3), cand)

    s3 = symmetric_group(3)
    fam3 = transposition_family(s3)
    h3 = build_hls(s3, fam3, 2)
    w3 = integer_witness(s3, fam3)
    payloads = [c.elements for c in distinct_cosets(s3, fam3)]
    for cutoff in (1, 2):
        cand3 = singular_function_from_witness(h3, w3, cutoff)
        # one value per (arrow payload, level), in distinct_cosets order
        assert list(cand3.level_values) == [(p, n) for p in payloads for n in (1, 2)]
        assert verify_singular(h3, cand3)


def test_non_witness_rejected():
    g2 = cyclic(2)
    fam = make_family(g2, [(0, 1)])
    h = build_hls(g2, fam, 2)
    with pytest.raises(NotAWitnessError):
        singular_function_from_witness(h, (1, 1), 1)
    with pytest.raises(NotAWitnessError):
        singular_function_from_witness(h, (0, 0), 1)
    with pytest.raises(ValueError, match="^witness length must equal the group order$"):
        singular_function_from_witness(h, (1, -1, 0), 1)
    with pytest.raises(ValueError):
        singular_function_from_witness(h, integer_witness(g2, fam), 5)


def test_trivial_kernel_admits_no_singular_candidate():
    # when the kernel is trivial, the lifting formula sends any non-zero b
    # to a candidate with some non-zero level value, so verification fails
    g6 = cyclic(6)
    fam = make_family(g6, [(0,)])
    h = build_hls(g6, fam, 2)
    assert algebraic_ideal_kernel(g6, fam) == []
    rng = random.Random(21)
    gpd = h.level_groupoids[0]
    for _ in range(25):
        coeffs = random_coeffs(rng, 6)
        level_values = {}
        for arrow in gpd.arrows:
            total = sum((coeffs[x] for x in arrow.payload), Fraction(0))
            for n in (1, 2):
                level_values[(arrow.payload, n)] = total
        cand = SingularCandidate(h, tuple(coeffs), level_values, 1)
        assert not verify_singular(h, cand)


def test_candidate_counterexamples():
    g2 = cyclic(2)
    fam = make_family(g2, [(0, 1)])
    h = build_hls(g2, fam, 2)
    gpd = h.level_groupoids[0]
    payload = gpd.arrows[0].payload
    # indicator of one level arrow: non-zero on the Hausdorff part
    level_values = {(payload, n): Fraction(int(n == 1)) for n in (1, 2)}
    cand = SingularCandidate(h, (0, 0), level_values, 1)
    assert not verify_singular(h, cand)
    # identically zero: not singular either
    zero = SingularCandidate(h, (0, 0), {(payload, n): Fraction(0) for n in (1, 2)}, 1)
    assert not verify_singular(h, zero)


def test_depth_independence(catalog_cases):
    for group, family in catalog_cases:
        if group.order > 8:
            continue
        w = integer_witness(group, family)
        verdicts = []
        for depth in (1, 2, 3):
            h = build_hls(group, family, depth)
            lifted = None
            if w is not None:
                cand = singular_function_from_witness(h, w, depth)
                assert set(cand.level_values) == {
                    (c.elements, n) for c in distinct_cosets(group, family)
                    for n in range(1, depth + 1)}
                lifted = verify_singular(h, cand)
            verdicts.append((is_extremely_dangerous(h),
                             essential_fiber(h).members, lifted))
        assert verdicts[0] == verdicts[1] == verdicts[2]


def test_hls_report():
    s3 = symmetric_group(3)
    fam = transposition_family(s3)
    h = build_hls(s3, fam, 2)
    report = hls_report(h, integer_witness(s3, fam))
    assert report["extremely_dangerous"] is True
    assert report["witness_lifted"] is True
    assert report["verify_singular"] is True
    assert sorted(report["essential_fiber"]) == [list(m) for m in fam.members]

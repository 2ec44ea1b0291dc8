"""Float operator norms, the norm equation, and cross-module agreement."""

import json
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from singideal import _kernels, cli, norms
from singideal import groupoid as groupoid_module
from singideal.cli import EXIT_OK, EXIT_TOLERANCE, _unit_subsets, main
from singideal.exact import integer_rows
from singideal.groupoid import (FiniteGroupoid, GroupoidFunction,
                                build_coset_groupoid, convolve, delta,
                                involution, reduction_groupoid,
                                restrict_function, unit_indicator)
from singideal.groups import (conjugation_closure, cyclic, dihedral,
                              make_family, minimal_subgroups,
                              subgroup_generated, symmetric_group)
from singideal.ideals import InternalInconsistencyError, quasi_regular_matrix
from singideal.norms import (NORM_BATCH, block_residuals, compress_to_units,
                             function_floats, norm_block,
                             norm_equation_residuals, reduced_norm,
                             regular_rep_matrix, spectral_norm,
                             verify_norm_equation)
from singideal.sampling import (DENOMINATOR, DENOMINATORS, random_coeffs,
                                random_groupoid_function)

TOL = 1e-8


def transposition_family(s3):
    t = next(g for g in s3.elements() if s3.element_order(g) == 2)
    return conjugation_closure(s3, [subgroup_generated(s3, (t,))])


def block_of(fs):
    """The NormBlock of the functions ``fs``, from their integer rows."""
    return norm_block(*integer_rows([f.values for f in fs]))


def s3_groupoid():
    s3 = symmetric_group(3)
    return build_coset_groupoid(s3, transposition_family(s3))


def test_spectral_norm_basics():
    assert spectral_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
    perm = np.eye(4)[[1, 2, 3, 0]]
    assert spectral_norm(perm) == pytest.approx(1.0, abs=1e-12)
    assert spectral_norm(np.array([[1.0, 1.0]])) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    with pytest.raises(ValueError):
        spectral_norm(np.array([[np.nan]]))


def c4_point_function(value):
    """The function on C4 {[0]} with one non-zero value, at a non-unit arrow."""
    c4 = cyclic(4)
    gpd = build_coset_groupoid(c4, make_family(c4, [(0,)]))
    values = [Fraction(0)] * gpd.num_arrows()
    values[1] = value
    return gpd, GroupoidFunction(gpd, tuple(values))


def test_float_norms_refuse_entries_outside_the_gram_range():
    # the Gram product squares every entry: these read nan, inf, 0.0, 0.0,
    # or raised LinAlgError and OverflowError, before the range check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in ([[1e200, 1e200]], [[1e300]], [[1e-200]]):
            with pytest.raises(ValueError, match="outside the float norm range"):
                spectral_norm(m)
        for value in (Fraction(1, 10 ** 200), Fraction(10 ** 160), Fraction(10 ** 400)):
            gpd, f = c4_point_function(value)
            with pytest.raises(ValueError, match="outside the float norm range"):
                reduced_norm(gpd, f)
        # the ends of the range still pass, and agree with LAPACK's 2-norm
        for scale in (2.0 ** 480, 2.0 ** -480):
            for m in (np.array([[scale, scale]]), np.array([[scale, 0.0], [scale, scale]])):
                assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-12)
        for value in (Fraction(2 ** 480), Fraction(1, 2 ** 480), Fraction(-3, 2 ** 481)):
            gpd, f = c4_point_function(value)
            expected = max(np.linalg.norm(regular_rep_matrix(gpd, f, u), 2)
                           for u in range(len(gpd.units)))
            assert reduced_norm(gpd, f) == pytest.approx(expected, rel=1e-12)
            assert reduced_norm(gpd, f) == pytest.approx(abs(float(value)), rel=1e-12)
        # one row out of range fails the block, though the other is in it
        with pytest.raises(ValueError, match="outside the float norm range"):
            norms._row_floats(np.array([[1, 0], [0, 1]], dtype=object), 2 ** 481)
        assert norms._row_floats(np.array([[2, 0], [0, 0]], dtype=object),
                                 2 ** 481).tolist() == [[2.0 ** -480, 0.0], [0.0, 0.0]]


def test_spectral_norm_survives_orthogonal_seed():
    # all-ones is an eigenvector of the SMALLER Gram eigenvalue here, so an
    # iteration started from it would never see the true norm
    m = np.array([[2.0, -1.0], [-1.0, 2.0]])
    gram_top = max(np.linalg.eigvalsh(m.T @ m))
    assert spectral_norm(m) == pytest.approx(math.sqrt(gram_top), abs=1e-10)


def test_regular_rep_examples():
    gpd = s3_groupoid()
    f = unit_indicator(gpd)
    for u in range(3):
        assert np.allclose(regular_rep_matrix(gpd, f, u), np.eye(3))
    with pytest.raises(ValueError):
        regular_rep_matrix(gpd, f, 7)

    # group case: delta_g acts by the left-translation permutation
    s3 = symmetric_group(3)
    gg = build_coset_groupoid(s3, make_family(s3, [(0,)]))
    pos = {a.payload[0]: a.index for a in gg.arrows}
    for g in s3.elements():
        m = regular_rep_matrix(gg, delta(gg, pos[g]), 0)
        for h in s3.elements():
            assert m[pos[s3.mul(g, h)], pos[h]] == 1.0


def test_cross_module_agreement_with_quasi_regular():
    g6 = cyclic(6)
    fam = make_family(g6, [(0, 3)])
    gpd = build_coset_groupoid(g6, fam)
    coset14 = next(a.index for a in gpd.arrows if a.payload == (1, 4))
    m = regular_rep_matrix(gpd, delta(gpd, coset14), 0)
    expected = np.array(quasi_regular_matrix(g6, (0, 3), 1).row_lists(), dtype=float)
    assert np.array_equal(m, expected)


def test_reduced_norm_examples():
    gpd = s3_groupoid()
    assert reduced_norm(gpd, unit_indicator(gpd)) == pytest.approx(1.0, abs=1e-12)
    zero = GroupoidFunction(gpd, tuple(Fraction(0) for _ in range(9)))
    assert reduced_norm(gpd, zero) == 0.0

    s3 = symmetric_group(3)
    gg = build_coset_groupoid(s3, make_family(s3, [(0,)]))
    t = next(g for g in s3.elements() if s3.element_order(g) == 2)
    pos = {a.payload[0]: a.index for a in gg.arrows}
    vals = [Fraction(0)] * 6
    vals[pos[0]] = Fraction(1)
    vals[pos[t]] = Fraction(1)
    f = GroupoidFunction(gg, tuple(vals))
    assert reduced_norm(gg, f) == pytest.approx(2.0, abs=TOL)


def test_float_valued_functions_match_their_fraction_twins():
    gpd = s3_groupoid()
    rng = random.Random(17)
    floats = tuple(rng.uniform(-9, 9) for _ in range(gpd.num_arrows()))
    f = GroupoidFunction(gpd, floats)
    twin = GroupoidFunction(gpd, tuple(map(Fraction, floats)))
    assert reduced_norm(gpd, f) == reduced_norm(gpd, twin)
    assert function_floats(f).tolist() == list(floats)
    assert compress_to_units(gpd, f, [0]).values == compress_to_units(gpd, twin, [0]).values
    assert verify_norm_equation(gpd, [0, 1], f) == verify_norm_equation(gpd, [0, 1], twin)
    assert convolve(gpd, f, f).values == convolve(gpd, twin, twin).values


def test_norm_equation_trivial_cases():
    gpd = s3_groupoid()
    rng = random.Random(2)
    f = random_groupoid_function(rng, gpd)
    # X = all units: both sides are the full reduced norm
    assert verify_norm_equation(gpd, [0, 1, 2], f) < 1e-12
    # single-unit group case
    s3 = symmetric_group(3)
    gg = build_coset_groupoid(s3, make_family(s3, [(0,)]))
    g = random_groupoid_function(rng, gg)
    assert verify_norm_equation(gg, [0], g) < 1e-12
    with pytest.raises(ValueError):
        verify_norm_equation(gpd, [], f)
    assert norm_equation_residuals(gpd, [0, 1], []) == []


def test_norm_equation_residuals_sweep():
    gpd = s3_groupoid()
    rng = random.Random(4)
    subsets = ([0], [1], [2], [0, 1], [0, 2], [1, 2])
    worst = 0.0
    for _ in range(30):
        f = random_groupoid_function(rng, gpd)
        for subset in subsets:
            worst = max(worst, verify_norm_equation(gpd, subset, f))
    assert worst < TOL


def test_quotient_norm_inequality():
    # the compressed element attains the quotient-norm infimum among all
    # functions agreeing with f on the reduction
    gpd = s3_groupoid()
    rng = random.Random(6)
    from singideal.groupoid import reduction_groupoid, restrict_function
    for subset in ([0], [0, 1]):
        reduced, kept = reduction_groupoid(gpd, subset)
        for _ in range(10):
            f = random_groupoid_function(rng, gpd)
            lhs = reduced_norm(reduced, restrict_function(reduced, kept, f))
            pap = compress_to_units(gpd, f, subset)
            # the infimum over agreeing functions is attained at p f p
            assert abs(lhs - reduced_norm(gpd, pap)) < TOL
            for _ in range(5):
                g = random_groupoid_function(rng, gpd)
                vals = list(g.values)
                for a in kept:
                    vals[a] = f.values[a]
                agreeing = GroupoidFunction(gpd, tuple(vals))
                assert lhs <= reduced_norm(gpd, agreeing) + TOL


def test_cstar_identity():
    gpd = s3_groupoid()
    rng = random.Random(8)
    for _ in range(30):
        f = random_groupoid_function(rng, gpd)
        n_sq = reduced_norm(gpd, convolve(gpd, involution(gpd, f), f))
        n = reduced_norm(gpd, f)
        assert abs(n_sq - n * n) < 1e-6


def test_norm_and_rank_kernels_match_references():
    rng = np.random.default_rng(12)
    # both sides of 64 dimensions, against numpy's SVD-based 2-norm
    for n in (10, 64, 65, 140):
        for _ in range(5):
            a = rng.normal(size=(n, n))
            assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-10)
    # I - shift: all-ones spans the Gram null space; the norm is
    # max_k |1 - exp(2 pi i k / n)| = 2 sin(pi floor(n/2) / n)
    for n in (65, 70):
        m = np.eye(n) - np.roll(np.eye(n), 1, axis=0)
        assert np.allclose((m.T @ m) @ np.ones(n), 0.0)
        expected = 2 * math.sin(math.pi * (n // 2) / n)
        assert spectral_norm(m) == pytest.approx(expected, rel=1e-12)
        assert np.linalg.norm(m, 2) == pytest.approx(expected, rel=1e-12)
    # the same matrices reached through the group algebra of C65 and C70
    for n, expected in ((65, 1.99942), (70, 2.0)):
        g = cyclic(n)
        gpd = build_coset_groupoid(g, make_family(g, [(0,)]))
        pos = {a.payload[0]: a.index for a in gpd.arrows}
        vals = [Fraction(0)] * n
        vals[pos[1]], vals[pos[0]] = Fraction(1), Fraction(-1)
        f = GroupoidFunction(gpd, tuple(vals))
        ref = max(np.linalg.norm(regular_rep_matrix(gpd, f, u), 2)
                  for u in range(len(gpd.units)))
        assert reduced_norm(gpd, f) == pytest.approx(ref, rel=1e-12)
        assert reduced_norm(gpd, f) == pytest.approx(expected, abs=1e-5)
    # the pivot count of the mod-p elimination, forward and reduced, against
    # the float rank, full and deficient, tall and wide; the input is left
    # unchanged
    for rows, cols in ((12, 8), (8, 12)):
        for k in (8, 5, 3, 1, 0):
            for _ in range(8):
                m = (rng.integers(0, 5, size=(rows, k))
                     @ rng.integers(0, 5, size=(k, cols)))
                before = m.copy()
                for reduced in (False, True):
                    pivots, _ = _kernels.eliminate_mod_p(m, _kernels.CERT_PRIME, reduced)
                    assert pivots.sum() == np.linalg.matrix_rank(m.astype(float))
                assert np.array_equal(m, before)


def test_reduced_norm_is_the_max_over_unit_matrices(catalog, catalog_cases):
    rng = random.Random(21)
    cases = list(catalog_cases)
    # minimal families mix unit dimensions, so their norms span several stacks
    cases += [(g, minimal_subgroups(g)) for g in catalog if g.order > 1]
    cases += [(cyclic(n), make_family(cyclic(n), [(0,)])) for n in (65, 70)]
    for group, family in cases:
        gpd = build_coset_groupoid(group, family)
        for _ in range(2):
            f = random_groupoid_function(rng, gpd)
            per_unit = [spectral_norm(regular_rep_matrix(gpd, f, u))
                        for u in range(len(gpd.units))]
            assert reduced_norm(gpd, f) == max(per_unit)


def test_stacked_spectral_norm_is_the_max_of_its_slices():
    rng = np.random.default_rng(3)
    for shape in ((1, 1, 1), (4, 3, 3), (7, 12, 12), (3, 65, 65), (2, 3, 5, 5)):
        stack = rng.normal(size=shape)
        slices = stack.reshape((-1,) + shape[-2:])
        assert spectral_norm(stack) == max(spectral_norm(s) for s in slices)


def reaches(gpd):
    """reach(v), the ranges of the arrows with source v: v's orbit."""
    return [frozenset(gpd._ranges[gpd._sources == v].tolist()) for v in range(len(gpd.units))]


def key_rhs(gpd, units, norm_at):
    """The p f p side over the subset ``units``, ``norm_at(v)`` the norms
    of the block at v (one per function): the largest over the orbits O it
    meets of the norms at O's least unit outside the subset, or at its
    least unit when O lies inside it.  Asserts that every other unit of O
    agrees with that key to 1e-12 relative, and that the blocks of the
    orbits it misses have norm 0."""
    rhs = 0.0
    for orbit in sorted(set(reaches(gpd)), key=min):
        at = {v: norm_at(v) for v in orbit}
        part = orbit & set(units)
        if not part:
            assert all((norm == 0.0).all() for norm in at.values())
            continue
        top = at[min(orbit - part, default=min(part))]
        for v, norm in at.items():
            assert np.allclose(norm, top, rtol=1e-12, atol=0.0), (sorted(part), v)
        rhs = np.maximum(rhs, top)
    return rhs


def per_unit_residual(gpd, units, f):
    """The norm-equation residual from one spectral_norm per unit matrix:
    every unit of the reduction on the left, each orbit's key unit of p f p
    on the right (``key_rhs``)."""
    reduced, kept = reduction_groupoid(gpd, units)
    h = restrict_function(reduced, kept, f)
    lhs = max(spectral_norm(regular_rep_matrix(reduced, h, u))
              for u in range(len(reduced.units)))
    pfp = compress_to_units(gpd, f, units)
    rhs = key_rhs(gpd, units, lambda v: np.array([spectral_norm(regular_rep_matrix(gpd, pfp, v))]))
    return abs(lhs - float(rhs[0]))


def assert_batch_matches(gpd, subsets, fs):
    """Batched residuals equal one-function calls bit for bit, and (for
    the first two functions) the per-unit-matrix residuals at the key units."""
    for subset in subsets:
        batch = norm_equation_residuals(gpd, subset, fs)
        assert batch == [verify_norm_equation(gpd, subset, f) for f in fs]
        assert batch[:2] == [per_unit_residual(gpd, subset, f) for f in fs[:2]]


def test_norm_equation_residuals_match_per_function(catalog, monkeypatch):
    # S4 with its minimal family at seed 1: a strided (non-contiguous)
    # gather changes some of these residuals in the last bits
    s4 = symmetric_group(4)
    gpd = build_coset_groupoid(s4, minimal_subgroups(s4))
    rng = random.Random(1)
    fs = [random_groupoid_function(rng, gpd) for _ in range(20)]
    # 20 functions span two chunks of the 9-unit, 12-dimensional stack
    assert max(s.size for s in gpd._rep_stacks) * 12 <= NORM_BATCH
    assert_batch_matches(gpd, _unit_subsets(len(gpd.units)), fs)
    # C65 and C70 with the trivial family: 3 functions per chunk
    rng = random.Random(5)
    for n in (65, 70):
        g = cyclic(n)
        gpd = build_coset_groupoid(g, make_family(g, [(0,)]))
        assert NORM_BATCH // gpd._rep_stacks[0].size == 3
        fs = [random_groupoid_function(rng, gpd) for _ in range(7)]
        assert_batch_matches(gpd, [[0]], fs)
    # every catalog minimal family (C70's too), with chunks small enough
    # that each stack spans several
    monkeypatch.setattr(norms, "NORM_BATCH", 64)
    rng = random.Random(6)
    for group in [g for g in catalog if g.order > 1] + [cyclic(70)]:
        gpd = build_coset_groupoid(group, minimal_subgroups(group))
        fs = [random_groupoid_function(rng, gpd) for _ in range(5)]
        assert_batch_matches(gpd, _unit_subsets(len(gpd.units))[:12], fs)


def full_groupoid_residuals(gpd, subsets, block):
    """The reference: each subset's p f p side from the floats masked to
    its reduction, one spectral_norm per function at every unit of the
    groupoid, read at the key units (``key_rhs``)."""
    out = []
    for units in subsets:
        reduced, kept = reduction_groupoid(gpd, units)
        outside = np.ones(gpd.num_arrows(), dtype=bool)
        outside[kept] = False
        lhs = norms._reduced_norms(reduced, block.floats[:, kept])
        masked = np.where(outside, 0.0, block.floats)
        rhs = key_rhs(gpd, units, lambda v: np.array(
            [spectral_norm(row[gpd._rep_blocks[v]]) for row in masked]))
        out.append(np.abs(lhs - rhs).tolist())
    return out


def assert_full_groupoid_rhs(cases, rng, count):
    for group, family in cases:
        gpd = build_coset_groupoid(group, family)
        block = block_of([random_groupoid_function(rng, gpd) for _ in range(count)])
        subsets = _unit_subsets(len(gpd.units))
        assert block_residuals(gpd, subsets, block) == full_groupoid_residuals(
            gpd, subsets, block), (group.name, family.members)


def test_block_residuals_match_the_full_groupoid_rhs(catalog, monkeypatch):
    # the norm-sweep cases at full chunk size
    s4 = symmetric_group(4)
    rng = random.Random(16)
    d6, c70 = dihedral(6), cyclic(70)
    assert_full_groupoid_rhs([(s4, minimal_subgroups(s4)), (d6, minimal_subgroups(d6)),
                              (c70, make_family(c70, [(0,)]))], rng, 20)
    # chunks of 64 entries, on both sides: one 12 x 12 block per chunk,
    # several blocks of one function, or several functions of all blocks
    # of a unit
    monkeypatch.setattr(norms, "NORM_BATCH", 64)
    chunks = []
    real = norms._gram_tops

    def recording(a):
        # the gathered chunks; the reference's single matrices are 2-d
        if a.ndim == 4:
            chunks.append(a.shape)
        return real(a)

    monkeypatch.setattr(norms, "_gram_tops", recording)
    cases = [(g, minimal_subgroups(g)) for g in catalog if g.order > 1]
    cases += [(s4, conjugation_closure(s4, [(0, 1)])),
              (dihedral(12), minimal_subgroups(dihedral(12)))]
    assert_full_groupoid_rhs(cases, rng, 5)
    assert all(math.prod(shape) <= 64 or shape[:2] == (1, 1) for shape in chunks)
    assert any(1 < shape[0] < 5 for shape in chunks)
    assert any(shape[0] == 1 and shape[1] > 1 for shape in chunks)


def test_every_chunk_holds_at_most_norm_batch_entries_or_one_block(monkeypatch):
    # S4 minimal has 4 units of dimension 8 and 9 of dimension 12: at 64
    # entries a chunk holds one 8 x 8 block, or one 12 x 12 block past the cap
    monkeypatch.setattr(norms, "NORM_BATCH", 64)
    chunks = []
    real = norms._gram_tops
    monkeypatch.setattr(norms, "_gram_tops", lambda a: chunks.append(a.shape) or real(a))
    s4 = symmetric_group(4)
    gpd = build_coset_groupoid(s4, minimal_subgroups(s4))
    rng = random.Random(4)
    fs = [random_groupoid_function(rng, gpd) for _ in range(3)]
    reduced_norm(gpd, fs[0])
    assert sorted(set(chunks)) == [(1, 1, 8, 8), (1, 1, 12, 12)]
    chunks.clear()
    block_residuals(gpd, _unit_subsets(len(gpd.units)), block_of(fs))
    assert all(math.prod(shape) <= 64 or shape[:2] == (1, 1) for shape in chunks)
    assert any(math.prod(shape) > 64 for shape in chunks)
    assert any(shape[0] * shape[1] > 1 for shape in chunks)


def brute_force_parts(gpd, subsets):
    """Every distinct part X ∩ reach(u), u in X: reach(u) is u's orbit."""
    reach = [{a.range for a in gpd.arrows if a.source == v}
             for v in range(len(gpd.units))]
    return {tuple(sorted(set(units) & reach[u])) for units in subsets for u in units}


def test_compression_side_eigensolves_each_key_once(monkeypatch):
    """S4 minimal: one block per distinct part on the p f p side, 40 per
    function, where a key per unit of the part's orbit made 197 and every
    subset at every unit 92 x 13 = 1196; and on the reduction side one
    block per unit of each of the 40 parts, 74, where a reduction per
    subset made 182."""
    s4 = symmetric_group(4)
    gpd = build_coset_groupoid(s4, minimal_subgroups(s4))
    subsets = _unit_subsets(len(gpd.units))
    pairs, members = norms._orbit_parts(
        norms._orbit_labels(gpd._sources, gpd._ranges, len(gpd.units)), subsets)
    keys, parts = [key for key, _ in pairs], [part for _, part in pairs]
    assert len(keys) == len(parts) == len(set(parts)) == 40
    assert set(parts) == brute_force_parts(gpd, subsets)
    # each key lies in its part's orbit: its least unit outside the part,
    # or the part's least unit when the part is the whole orbit
    reach = reaches(gpd)
    for part, key in zip(parts, keys):
        orbit = reach[part[0]]
        assert key in orbit and key == min(orbit - set(part), default=part[0])
    # the 3 whole orbits of S4 minimal are the only parts keyed inside
    assert sum(key in part for part, key in zip(parts, keys)) == len(set(reach)) == 3
    # every subset is the disjoint union of its parts
    assert [sorted(u for p in m for u in parts[p]) for m in members] == subsets
    assert sum(map(len, parts)) == 74
    matrices = []
    real = norms._gram_tops
    monkeypatch.setattr(norms, "_gram_tops",
                        lambda a: matrices.append(a.size // a.shape[-1] ** 2) or real(a))
    rng = random.Random(3)
    fs = [random_groupoid_function(rng, gpd) for _ in range(3)]
    block_residuals(gpd, subsets, block_of(fs))
    # the reductions' own blocks: one per unit of each part
    assert sum(matrices) == len(fs) * (40 + 74)


def swap_block_entries(gpd, x):
    """gpd with two entries of row 0 of unit x's index block swapped."""
    block = gpd._rep_blocks[x].copy()
    block[0, [0, 1]] = block[0, [1, 0]]
    gpd._rep_blocks = gpd._rep_blocks[:x] + (block,) + gpd._rep_blocks[x + 1:]
    return gpd


def test_translation_check_catches_two_swapped_block_entries(capsys, monkeypatch):
    # S4 minimal: the orbit of the 6 transposition subgroups; the check
    # compares each unit's block with its orbit's least unit's
    s4 = symmetric_group(4)
    orbit = sorted(next(r for r in reaches(build_coset_groupoid(
        s4, minimal_subgroups(s4))) if len(r) == 6))
    tops = []
    real = norms._gram_tops
    monkeypatch.setattr(norms, "_gram_tops", lambda a: tops.append(a.shape) or real(a))
    for x, named in ((orbit[-1], f"unit {orbit[-1]} is not the block at unit {orbit[0]}"),
                     (orbit[0], f"the block at unit {orbit[1]} is not the block at "
                                f"unit {orbit[0]} translated")):
        gpd = swap_block_entries(build_coset_groupoid(s4, minimal_subgroups(s4)), x)
        fs = [random_groupoid_function(random.Random(8), gpd)]
        with pytest.raises(InternalInconsistencyError, match=named):
            block_residuals(gpd, [[x]], block_of(fs))
    # a product that sends the translates outside x's arrows is refused too,
    # not read past x's block; orbit[1] = 1 is the first unit checked
    gpd = build_coset_groupoid(s4, minimal_subgroups(s4))
    gpd.product = lambda k, h: np.full(np.broadcast(k, h).shape, gpd.num_arrows() - 1)
    with pytest.raises(InternalInconsistencyError, match=f"the block at unit {orbit[1]} "):
        block_residuals(gpd, [[orbit[1]]], block_of(fs))
    # so are distinct translates outside x's arrows that sort to the right
    # positions, each just below the true product: the positions alone
    # would pass, since they are the true permutation
    gpd = build_coset_groupoid(s4, minimal_subgroups(s4))
    real_product = gpd.product
    gpd.product = lambda k, h: real_product(k, h) - 0.5
    with pytest.raises(InternalInconsistencyError, match=f"the block at unit {orbit[1]} "):
        block_residuals(gpd, [[orbit[1]]], block_of(fs))
    # raised before any float is compared
    assert tops == []
    real_build = cli.build_coset_groupoid
    monkeypatch.setattr(cli, "build_coset_groupoid",
                        lambda group, family: swap_block_entries(real_build(group, family),
                                                                 orbit[-1]))
    code = main(["normcheck", "--group", '{"kind":"symmetric","n":4}',
                 "--family", '{"minimal":true}', "--trials", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_TOLERANCE and report["error"] == "internal-inconsistency"
    assert report["detail"] == (f"the block at unit {orbit[-1]} is not the block at "
                                f"unit {orbit[0]} translated")


def test_normcheck_builds_one_reduction_per_part(capsys, monkeypatch):
    built = []

    def counting(groupoid, units):
        built.append(tuple(units))
        return reduction_groupoid(groupoid, units)

    monkeypatch.setattr(norms, "reduction_groupoid", counting)
    assert main(["normcheck", "--group", '{"kind":"symmetric","n":4}',
                 "--family", '{"minimal":true}', "--trials", "3"]) == EXIT_OK
    capsys.readouterr()
    s4 = symmetric_group(4)
    gpd = build_coset_groupoid(s4, minimal_subgroups(s4))
    parts = brute_force_parts(gpd, _unit_subsets(len(gpd.units)))
    # 40 distinct parts of the 92 subsets, each built once
    assert len(built) == len(set(built)) == 40 and set(built) == parts
    # C2^7 minimal: 127 units, each its own orbit, in 8129 subsets
    built.clear()
    assert main(["normcheck", "--group", '{"kind":"product","factors":[{"kind":"cyclic","n":2}'
                 + ',{"kind":"cyclic","n":2}' * 6 + ']}',
                 "--family", '{"minimal":true}', "--trials", "1"]) == EXIT_OK
    capsys.readouterr()
    assert len(_unit_subsets(127)) == 8129
    assert sorted(built) == [(u,) for u in range(127)]


def test_norm_equation_rejects_units_out_of_range():
    # units are checked before a subset is split by orbit: a unit past the
    # last must not index the orbit labels, nor a negative one wrap round
    gpd = s3_groupoid()
    assert len(gpd.units) == 3
    f = random_groupoid_function(random.Random(5), gpd)
    for units, bad in (([3], 3), ([-1], -1), ([0, 5], 5), ([-1, 0], -1)):
        for fs in ([f], []):
            with pytest.raises(ValueError, match=f"^unit {bad} out of range$"):
                norm_equation_residuals(gpd, units, fs)
        with pytest.raises(ValueError, match=f"^unit {bad} out of range$"):
            verify_norm_equation(gpd, units, f)
    for fs in ([f], []):
        with pytest.raises(ValueError, match="non-empty"):
            norm_equation_residuals(gpd, [], fs)


# S3 as a one-unit groupoid: the one left-regular block carries the norm
NORMCHECK_S3 = ["normcheck", "--group", '{"kind":"symmetric","n":3}',
                "--family", '{"subgroups":[[0]]}', "--trials", "2"]


def s3_group_case():
    s3 = symmetric_group(3)
    gpd = build_coset_groupoid(s3, make_family(s3, [(0,)]))
    return gpd, random_groupoid_function(random.Random(2), gpd)


def swap_two_products(gpd):
    """gpd with a b and a c swapped for some arrows a, b, c off the units,
    or gpd itself when it has no two such products that differ."""
    table = gpd.compose_table.copy()
    off_units = [a for a in range(gpd.num_arrows()) if a not in gpd.unit_arrows]
    for a in off_units:
        cols = [b for b in off_units if table[a, b] >= 0]
        if len(cols) >= 2 and table[a, cols[0]] != table[a, cols[1]]:
            b, c = cols[:2]
            table[a, b], table[a, c] = table[a, c], table[a, b]
            return FiniteGroupoid(gpd.units, gpd.arrows, gpd.inverse,
                                  lambda k, h: table[k, h])
    return gpd


def test_norm_equation_fails_on_a_corrupted_reduction(capsys, monkeypatch):
    def corrupted(groupoid, units):
        reduced, kept = reduction_groupoid(groupoid, units)
        return swap_two_products(reduced), kept

    gpd, f = s3_group_case()
    assert verify_norm_equation(gpd, [0], f) < TOL
    monkeypatch.setattr(norms, "reduction_groupoid", corrupted)
    assert verify_norm_equation(gpd, [0], f) > TOL
    assert main(NORMCHECK_S3) == EXIT_TOLERANCE
    capsys.readouterr()


def test_norm_equation_fails_when_convolution_drops_a_term(capsys, monkeypatch):
    real = groupoid_module._matching

    def dropping(left, right, num_units):
        i, j = real(left, right, num_units)
        return i[1:], j[1:]

    gpd, f = s3_group_case()
    monkeypatch.setattr(groupoid_module, "_matching", dropping)
    # the float residual of the corrupted p f p, and the exact check
    reduced, kept = reduction_groupoid(gpd, [0])
    assert abs(reduced_norm(reduced, restrict_function(reduced, kept, f))
               - reduced_norm(gpd, compress_to_units(gpd, f, [0]))) > TOL
    with pytest.raises(InternalInconsistencyError):
        verify_norm_equation(gpd, [0], f)
    assert main(NORMCHECK_S3) == EXIT_TOLERANCE
    assert json.loads(capsys.readouterr().out)["error"] == "internal-inconsistency"


def test_exact_compression_check_catches_a_one_unit_error(capsys, monkeypatch):
    # values n / d with d near 2^40: one numerator unit of p f p is about
    # 1e-12, far below the tolerance of the float residual
    gpd = s3_groupoid()
    den = 2 ** 40 - 87
    rng = random.Random(11)
    f = GroupoidFunction(gpd, tuple(Fraction(rng.randint(-9 * den, 9 * den), den)
                                    for _ in range(gpd.num_arrows())))
    assert integer_rows([f.values])[1] == den
    units = [0, 1]
    real = norms._compress

    def off_by_one(groupoid, nums, units):
        out = real(groupoid, nums, units).copy()
        out[:, groupoid.unit_arrows[units[0]]] += 1
        return out

    monkeypatch.setattr(norms, "_compress", off_by_one)
    reduced, kept = reduction_groupoid(gpd, units)
    residual = abs(reduced_norm(reduced, restrict_function(reduced, kept, f))
                   - reduced_norm(gpd, compress_to_units(gpd, f, units)))
    assert 0 < residual < TOL
    with pytest.raises(InternalInconsistencyError, match="units \\[0, 1\\]"):
        norm_equation_residuals(gpd, units, [f])
    code = main(["normcheck", "--group", '{"kind":"symmetric","n":3}',
                 "--family", '{"conjugacy_class_of":[0,2]}', "--trials", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_TOLERANCE
    assert report["error"] == "internal-inconsistency" and "p f p" in report["detail"]


def test_part_check_catches_an_error_in_one_orbit(capsys, monkeypatch):
    # S4 minimal: p f p off by one only on the parts inside the orbit of
    # the 3 double-transposition subgroups; each part's exact check names it
    s4 = symmetric_group(4)
    gpd = build_coset_groupoid(s4, minimal_subgroups(s4))
    reach = [{a.range for a in gpd.arrows if a.source == v} for v in range(len(gpd.units))]
    orbit = sorted(next(r for r in reach if len(r) == 3))
    real = norms._compress

    def off_by_one(groupoid, nums, units):
        out = real(groupoid, nums, units)
        if set(units) <= set(orbit):
            out = out.copy()
            out[:, groupoid.unit_arrows[units[0]]] += 1
        return out

    monkeypatch.setattr(norms, "_compress", off_by_one)
    code = main(["normcheck", "--group", '{"kind":"symmetric","n":4}',
                 "--family", '{"minimal":true}', "--trials", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_TOLERANCE and report["error"] == "internal-inconsistency"
    # the first such part is the singleton of the orbit's least unit
    assert report["detail"] == (f"p f p over units [{orbit[0]}] is not f restricted "
                                "to the reduction")


def test_normcheck_report_is_independent_of_the_block_size(capsys, monkeypatch):
    argv = ["normcheck", "--group", '{"kind":"symmetric","n":4}',
            "--family", '{"minimal":true}', "--trials", "20", "--seed", "1"]
    assert main(argv) == EXIT_OK
    whole = capsys.readouterr().out
    # S4's minimal groupoid has 140 arrows: blocks of 6 trials, 4 blocks
    drawn = []
    real = norms.block_residuals
    monkeypatch.setattr(norms, "NORM_BATCH", 6 * 140)
    monkeypatch.setattr(norms, "block_residuals", lambda gpd, subsets, block: drawn.append(
        len(block.numerators)) or real(gpd, subsets, block))
    assert main(argv) == EXIT_OK
    assert drawn == [6, 6, 6, 2]
    assert capsys.readouterr().out == whole


def test_normcheck_builds_no_fraction(capsys, monkeypatch):
    # the trials are integer rows from the draw to the eigensolve
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for group, family in (('{"kind":"symmetric","n":4}', '{"minimal":true}'),
                          ('{"kind":"cyclic","n":70}', '{"subgroups":[[0]]}')):
        assert main(["normcheck", "--group", group, "--family", family,
                     "--trials", "3"]) == EXIT_OK
        capsys.readouterr()
    assert made == []
    # the counter does see the Fractions of the function view of the draw
    random_coeffs(random.Random(0), 2)
    assert made


def test_draw_is_the_fraction_draw_over_one_denominator():
    # each value n / d is drawn numerator first, as n (12 / d) over 12
    assert DENOMINATOR == math.lcm(*DENOMINATORS)
    for seed in range(6):
        rng, ref = random.Random(seed), random.Random(seed)
        n = 50 + 17 * seed
        drawn = random_coeffs(rng, n)
        assert drawn == tuple(Fraction(ref.randint(-9, 9), ref.choice((1, 2, 3, 4)))
                              for _ in range(n))
        assert rng.getstate() == ref.getstate()
    gpd = s3_groupoid()
    rng, ref = random.Random(7), random.Random(7)
    f = random_groupoid_function(rng, gpd)
    assert f.values == tuple(Fraction(ref.randint(-9, 9), ref.choice((1, 2, 3, 4)))
                             for _ in range(gpd.num_arrows()))
    assert rng.getstate() == ref.getstate()


def test_float_conversion_is_float_of_the_fraction():
    edge = 2 ** 53
    nums = [0, 1, -1, 7, edge - 1, edge, edge + 1, -(edge + 1), 3 * edge + 5,
            2 ** 62 + 1, -(2 ** 63 - 1)]
    for den in (1, 3, edge - 1, edge + 1, 2 ** 61 - 1, 2 ** 89 - 1):
        for dtype in (np.int64, object):
            rows = np.array([nums, nums[::-1]], dtype=dtype)
            floats = norms._row_floats(rows, den)
            assert floats.dtype == np.float64 and floats.shape == rows.shape
            assert floats.tolist() == [[float(Fraction(n, den)) for n in row]
                                       for row in (nums, nums[::-1])]
    # the float64 division path: both sides of 2^53, one entry at a time
    for n in (edge - 1, edge + 1, 10 ** 15 + 7):
        for den in (3, edge - 1, edge + 1):
            got = norms._row_floats(np.array([[n, -n]], dtype=np.int64), den)
            assert got.tolist() == [[float(Fraction(n, den)), float(Fraction(-n, den))]]
    # a whole block and one function, over mixed and huge denominators
    gpd = s3_groupoid()
    values = [Fraction(edge + 1, 3), Fraction(-1, edge - 1), Fraction(5, 2 ** 89 - 1),
              Fraction(2 ** 70 + 1, 7), Fraction(0), Fraction(9, 4)]
    values += [Fraction(0)] * (gpd.num_arrows() - len(values))
    fs = [GroupoidFunction(gpd, tuple(values)),
          random_groupoid_function(random.Random(3), gpd)]
    block = block_of(fs)
    for f, row in zip(fs, block.floats):
        assert row.tolist() == [float(v) for v in f.values]
        assert function_floats(f).tolist() == [float(v) for v in f.values]

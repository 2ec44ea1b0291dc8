"""Kernel computations, witnesses and the intersection-property verdicts."""

import collections
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from singideal import _kernels, exact, groups
from singideal.atlas import abelian_groups_of_order
from singideal.cli import EXIT_INCONSISTENT, main
from singideal.exact import (_certify_kernel, in_span, integer_product,
                             same_subspace, spans_full)
from singideal.groupoid import (build_coset_groupoid, kernel_of_q_dimension,
                                q_map)
from singideal.groups import (SubgroupFamily, conjugation_closure,
                              coset_index, cosets_of_subgroup, cyclic,
                              dihedral, direct_product, distinct_cosets,
                              enumerate_subgroups, make_family,
                              minimal_subgroups, parse_family, quaternion_group,
                              restrict_family, subgroup_generated,
                              symmetric_group)
from singideal.ideals import (GroupAlgebraElement, IdealReport,
                              InternalInconsistencyError, NotAbelianError,
                              _check_entry_sets,
                              _coset_matrix, abelian_AI_criterion,
                              algebraic_ideal_kernel, check_witness,
                              class_I_check, coset_constraint_matrix,
                              full_ideal_kernel, integer_witness, property_AI,
                              quasi_regular_matrix, weak_containment_regular)


def sign_of_permutation(perm):
    sign, seen = 1, set()
    for start in range(len(perm)):
        if start in seen:
            continue
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = perm[x]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def transposition_family(s3):
    t = next(g for g in s3.elements() if s3.element_order(g) == 2)
    return conjugation_closure(s3, [subgroup_generated(s3, (t,))])


def test_constraint_matrix_shapes():
    g2 = cyclic(2)
    m = coset_constraint_matrix(g2, make_family(g2, [(0, 1)]))
    assert (m.rows, m.cols) == (1, 2) and m.row(0) == (1, 1)
    g6 = cyclic(6)
    m6 = coset_constraint_matrix(g6, make_family(g6, [(0, 3)]))
    assert (m6.rows, m6.cols) == (3, 6)
    assert all(sum(m6.row(i)) == 2 for i in range(3))
    # rows partition the columns
    assert [sum(m6.row(i)[j] for i in range(3)) for j in range(6)] == [1] * 6
    ident = coset_constraint_matrix(g6, make_family(g6, [(0,)]))
    assert (ident.rows, ident.cols) == (6, 6)
    assert sorted(ident.row_lists()) == sorted([[int(i == j) for j in range(6)]
                                                for i in range(6)])


def test_algebraic_kernel_examples():
    g6 = cyclic(6)
    assert algebraic_ideal_kernel(g6, make_family(g6, [(0,)])) == []
    g2 = cyclic(2)
    basis = algebraic_ideal_kernel(g2, make_family(g2, [(0, 1)]))
    assert len(basis) == 1 and basis[0][0] == -basis[0][1]
    s3 = symmetric_group(3)
    from itertools import permutations
    perms = list(permutations(range(3)))
    sign_vec = [sign_of_permutation(p) for p in perms]
    basis = algebraic_ideal_kernel(s3, transposition_family(s3))
    assert len(basis) >= 1
    assert in_span(basis, sign_vec)
    # oracle: every coset {g, gt} pairs a +1 with a -1 permutation
    for coset in distinct_cosets(s3, transposition_family(s3)):
        assert sum(sign_vec[x] for x in coset.elements) == 0


def test_integer_witness_examples():
    g2 = cyclic(2)
    w = integer_witness(g2, make_family(g2, [(0, 1)]))
    assert w.coeffs == (1, -1)
    g6 = cyclic(6)
    assert integer_witness(g6, make_family(g6, [(0,)])) is None
    v4 = direct_product([cyclic(2), cyclic(2)])
    assert integer_witness(v4, minimal_subgroups(v4)) is None


def test_witness_substitution_exact(catalog_cases):
    for group, family in catalog_cases:
        w = integer_witness(group, family)
        if w is None:
            continue
        assert not w.is_zero()
        assert check_witness(group, family, w.coeffs)


def test_quasi_regular_matrix():
    g6 = cyclic(6)
    m = quasi_regular_matrix(g6, tuple(range(6)), 3)
    assert m.row_lists() == [[1]]
    # trivial subgroup gives the regular representation
    s3 = symmetric_group(3)
    for g in s3.elements():
        m = quasi_regular_matrix(s3, (0,), g)
        rows = m.row_lists()
        for j in range(6):
            assert rows[s3.mul(g, j)][j] == 1
    m = quasi_regular_matrix(g6, (0, 3), 1)
    assert m.row_lists() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


def test_quasi_regular_matrix_refuses_an_element_out_of_range():
    c3 = cyclic(3)
    for g in (-1, 3):
        with pytest.raises(ValueError, match=f"^element {g} out of range for order 3$"):
            quasi_regular_matrix(c3, (0,), g)


def test_full_kernel_examples():
    g2 = cyclic(2)
    assert len(full_ideal_kernel(g2, make_family(g2, [(0, 1)]))) == 1
    g6 = cyclic(6)
    assert len(full_ideal_kernel(g6, make_family(g6, [(0,)]))) == 0
    g4 = cyclic(4)
    assert len(full_ideal_kernel(g4, make_family(g4, [(0, 2)]))) == 2


def test_full_kernel_matches_explicit_representation_assembly():
    # independent route: substitute kernel vectors into sum a(g) * lambda(g)
    s3 = symmetric_group(3)
    family = transposition_family(s3)
    basis = full_ideal_kernel(s3, family)
    for vec in basis:
        for sub in family:
            k = len(cosets_of_subgroup(s3, sub))
            total = [[Fraction(0)] * k for _ in range(k)]
            for g in s3.elements():
                mat = quasi_regular_matrix(s3, sub, g).row_lists()
                for i in range(k):
                    for j in range(k):
                        total[i][j] += vec[g] * mat[i][j]
            assert all(x == 0 for row in total for x in row)


def stacked_representation_rows(group, family):
    """Rows of the linearized map a -> (lambda_X(a))_X, one per matrix entry.

    Row (X, i, j) holds, for each column g, the (i, j) entry of the coset
    permutation matrix of g; duplicate rows are removed.  This is the
    explicit assembly of the full kernel's constraint system, kept as the
    reference that the coset constraint rows are checked against.
    """
    n = group.order
    blocks = []
    for sub in family.members:
        cosets = cosets_of_subgroup(group, sub)
        k = len(cosets)
        elem_to_coset = np.empty(n, dtype=np.int64)
        for j, coset in enumerate(cosets):
            for x in coset.elements:
                elem_to_coset[x] = j
        reps = np.array([c.representative for c in cosets], dtype=np.int64)
        # act[g, j] = index of the coset g * (coset j)
        act = elem_to_coset[np.asarray(group.table, dtype=np.int64)[:, reps]]
        rows = np.zeros((k, k, n), dtype=np.int8)
        g_idx = np.arange(n)[:, None]
        j_idx = np.arange(k)[None, :]
        rows[act, j_idx, g_idx] = 1
        blocks.append(rows.reshape(k * k, n))
    return np.unique(np.concatenate(blocks, axis=0), axis=0)


def test_stacked_representation_rows_are_the_coset_rows(catalog_cases):
    assert len(catalog_cases) == 97
    for group, family in catalog_cases:
        stacked = {tuple(row) for row
                   in stacked_representation_rows(group, family).tolist()}
        coset_rows = {tuple(row) for row
                      in coset_constraint_matrix(group, family).row_lists()}
        assert stacked == coset_rows, (group.name, family.members)


def patch_kernel(monkeypatch, change):
    """Hand the certificate the basis change(B) in place of the basis B
    read back from the RREF mod p."""
    real = exact._reconstruct

    def changed(*args):
        return change(real(*args))
    monkeypatch.setattr(exact, "_reconstruct", changed)


@pytest.mark.parametrize("change", [
    lambda basis: basis[:-1],
    lambda basis: np.vstack([basis, [(1, 0, 0, 0)]]),
], ids=["drop-a-vector", "append-a-non-kernel-vector"])
def test_kernel_certificate_catches_a_wrong_basis(monkeypatch, capsys, change):
    g4 = cyclic(4)
    family = make_family(g4, [(0, 2)])
    assert class_I_check(g4, family).algebraic_kernel_dim == 2
    patch_kernel(monkeypatch, change)
    with pytest.raises(InternalInconsistencyError):
        class_I_check(g4, family)
    code = main(["analyze", "--group", '{"kind":"cyclic","n":4}',
                 "--family", '{"subgroups":[[0,2]]}'])
    assert code == EXIT_INCONSISTENT
    assert "internal-inconsistency" in capsys.readouterr().out


def test_kernel_certificate_beyond_int64():
    # entries this large take the exact object-dtype substitution
    g2 = cyclic(2)
    matrix = _coset_matrix(g2, make_family(g2, [(0, 1)]))
    assert matrix.dtype == np.int8
    rank_p = int(_kernels.eliminate_mod_p(matrix, _kernels.CERT_PRIME)[0].sum())
    big = 2 ** 70
    _certify_kernel(matrix, np.array([(big, -big)], dtype=object), rank_p)
    with pytest.raises(InternalInconsistencyError):
        _certify_kernel(matrix, np.array([(big, 1 - big)], dtype=object), rank_p)


@pytest.fixture
def c12_kernel():
    """A catalog case with a 6-dimensional kernel: C12 with {0, 6}."""
    g12 = cyclic(12)
    family = make_family(g12, [(0, 6)])
    matrix = _coset_matrix(g12, family)
    rank_p = int(_kernels.eliminate_mod_p(matrix, _kernels.CERT_PRIME)[0].sum())
    return g12, family, matrix, exact._integer_kernel(matrix), rank_p


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(module, name, counting)
    return calls


def test_kernel_certificate_independence_can_fail(monkeypatch, c12_kernel):
    """Every basis below is in the kernel and has the right size; the
    structure check alone refuses it."""
    group, family, matrix, basis, rank_p = c12_kernel
    assert len(basis) == 6 and rank_p == 6
    _certify_kernel(matrix, basis, rank_p)
    v1, v2 = basis[:1], basis[1:2]
    wrong = {
        # one vector repeated: dependent
        "repeated": np.vstack([v1, basis[:-1]]),
        # (v1 + v2, v2, ...) is independent, but its first two vectors end
        # in the same column
        "recombined": np.vstack([v1 + v2, basis[1:]]),
        # (v1, v1 + v2, ...) ends in increasing columns, but its second
        # vector is non-zero at the first vector's free column
        "not reduced": np.vstack([v1, v1 + v2, basis[2:]]),
        "reordered": basis[::-1],
    }
    for name, changed in wrong.items():
        assert not integer_product(matrix, changed).any(), name
        with pytest.raises(InternalInconsistencyError, match="not in reduced echelon form"):
            _certify_kernel(matrix, changed, rank_p)
        patch_kernel(monkeypatch, lambda b, changed=changed: changed)
        with pytest.raises(InternalInconsistencyError, match="not in reduced echelon form"):
            class_I_check(group, family)


def test_kernel_certificate_exact_past_float_range(c12_kernel):
    # bound 2^54 times row weight 2 is past 2^53, where float64 sums stop
    # being exact; the int64 substitution still sees a one-unit error
    _, _, matrix, basis, rank_p = c12_kernel
    scaled = basis * 2 ** 54
    _certify_kernel(matrix, scaled, rank_p)
    perturbed = scaled.copy()
    perturbed[0, 0] += 1
    as_floats = matrix.astype(np.float64) @ perturbed.T.astype(np.float64)
    assert not as_floats.any()
    with pytest.raises(InternalInconsistencyError, match="fails M x = 0"):
        _certify_kernel(matrix, perturbed, rank_p)


def forward_passes(matrix):
    """The forward passes that ``exact._integer_kernel`` takes of a coset
    matrix before any Gauss-Jordan pass: for at least as many rows as
    columns c, one of the transpose of each prefix of 2c, 4c, ... rows and
    at last all of them, until the first whose rank (read here in floats)
    is c; none for fewer rows than columns."""
    rows, cols = matrix.shape
    passes, size = [], 2 * cols
    while rows >= cols:
        passes.append(((cols, min(size, rows)), _kernels.CERT_PRIME, False))
        if size >= rows or np.linalg.matrix_rank(matrix[:size].astype(float)) == cols:
            break
        size *= 2
    return passes


@pytest.mark.parametrize("shortcut", [False, True], ids=["C12-{0,6}", "S4-minimal"])
def test_kernel_certificate_reads_the_elimination_rank(monkeypatch, eliminations, shortcut):
    """The certificate reads the rank mod p that the elimination found: its
    pivot count, passed on unchanged, and one too high or one too low must
    raise.  S4 minimal has a trivial kernel, settled by full column rank
    in forward passes of the transposes of prefixes of its rows; C12
    {0, 6} has a 6-dimensional one, read off the RREF."""
    group = symmetric_group(4) if shortcut else cyclic(12)
    family = (minimal_subgroups(group) if shortcut
              else make_family(group, [(0, 6)]))
    matrix = _coset_matrix(group, family)
    certified = count_calls(monkeypatch, exact, "_certify_kernel")
    basis = exact._integer_kernel(matrix)
    assert (len(basis) == 0) == shortcut
    assert (matrix.shape[0] >= matrix.shape[1]) == shortcut
    rank_p = matrix.shape[1] - len(basis)
    if shortcut:
        assert eliminations == forward_passes(matrix)
        assert certified == []
    else:
        assert eliminations == [(matrix.shape, _kernels.CERT_PRIME, True)]
        assert len(certified) == 1 and certified[0][2] == rank_p
    _certify_kernel(matrix, basis, rank_p)
    for wrong in (rank_p + 1, rank_p - 1):
        with pytest.raises(InternalInconsistencyError, match="disagrees with the matrix rank"):
            _certify_kernel(matrix, basis, wrong)


def test_entry_set_check_memory_on_c5040():
    # C5040 with {[0]} has 5040 cosets; the check gathers row 0 only, the
    # 5040 entry sets X c_j^-1 of one element each, |G| table entries
    g = cyclic(5040)
    family = make_family(g, [(0,)])
    coset_index(g, family)
    tracemalloc.start()
    try:
        _check_entry_sets(g, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, f"the entry-set check peaked at {peak / 2 ** 20:.1f} MiB"


def test_entry_set_check_rejects_a_non_invariant_family():
    s3 = symmetric_group(3)
    family = SubgroupFamily(s3, ((0, 1),))   # built directly, not closed
    with pytest.raises(InternalInconsistencyError, match="not a family member"):
        class_I_check(s3, family)
    with pytest.raises(InternalInconsistencyError, match="not a family member"):
        full_ideal_kernel(s3, family)


# members that are not subgroups; S3 [0, 2, 4] has 2 translates of 3
# elements each, like a subgroup of index 2, so counting cosets passes it
NON_SUBGROUP_MEMBERS = [(symmetric_group(3), (0, 1, 2)), (cyclic(6), (0, 1, 2, 3)),
                        (symmetric_group(3), (0, 2, 4))]


def test_entry_set_check_rejects_a_member_that_is_no_subgroup():
    # SubgroupFamily built directly skips the subgroup check of make_family;
    # the coset table refuses the member for every reader, with the one-line
    # error of make_family, before any coset is numbered
    for group, member in NON_SUBGROUP_MEMBERS:
        entry_points = [
            class_I_check, full_ideal_kernel, integer_witness,
            algebraic_ideal_kernel, weak_containment_regular,
            coset_constraint_matrix, build_coset_groupoid, kernel_of_q_dimension,
            distinct_cosets, coset_index, groups.coset_table,
            groups.normal_closure_subgroup,
            lambda g, f: check_witness(g, f, [0] * g.order),
            lambda g, f: q_map(g, f, [0] * g.order),
            lambda g, f: quasi_regular_matrix(g, f.members[0], 1),
            lambda g, f: cosets_of_subgroup(g, f.members[0]),
            lambda g, f: make_family(g, f.members),
            lambda g, f: conjugation_closure(g, f.members),
        ]
        message = f"^{re.escape(str(member))} is not a subgroup$"
        for entry in entry_points:
            with pytest.raises(ValueError, match=message):
                entry(group, SubgroupFamily(group, (member,)))


def mutate_ranges(monkeypatch, mutation, field="ranges"):
    """Patch `groups._coset_table` so that every table it builds has its
    ``field`` array (the ranges, or the representatives ``reps``) changed
    by ``mutation(array, table, sizes)`` in place."""
    real = groups._coset_table

    def mutated(group, members):
        table = real(group, members)
        array = getattr(table, field).copy()
        mutation(array, table, np.array([len(sub) for sub in members]))
        return table._replace(**{field: array})
    monkeypatch.setattr(groups, "_coset_table", mutated)


def swap_two_ranges(ranges, table, sizes):
    # two cosets of one member, neither the member itself, whose ranges are
    # distinct members (of one size, the member's)
    sources = np.repeat(np.arange(len(sizes)), table.index.shape[1] // sizes)
    moved = np.flatnonzero(table.reps > 0)
    for a in moved:
        for b in moved[(moved > a) & (sources[moved] == sources[a])]:
            if ranges[a] != ranges[b]:
                ranges[[a, b]] = ranges[[b, a]]
                return
    raise AssertionError("no two ranges to swap")


def range_of_another_size(ranges, table, sizes):
    a = int(np.flatnonzero(table.reps > 0)[0])
    ranges[a] = int(np.flatnonzero(sizes != sizes[ranges[a]])[0])


def no_range(ranges, table, sizes):
    ranges[int(np.flatnonzero(table.reps > 0)[0])] = -1


MUTATION_CASES = [(symmetric_group(4), "S4"), (dihedral(5), "D5")]


@pytest.mark.parametrize("group", [g for g, _ in MUTATION_CASES],
                         ids=[name for _, name in MUTATION_CASES])
def test_the_checks_catch_a_wrong_range_in_the_coset_table(monkeypatch, group):
    """The ranges are computed once, in the coset table; the entry-set check
    and the groupoid axioms read them and must still catch a wrong one."""
    class_I_check(group, minimal_subgroups(group))
    build_coset_groupoid(group, minimal_subgroups(group)).check_axioms()

    mutate_ranges(monkeypatch, swap_two_ranges)
    with pytest.raises(InternalInconsistencyError, match="not a left coset of its conjugate"):
        class_I_check(group, minimal_subgroups(group))
    with pytest.raises(AssertionError):
        build_coset_groupoid(group, minimal_subgroups(group)).check_axioms()

    mutate_ranges(monkeypatch, range_of_another_size)
    with pytest.raises(InternalInconsistencyError, match="a member of another size"):
        class_I_check(group, minimal_subgroups(group))
    with pytest.raises(AssertionError):
        build_coset_groupoid(group, minimal_subgroups(group)).check_axioms()

    mutate_ranges(monkeypatch, no_range)
    with pytest.raises(InternalInconsistencyError, match="not a family member"):
        class_I_check(group, minimal_subgroups(group))
    with pytest.raises(ValueError, match="not a family member"):
        build_coset_groupoid(group, minimal_subgroups(group))


def two_cosets_share_a_representative(reps, table, sizes):
    # the later of two cosets of one member with one range takes the
    # representative of the earlier, so it has none; each X c_j^-1 is still
    # a left coset of its range, and only the transversal check is left
    sources = np.repeat(np.arange(len(sizes)), table.index.shape[1] // sizes)
    for b in range(len(reps)):
        for a in range(b):
            if sources[a] == sources[b] and table.ranges[a] == table.ranges[b]:
                reps[b] = reps[a]
                return
    raise AssertionError("no two cosets of one member share a range")


@pytest.mark.parametrize("group", [g for g, _ in MUTATION_CASES],
                         ids=[name for _, name in MUTATION_CASES])
def test_the_checks_catch_a_shared_representative_in_the_coset_table(monkeypatch, group):
    mutate_ranges(monkeypatch, two_cosets_share_a_representative, field="reps")
    message = f"^1 family cosets of {group.name} are not entry sets"
    with pytest.raises(InternalInconsistencyError, match=message):
        class_I_check(group, minimal_subgroups(group))
    with pytest.raises(InternalInconsistencyError, match=message):
        full_ideal_kernel(group, minimal_subgroups(group))


def full_gather_entry_set_check(group, family):
    """The entry-set check on every row: all k^2 entry sets c_i X c_j^-1 of
    each member, k |G| table entries, and a coverage pass over the cosets.
    Kept as the reference for ``_check_entry_sets``, which gathers row 0."""
    table, inverse, n, members = group.table, group.inverse, group.order, family.members
    index, reps, ranges, _ = groups.coset_table(group, family)
    seen = np.zeros(len(reps), dtype=bool)
    sizes = np.array([len(sub) for sub in members])
    starts = np.cumsum(n // sizes) - n // sizes
    for size in sorted(set(sizes.tolist())):
        us = np.flatnonzero(sizes == size)
        subs = np.array([members[u] for u in us]).reshape(len(us), size)
        k = n // size
        arrows = starts[us, None] + np.arange(k)
        c, owner = reps[arrows], ranges[arrows]
        for bad, what in ((owner < 0, "not a family member"),
                          (sizes[owner] != size, "read as a member of another size")):
            if bad.any():
                sub = members[us[np.flatnonzero(bad.any(axis=1))[0]]]
                raise InternalInconsistencyError(
                    f"a conjugate of {list(sub)} in {group.name} is {what}")
        left = table[c[:, :, None], subs[:, None, :]]      # c_i X
        inv_c = inverse[c]
        for p in range(len(us)):
            # entries[i, j, :] = c_i X c_j^-1
            entries = table[left[p, :, None, :], inv_c[p, None, :, None]]
            ids = index[owner[p, None, :, None], entries]
            if (ids != ids[..., :1]).any():
                raise InternalInconsistencyError(
                    f"an entry set of the representation on {group.name}/"
                    f"{list(members[us[p]])} is not a left coset of its conjugate")
            seen[ids[..., 0].ravel()] = True
    if not seen.all():
        raise InternalInconsistencyError(
            f"{int((~seen).sum())} family cosets of {group.name} are not entry "
            f"sets of the stacked representation")


def entry_set_failure(check, group, family):
    """The message ``check`` raises on the family, or None if it passes."""
    try:
        check(group, family)
    except InternalInconsistencyError as exc:
        return str(exc)
    return None


def test_entry_set_check_agrees_with_the_full_gather(monkeypatch, catalog_cases):
    c360 = cyclic(360)
    cases = list(catalog_cases) + [
        (g, minimal_subgroups(g))
        for g in (symmetric_group(5), dihedral(50), direct_product([cyclic(2)] * 6))]
    cases.append((c360, make_family(c360, [(0, 180)])))
    for group, family in cases:
        assert entry_set_failure(_check_entry_sets, group, family) is None
        assert entry_set_failure(full_gather_entry_set_check, group, family) is None
    for mutation in (swap_two_ranges, range_of_another_size, no_range):
        mutate_ranges(monkeypatch, mutation)
        for group, _ in MUTATION_CASES:
            family = minimal_subgroups(group)
            expected = entry_set_failure(full_gather_entry_set_check, group, family)
            assert expected is not None, (mutation.__name__, group.name)
            assert entry_set_failure(_check_entry_sets, group, family) == expected


def test_one_coset_table_per_family(monkeypatch, catalog_cases):
    """Parsing a family, analyzing it and building its groupoid build one
    coset table: the parse's, handed on with the family."""
    calls = count_calls(monkeypatch, groups, "_coset_table")
    c360 = cyclic(360)
    cases = [(g, f.members) for g, f in catalog_cases] + [(c360, ((0, 180),))]
    for group, members in cases:
        calls.clear()
        family = parse_family(group, {"subgroups": [list(m) for m in members]})
        assert family.members == members
        class_I_check(group, family)
        build_coset_groupoid(group, family)
        assert [args[1] for args in calls] == [members], (group.name, members)
    # and so does the analyze command, parse included
    calls.clear()
    assert main(["analyze", "--group", '{"kind": "cyclic", "n": 360}',
                 "--family", '{"subgroups": [[0, 180]]}']) == 0
    assert [args[1] for args in calls] == [((0, 180),)]


def test_class_I_check_eliminates_once(monkeypatch, catalog_cases):
    calls = {"_integer_kernel": [], "kernel_basis": []}

    def counting(name):
        real = getattr(exact, name)

        def count(m):
            calls[name].append(m)
            return real(m)
        return count

    for name in calls:
        monkeypatch.setattr(exact, name, counting(name))
    for group, family in catalog_cases[::10]:
        for seen in calls.values():
            seen.clear()
        class_I_check(group, family)
        assert len(calls["_integer_kernel"]) == 1, (group.name, family.members)
        assert calls["kernel_basis"] == [], (group.name, family.members)


def test_class_I_check_eliminates_once_per_prime(eliminations, catalog_cases):
    """One Gauss-Jordan pass per prime used, and one prime on every case
    below.  A matrix with at least as many rows as columns first takes
    forward passes of the transposes of growing prefixes of its rows
    (``forward_passes``), which settle a trivial kernel alone."""
    c2 = cyclic(2)
    large = [(g, minimal_subgroups(g)) for g in
             (symmetric_group(5), dihedral(50), direct_product([c2] * 6))]
    c360 = cyclic(360)
    cases = [*catalog_cases, *large, (c360, make_family(c360, [(0, 180)]))]
    counts = collections.Counter()
    for group, family in cases:
        eliminations.clear()
        dim = class_I_check(group, family).algebraic_kernel_dim
        matrix = _coset_matrix(group, family)
        passes = forward_passes(matrix)
        if dim:
            passes.append((matrix.shape, _kernels.CERT_PRIME, True))
        assert eliminations == passes, (group.name, family.members)
        counts[len(passes) - bool(dim)] += 1
    # S5 minimal reaches full rank at row 289 of 2044: prefixes of 240 and 480
    s5 = _coset_matrix(*large[0])
    assert forward_passes(s5) == [((120, 240), _kernels.CERT_PRIME, False),
                                  ((120, 480), _kernels.CERT_PRIME, False)]
    # wide matrices take no forward pass, 27 tall ones one and 3 two
    assert sorted(counts.items()) == [(0, 71), (1, 27), (2, 3)]


def test_wide_matrices_take_no_mod_p_rank(eliminations, catalog_cases):
    """A matrix with fewer rows than columns never has full column rank, so
    the witness, the span helpers and class_I_check take no forward
    (rank-only) pass of it: each reads the rank off one Gauss-Jordan pass."""
    wide = 0
    for group, family in catalog_cases:
        matrix = _coset_matrix(group, family)
        if matrix.shape[0] >= matrix.shape[1]:
            continue
        rows = matrix.tolist()
        # each call with the number of matrices it takes a kernel of
        calls = [(lambda: integer_witness(group, family), 1),
                 (lambda: exact.rank(rows), 1),
                 (lambda: class_I_check(group, family), 1)]
        if 2 * len(rows) < len(rows[0]):
            # rows + [vec] and the rows of both spans are wide as well
            wide += 1
            calls += [(lambda: in_span(rows, rows[0]), 2),
                      (lambda: same_subspace(rows, rows[::-1]), 3)]
        for call, kernels in calls:
            eliminations.clear()
            call()
            assert [(p, reduced) for _, p, reduced in eliminations] == [
                (_kernels.CERT_PRIME, True)] * kernels, (group.name, family.members)
        if 2 * len(rows) < len(rows[0]):
            assert in_span(rows, rows[0]) and same_subspace(rows, rows[::-1])
    assert wide >= 10


def test_class_I_check_builds_no_fraction(monkeypatch):
    # the verdict path is integers end to end: witness, certificate and all
    g = cyclic(360)
    family = make_family(g, [(0, 180)])
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    report = class_I_check(g, family)
    assert report.algebraic_kernel_dim == 180
    assert made == []
    # int coefficients, int64 or past it, are substituted as they are
    coeffs = report.witness.coeffs
    for scale in (1, 2 ** 70):
        scaled = [c * scale for c in coeffs]
        assert check_witness(g, family, scaled)
        assert exact.integer_rows([scaled])[1] == 1
    assert made == []
    # the counter does see the Fractions of the public rational view
    exact.kernel_basis([[1, 1]])
    assert made


def test_weak_containment():
    g6 = cyclic(6)
    assert weak_containment_regular(g6, make_family(g6, [(0,)]))
    g2 = cyclic(2)
    assert not weak_containment_regular(g2, make_family(g2, [(0, 1)]))
    v4 = direct_product([cyclic(2), cyclic(2)])
    assert weak_containment_regular(v4, minimal_subgroups(v4))


def test_class_I_report_invariants(catalog_cases):
    for group, family in catalog_cases:
        report = class_I_check(group, family)
        assert report.algebraic_kernel_dim == report.full_kernel_dim
        assert (report.witness is not None) == (report.algebraic_kernel_dim > 0)
        assert report.weak_containment == (report.full_kernel_dim == 0)
        assert weak_containment_regular(group, family) is report.weak_containment
        assert report.in_class_I


def test_kernel_coincidence_mutual_membership():
    for group, seed in [(symmetric_group(3), None), (cyclic(12), (0, 4, 8)),
                        (quaternion_group(), (0, 1))]:
        if seed is None:
            family = transposition_family(group)
        else:
            family = conjugation_closure(group, [seed])
        a = algebraic_ideal_kernel(group, family)
        f = full_ideal_kernel(group, family)
        assert same_subspace(a, f)
        assert all(in_span(f, v) for v in a)
        assert all(in_span(a, v) for v in f)


def test_property_ai_examples():
    v4 = direct_product([cyclic(2), cyclic(2)])
    assert property_AI(v4).ai_verdict is False
    rep = property_AI(cyclic(4))
    assert rep.ai_verdict is True and rep.witness is not None
    assert property_AI(quaternion_group()).ai_verdict is True
    assert property_AI(cyclic(1)).ai_verdict is True


def test_span_kernel_duality(catalog_cases):
    for group, family in catalog_cases:
        vectors = [list(coset_constraint_matrix(group, family).row(i))
                   for i in range(len(distinct_cosets(group, family)))]
        spans = spans_full(vectors, group.order)
        dim = len(algebraic_ideal_kernel(group, family))
        assert spans == (dim == 0)


def test_abelian_ai_criterion():
    assert abelian_AI_criterion(cyclic(4))
    assert not abelian_AI_criterion(direct_product([cyclic(2), cyclic(2)]))
    assert not abelian_AI_criterion(direct_product([cyclic(2), cyclic(4)]))
    with pytest.raises(NotAbelianError):
        abelian_AI_criterion(symmetric_group(3))


def subgroup_set_criterion(group):
    """Reference: collect the subgroups of each prime order and count them."""
    per_prime = {}
    for g in range(1, group.order):
        p = group.element_order(g)
        if all(p % d for d in range(2, p)):
            per_prime.setdefault(p, set()).add(subgroup_generated(group, (g,)))
    return all(len(subs) <= 1 for subs in per_prime.values())


def test_abelian_ai_criterion_matches_the_subgroup_sets_on_the_atlas():
    verdicts = []
    for n in range(1, 65):
        for _, group in abelian_groups_of_order(n):
            verdict = abelian_AI_criterion(group)
            assert verdict == subgroup_set_criterion(group), group.name
            verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)
    with pytest.raises(NotAbelianError):
        abelian_AI_criterion(symmetric_group(3))


def test_union_identity_exact():
    rng = random.Random(11)
    s4 = symmetric_group(4)
    subs = enumerate_subgroups(s4)
    for _ in range(10):
        f1 = conjugation_closure(s4, [rng.choice(subs)])
        f2 = conjugation_closure(s4, [rng.choice(subs)])
        union = make_family(s4, f1.members + f2.members)
        k_union = algebraic_ideal_kernel(s4, union)
        k1 = algebraic_ideal_kernel(s4, f1)
        k2 = algebraic_ideal_kernel(s4, f2)
        # intersection of the two kernels: common solutions of both systems
        stacked = ([list(coset_constraint_matrix(s4, f1).row(i))
                    for i in range(coset_constraint_matrix(s4, f1).rows)]
                   + [list(coset_constraint_matrix(s4, f2).row(i))
                      for i in range(coset_constraint_matrix(s4, f2).rows)])
        from singideal.exact import kernel_basis
        k_int = kernel_basis(stacked)
        assert same_subspace(k_union, k_int)
        assert all(in_span(k1, v) and in_span(k2, v) for v in k_union)


def test_subgroup_restriction_identity():
    g6 = cyclic(6)
    fam = make_family(g6, [(0, 3)])
    lam = (0, 2, 4)
    restricted = restrict_family(g6, lam, fam)
    # kernel elements supported on lam, restricted to lam coordinates
    from singideal.exact import kernel_basis
    rows = [list(coset_constraint_matrix(g6, fam).row(i)) for i in range(3)]
    for x in range(6):
        if x not in lam:
            pin = [0] * 6
            pin[x] = 1
            rows.append(pin)
    supported = [[v[x] for x in lam] for v in kernel_basis(rows)]
    inner_kernel = algebraic_ideal_kernel(restricted.group, restricted)
    assert same_subspace(supported, inner_kernel)


def test_report_json_round_trip():
    g2 = cyclic(2)
    report = class_I_check(g2, make_family(g2, [(0, 1)]))
    data = report.to_json_dict()
    back = IdealReport.from_json_dict(data, group=g2)
    assert back == report
    assert data["witness"]["coeffs"] == ["1", "-1"]


def test_report_json_dict_copies_the_cross_checks():
    g2 = cyclic(2)
    report = class_I_check(g2, make_family(g2, [(0, 1)]))
    before = dict(report.cross_checks)
    data = report.to_json_dict()
    data["cross_checks"]["q_kernel_agrees"] = True
    assert report.cross_checks == before


def test_group_algebra_element_validation():
    g2 = cyclic(2)
    with pytest.raises(ValueError):
        GroupAlgebraElement(g2, (1,))
    elt = GroupAlgebraElement(g2, (1, -1))
    assert not elt.is_zero()

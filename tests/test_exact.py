"""Exact rational linear algebra: ranks, kernels, spans, integerization."""

import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singideal import exact
from singideal._kernels import CERT_PRIME, eliminate_mod_p
from singideal.exact import (InternalInconsistencyError, RationalMatrix,
                             _certify_kernel, _integer_kernel, in_span,
                             integer_kernel_basis, integer_product,
                             integer_rows, integerize, kernel_basis,
                             kernel_dim, rank, same_subspace, spans_full)
from singideal.groups import (cyclic, direct_product, make_family, make_group,
                              minimal_subgroups, parse_family)
from singideal.ideals import _coset_matrix, coset_constraint_matrix

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def matrices(max_dim=6):
    return st.integers(1, max_dim).flatmap(
        lambda cols: st.lists(
            st.lists(rationals, min_size=cols, max_size=cols),
            min_size=1, max_size=max_dim))


def dot(row, vec):
    return sum((Fraction(a) * b for a, b in zip(row, vec)), Fraction(0))


def test_rank_basics():
    assert rank([[0, 0, 0], [0, 0, 0], [0, 0, 0]]) == 0
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, -1]]
    # third row is the difference of the first two
    assert [a - b for a, b in zip(rows[0], rows[1])] == rows[2]
    assert rank(rows) == 2


def test_kernel_basics():
    assert kernel_basis([[1, 0], [0, 1]]) == []
    basis = kernel_basis([[1, 1]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v != (0, 0)
    # single constraint row of the order-2 coset system
    m = RationalMatrix.from_rows([[1, 1]])
    assert kernel_dim(m) == 1


def test_rational_matrix_shape_checks():
    with pytest.raises(ValueError):
        RationalMatrix(2, 2, (1, 2, 3))
    m = RationalMatrix.from_rows([[1, 2], [3, 4]])
    assert m.row(1) == (3, 4)


def test_spans_full_examples():
    assert spans_full([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    assert not spans_full([[1, 1]], 2)
    with pytest.raises(ValueError):
        spans_full([[1, 0]], 3)


def test_integerize_examples():
    assert integerize([Fraction(1, 2), Fraction(-1, 3)]) == (3, -2)
    assert integerize([2, 4]) == (1, 2)
    assert integerize([-1, 1]) == (1, -1)
    with pytest.raises(ValueError):
        integerize([0, Fraction(0)])


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rank_nullity_and_exact_kernel(rows):
    cols = len(rows[0])
    r = rank(rows)
    basis = kernel_basis(rows)
    assert r + len(basis) == cols
    for vec in basis:
        assert all(dot(row, vec) == 0 for row in rows)
    # kernel vectors are independent: each has a 1 in its own free column
    assert rank(basis) == len(basis) if basis else True


@settings(max_examples=80, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=8))
def test_integerize_properties(vec):
    if all(x == 0 for x in vec):
        with pytest.raises(ValueError):
            integerize(vec)
        return
    out = integerize(vec)
    from math import gcd
    g = 0
    for x in out:
        g = gcd(g, x)
    assert g == 1
    lead = next(x for x in out if x)
    assert lead > 0
    # out = c * vec for a non-zero rational c, checked by cross-multiplication;
    # the sign of c is whatever makes the leading entry of out positive
    i = next(i for i, x in enumerate(vec) if x != 0)
    c = Fraction(out[i]) / Fraction(vec[i])
    assert c != 0
    assert (c > 0) == (Fraction(vec[i]) > 0)
    assert all(Fraction(o) == c * Fraction(v) for o, v in zip(out, vec))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_spans_full_matches_rank(rows):
    dim = len(rows[0])
    assert spans_full(rows, dim) == (rank(rows) == dim)


def test_affine_lines_of_f2_squared_span():
    # the six order-2 coset indicators of C2 x C2 fill the 4-dim space
    from singideal.groups import cosets_of_subgroup, cyclic, direct_product, minimal_subgroups
    v4 = direct_product([cyclic(2), cyclic(2)])
    vectors = []
    for sub in minimal_subgroups(v4):
        for coset in cosets_of_subgroup(v4, sub):
            row = [0] * 4
            for x in coset.elements:
                row[x] = 1
            vectors.append(row)
    assert len(vectors) == 6
    assert spans_full(vectors, 4)


def test_in_span_and_same_subspace():
    b1 = [(1, 0, 1), (0, 1, 1)]
    b2 = [(1, 1, 2), (1, -1, 0)]
    assert same_subspace(b1, b2)
    assert in_span(b1, (2, 3, 5))
    assert not in_span(b1, (0, 0, 1))
    assert not same_subspace(b1, [(1, 0, 0)])
    assert same_subspace([], [])
    assert same_subspace([], [(0, 0)])


def test_fraction_entries_cleared_exactly():
    rows = [[Fraction(1, 3), Fraction(1, 6)], [Fraction(2, 3), Fraction(1, 3)]]
    assert rank(rows) == 1
    basis = kernel_basis(rows)
    assert len(basis) == 1
    assert dot(rows[0], basis[0]) == 0


def test_float_entries_are_taken_exactly():
    # each float is its exact binary fraction, never truncated to an int
    assert kernel_basis([[0.5, 1.0]]) == kernel_basis([[Fraction(1, 2), 1]])
    assert kernel_basis(np.array([[0.5, 1.0]])) == [(Fraction(-2), Fraction(1))]
    for rows in ([[0.5, 0.25]], np.array([[0.5, 0.25]]), [[Fraction(1, 2), 0.25]]):
        assert rank(rows) == 1
    # 2^60 + 1 beside a float: no float64 rounding of the int
    nums, den = integer_rows([[0.1, 2 ** 60 + 1]])
    assert den == 2 ** 55 and nums.tolist() == [[Fraction(0.1) * den, (2 ** 60 + 1) * den]]
    assert integerize([0.1, 0.2]) == integerize([Fraction(0.1), Fraction(0.2)])
    for bad in (float("nan"), float("inf"), -float("inf")):
        for rows in ([[1, bad]], np.array([[1.0, bad]])):
            with pytest.raises(ValueError):
                integer_rows(rows)
            with pytest.raises(ValueError):
                rank(rows)


def test_integer_rows_dtype_and_denominator():
    big = 2 ** 63
    cases = [([[1, -2], [3, 4]], np.int64, 1, [[1, -2], [3, 4]]),
             ([[Fraction(1, 2), Fraction(-1, 3)]], np.int64, 6, [[3, -2]]),
             ([[big - 1, -(big - 1)]], np.int64, 1, [[big - 1, -(big - 1)]]),
             ([[big, 1]], object, 1, [[big, 1]]),
             ([[Fraction(big, 3), 1]], object, 3, [[big, 3]]),
             ([[Fraction(1, 2), 2 ** 62]], object, 2, [[1, 2 ** 63]])]
    for rows, dtype, den, nums in cases:
        array, d = integer_rows(rows)
        assert array.dtype == dtype and d == den and array.tolist() == nums
        assert integer_rows(RationalMatrix.from_rows(rows))[0].tolist() == nums
    int8 = np.eye(2, dtype=np.int8)
    assert integer_rows(int8)[0] is int8
    assert integer_rows([])[0].shape == (0, 0)
    assert integer_rows(RationalMatrix(0, 3, ()))[0].shape == (0, 3)
    with pytest.raises(ValueError):
        integer_rows([[1, 2], [3]])


def reference_rref(rows, cols):
    """(pivot_cols, rref): the reduced row echelon form of the rational
    ``rows`` by Gauss-Jordan elimination in Fractions, each RREF row a dict
    {column: non-zero entry}.  Column by column, a pivot row is taken from
    the rows not yet used and cleared from every row that holds its
    column; rows that become zero are dropped."""
    pending = [{c: Fraction(x) for c, x in enumerate(r) if x} for r in rows]
    pending = [r for r in pending if r]
    pivot_cols, rref = [], []
    for c in range(cols):
        k = next((k for k, r in enumerate(pending) if c in r), None)
        if k is None:
            continue
        pivot = pending.pop(k)
        lead = pivot[c]
        pivot = {j: x / lead for j, x in pivot.items()}
        for row in pending + rref:
            f = row.get(c)
            if f:
                for j, x in pivot.items():
                    y = row.get(j, 0) - f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
        pending = [r for r in pending if r]
        pivot_cols.append(c)
        rref.append(pivot)
    return pivot_cols, rref


def reference_kernel_basis(rows, cols):
    """The canonical kernel basis read off the Fraction RREF: one vector
    per free column, 1 there and minus the RREF column at the pivots."""
    pivot_cols, rref = reference_rref(rows, cols)
    basis = []
    for free in sorted(set(range(cols)) - set(pivot_cols)):
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for row, c in zip(rref, pivot_cols):
            vec[c] = -row.get(free, Fraction(0))
        basis.append(tuple(vec))
    return basis


def assert_canonical_basis(m, rows, cols):
    basis, reference = kernel_basis(m), reference_kernel_basis(rows, cols)
    assert basis == reference
    assert all(type(x) is Fraction for vec in basis for x in vec)
    # equal values and the same object layout: the pickled bytes agree
    assert pickle.dumps(basis) == pickle.dumps(reference)
    assert integer_kernel_basis(m) == [integerize(v) for v in basis]


def coset_matrix_cases(catalog, catalog_cases):
    yield from catalog_cases
    for group in catalog:
        family = minimal_subgroups(group)
        if family.members:
            yield group, family
    for group_spec, family_spec in [
            ({"kind": "symmetric", "n": 5}, {"minimal": True}),
            ({"kind": "dihedral", "n": 50}, {"minimal": True}),
            ({"kind": "cyclic", "n": 360}, {"subgroups": [[0, 180]]}),
            ({"kind": "cyclic", "n": 720}, {"subgroups": [[0, 360]]})]:
        group = make_group(group_spec)
        yield group, parse_family(group, family_spec)


def test_kernel_basis_matches_the_fraction_rref_on_coset_matrices(
        catalog, catalog_cases):
    seen = 0
    for group, family in coset_matrix_cases(catalog, catalog_cases):
        m = coset_constraint_matrix(group, family)
        assert_canonical_basis(m, m.row_lists(), m.cols)
        seen += 1
    assert seen == 97 + 19 + 4


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_kernel_basis_matches_the_fraction_rref(rows):
    # negative and fractional entries: sign flips in _strip_row and
    # pivots other than 1, which the 0/1 coset matrices never produce
    assert_canonical_basis(rows, rows, len(rows[0]))


def test_integer_kernel_is_one_array():
    """_integer_kernel's rows are integer_kernel_basis, in an int64 array
    exactly when every entry fits."""
    big = 2 ** 32 + 15
    cases = [
        ([[1, 1]], np.int64),
        ([[2 ** 70, 1]], object),
        # a bound past 2^63 on the products, every entry below it
        ([[big, 0, big, 1], [0, 1, 0, 1]], np.int64),
        ([[0, 0, 0]], np.int64),
        ([[1, 0], [0, 1]], np.int64),
        ([[1, 2], [2, 4], [0, 0]], np.int64),
    ]
    for m, dtype in cases:
        basis = _integer_kernel(m)
        assert basis.dtype == dtype, m
        assert basis.shape == (kernel_dim(m), len(m[0]))
        assert [tuple(v) for v in basis.tolist()] == integer_kernel_basis(m)
    assert integer_kernel_basis([[big, 0, big, 1], [0, 1, 0, 1]]) == [
        (1, 0, -1, 0), (1, big, 0, -big)]
    # no rows: the whole space is the kernel, and the certificate's exact
    # product has no row sum to bound
    empty = np.zeros((0, 3), dtype=np.int64)
    basis = _integer_kernel(empty)
    assert basis.tolist() == np.eye(3, dtype=np.int64).tolist()
    _certify_kernel(empty, basis, 0)
    assert integer_product(empty, basis).shape == (0, 3)


# entries of each dtype: zeros often, small values, and values whose
# products and row sums reach past 2^63 (past 2^64 for Python ints)
PRODUCT_ENTRIES = {
    np.int8: st.one_of(st.just(0), st.integers(-128, 127)),
    np.int64: st.one_of(st.just(0), st.integers(-3, 3),
                        st.sampled_from([2 ** 31, 2 ** 62, 2 ** 63 - 1, -2 ** 63]),
                        st.integers(-2 ** 63, 2 ** 63 - 1)),
    object: st.one_of(st.just(0), st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70)),
}


@st.composite
def integer_arrays(draw, rows, cols):
    dtype = draw(st.sampled_from(list(PRODUCT_ENTRIES)))
    values = draw(st.lists(PRODUCT_ENTRIES[dtype], min_size=rows * cols,
                           max_size=rows * cols))
    return np.array(values, dtype=dtype).reshape(rows, cols)


@st.composite
def product_operands(draw):
    a, n, d = (draw(st.integers(0, 5)) for _ in range(3))
    return draw(integer_arrays(a, n)), draw(integer_arrays(d, n))


@settings(max_examples=200, deadline=None)
@given(product_operands())
# max|rows| times the row sum: 2^63 - 2, then 2^63 with every entry of the
# product below 2^63
@example((np.array([[1, 1]]), np.array([[2 ** 62 - 1, 1]])))
@example((np.array([[1, 1]]), np.array([[2 ** 62, 2 ** 62 - 1]])))
@example((np.zeros((3, 4), dtype=np.int8), np.zeros((2, 4), dtype=np.int64)))
@example((np.zeros((0, 4), dtype=np.int8), np.ones((2, 4), dtype=np.int64)))
@example((np.ones((3, 0), dtype=np.int64), np.zeros((2, 0), dtype=object)))
def test_integer_product_matches_python_ints(operands):
    matrix, rows = operands
    m, r = matrix.tolist(), rows.tolist()
    expected = [[sum(x * y for x, y in zip(mrow, rrow)) for rrow in r] for mrow in m]
    bound = (max((abs(x) for row in r for x in row), default=0)
             * max((sum(map(abs, row)) for row in m), default=0))
    out = integer_product(matrix, rows)
    assert out.shape == (len(m), len(r))
    assert out.tolist() == expected
    assert out.dtype == (np.int64 if bound < 2 ** 63 else object)


def test_integer_product_memory_on_c2_12():
    # C2^12 {[0,1]}: a 2048 x 4096 coset matrix and a 2048-vector basis;
    # the 2048 x 2048 int64 product alone is 32 MiB, and the scatter
    # gathers only the 4096 pairs of non-zeros sharing a column
    group = direct_product([cyclic(2)] * 12)
    matrix = _coset_matrix(group, make_family(group, [(0, 1)]))
    basis = _integer_kernel(matrix)
    tracemalloc.start()
    try:
        out = integer_product(matrix, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (2048, 2048) and out.dtype == np.int64 and not out.any()
    assert peak < 48 * 2 ** 20, f"integer_product peaked at {peak / 2 ** 20:.1f} MiB"


def primes_used(eliminations):
    """The primes of the Gauss-Jordan passes, in order: each a new prime
    below the last, CERT_PRIME first."""
    primes = [p for _, p, reduced in eliminations if reduced]
    assert primes[0] == CERT_PRIME
    assert all(a > b for a, b in zip(primes, primes[1:]))
    return primes


def test_an_unlucky_first_prime_still_gives_the_canonical_basis(eliminations):
    m = [[CERT_PRIME, 1]]
    # mod CERT_PRIME the first column vanishes, so the pivot moves right
    assert eliminate_mod_p(np.array(m), CERT_PRIME, reduced=True)[0].tolist() == [False, True]
    assert_canonical_basis(m, m, 2)
    eliminations.clear()
    assert integer_kernel_basis(m) == [(1, -CERT_PRIME)]
    # the second prime finds column 0, but 1/CERT_PRIME needs two more
    # primes before its denominator is below sqrt(N/2)
    assert len(primes_used(eliminations)) == 4


def test_reconstruction_past_one_prime(eliminations):
    """RREF entries past sqrt(p/2) ~ 32767, as numerators and as
    denominators, are read back over several primes combined."""
    rng = np.random.default_rng(3)
    # each matrix with the primes its reading takes: 1/2^70 needs
    # N > 2^141, five primes; 40000 and 1/40000 need N > 2 * 40000^2, two
    cases = [([[2 ** 70, 1]], 5),
             ([[1, 0, 40000, 3], [0, 40000, 1, 1]], 2),
             (rng.integers(-1000, 1001, size=(3, 5)).tolist(), 2)]
    for m, primes in cases:
        assert_canonical_basis(m, m, len(m[0]))
        eliminations.clear()
        integer_kernel_basis(m)
        assert len(primes_used(eliminations)) == primes, m


def test_failures_stop_past_the_hadamard_bound(monkeypatch, eliminations):
    """A reading that never succeeds raises once the product N of the
    primes passes 2 H^2, H the Hadamard bound of the rows, and not before.
    For [[a, 1]], H^2 = a^2 + 1: 2 H^2 is just below CERT_PRIME for the
    first a, between it and the product of two primes for the second, so
    a stop off by a factor of 2 either way takes a different count."""
    def unreadable(*args):
        raise InternalInconsistencyError("an RREF entry has no rational reading")
    monkeypatch.setattr(exact, "_reconstruct", unreadable)
    for a, count in ((26755, 1), (40132, 2), (2 ** 70, 5)):
        eliminations.clear()
        with pytest.raises(InternalInconsistencyError, match="no rational reading"):
            integer_kernel_basis([[a, 1]])
        primes = primes_used(eliminations)
        assert len(primes) == count
        assert math.prod(primes[:-1]) <= 2 * (a * a + 1) < math.prod(primes)


def test_reduced_elimination_is_the_fraction_rref_mod_p():
    """eliminate_mod_p's reduced mode is the Fraction RREF read mod p, and
    its forward mode has the same pivots, each the leading entry of its row
    with zeros below; the input is left unchanged."""
    rng = np.random.default_rng(5)
    p = CERT_PRIME
    for rows, cols in ((9, 6), (6, 9)):
        for k in (6, 4, 2, 1, 0):
            for _ in range(4):
                m = (rng.integers(-4, 5, size=(rows, k))
                     @ rng.integers(-4, 5, size=(k, cols)))
                before = m.copy()
                pivot_cols, rref = reference_rref(m.tolist(), cols)
                pivots, reduced = eliminate_mod_p(m, p, reduced=True)
                assert np.flatnonzero(pivots).tolist() == pivot_cols
                assert reduced.tolist() == [
                    [x.numerator * pow(x.denominator, -1, p) % p
                     for x in (row.get(c, Fraction(0)) for c in range(cols))]
                    for row in rref]
                pivots, echelon = eliminate_mod_p(m, p)
                assert np.flatnonzero(pivots).tolist() == pivot_cols
                assert echelon.shape == (len(pivot_cols), cols)
                for i, c in enumerate(pivot_cols):
                    assert echelon[i, c] and not echelon[i + 1:, c].any()
                    assert not echelon[i, :c].any()
                assert np.array_equal(m, before)

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laga import (
    GF,
    QQ,
    AmbientMismatch,
    ArgumentMismatch,
    BudgetExceeded,
    Subspace,
    enumerate_rays,
    enumeration_budget,
    full_space,
    kernel,
    left_kernel,
    rank,
    rref,
    span,
    zero_space,
)
from laga.linalg import _extend_echelon, identity, matrix_apply, reduce_vector, transpose

F2 = GF(2)
F5 = GF(5)

fields = st.sampled_from([QQ, F2, F5])
all_fields = st.sampled_from([QQ, F2, GF(3), F5, GF(7)])


@st.composite
def matrices(draw, field=None, max_dim=5):
    fld = draw(fields) if field is None else field
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    entries = st.integers(-6, 6)
    rows = draw(
        st.lists(
            st.lists(entries, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return fld, [[fld(x) for x in row] for row in rows]


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rref_idempotent(data):
    field, m = data
    reduced, pivots = rref(m, field)
    assert (reduced, pivots) == _dense_rref(m, field)
    again, pivots2 = rref(reduced, field)
    assert again == reduced
    assert pivots2 == pivots


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rank_equals_transpose_rank(data):
    field, m = data
    t = [[m[i][j] for i in range(len(m))] for j in range(len(m[0]))]
    assert rank(m, field) == rank(t, field)


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_kernel_annihilates_and_has_complementary_dim(data):
    field, m = data
    ncols = len(m[0])
    ker = kernel(m, ncols, field)
    assert ker.dim == ncols - rank(m, field)
    for vec in ker.basis:
        for row in m:
            assert field.dot(row, vec) == 0


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_left_kernel_annihilates(data):
    field, m = data
    ker = left_kernel(m, field)
    ncols = len(m[0])
    for vec in ker.basis:
        for c in range(ncols):
            total = field.dot(vec, [row[c] for row in m])
            assert total == 0


@given(st.sampled_from([2, 3, 5, 7]), st.data())
@settings(max_examples=100, deadline=None)
def test_prime_field_results_are_reduced_ints(p, data):
    field = GF(p)
    ncols = data.draw(st.integers(1, 4))
    raw = st.lists(
        st.lists(st.integers(-10, 10), min_size=ncols, max_size=ncols),
        min_size=1,
        max_size=4,
    )
    a, b = data.draw(raw), data.draw(raw)
    results = [
        rref(a, field)[0],
        kernel(a, ncols, field).basis,
        span(a, ncols, field).basis,
        span(a, ncols, field).intersect(span(b, ncols, field)).basis,
        list(enumerate_rays(field, ncols)),
    ]
    for rows in results:
        for row in rows:
            assert all(type(x) is int and 0 <= x < p for x in row)


@given(st.sampled_from([QQ, F2, GF(3), F5, GF(7)]), st.data())
@settings(max_examples=100, deadline=None)
def test_combine_is_the_vector_matrix_product(field, data):
    nrows = data.draw(st.integers(1, 5))
    ncols = data.draw(st.integers(1, 5))
    if field.is_rational:
        entries = st.fractions(-4, 4, max_denominator=5)
    else:
        entries = st.integers(-8, 8)
    # zero coefficients are skipped, so draw plenty of them
    coeffs = st.lists(st.one_of(st.just(0), entries), min_size=nrows, max_size=nrows)
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(row, min_size=nrows, max_size=nrows))
    m = [field.vector(r) for r in rows]
    for c in (field.vector(data.draw(coeffs)), [field.zero] * nrows):
        out = field.combine(c, m)
        assert out == matrix_apply(transpose(m), c, field)
        if field.is_rational:
            assert all(type(x) is Fraction for x in out)
        else:
            assert all(type(x) is int and 0 <= x < field.p for x in out)



@given(st.sampled_from([QQ, F2, GF(3), F5, GF(7)]), st.data())
@settings(max_examples=100, deadline=None)
def test_vector_and_dot_on_mixed_sparse_rows(field, data):
    """Rows mixing ints, Fractions and bools, mostly zeros: over Q,
    `vector` passes each Fraction through as the same object and `dot`,
    which skips zero factors, equals the naive sum; over F_p both are
    the reduced int arithmetic."""
    ncols = data.draw(st.integers(0, 6))
    nonzero = st.one_of(
        st.integers(-8, 8),
        st.booleans(),
        st.fractions(-4, 4, max_denominator=5 if field.is_rational else 1),
    )
    zero = st.sampled_from([0, False, Fraction(0)])
    row = st.lists(
        st.one_of(zero, zero, nonzero), min_size=ncols, max_size=ncols
    )
    x, y = data.draw(row), data.draw(row)
    vx, vy = field.vector(x), field.vector(y)
    zeros = [0] * ncols
    if field.is_rational:
        assert all(type(a) is Fraction for a in vx)
        assert all(a is b for a, b in zip(vx, x) if type(b) is Fraction)
        for u, v in ((x, y), (vx, vy), (x, zeros)):
            total = field.dot(u, v)
            assert type(total) is Fraction
            assert total == Fraction(sum(a * b for a, b in zip(u, v)))
    else:
        p = field.p
        assert vx == [int(a) % p for a in x]
        assert all(type(a) is int for a in vx)
        for u, v in ((vx, vy), (vx, field.vector(zeros))):
            total = field.dot(u, v)
            assert type(total) is int
            assert total == sum(a * b for a, b in zip(u, v)) % p

@st.composite
def two_subspaces(draw):
    field = draw(fields)
    dim = draw(st.integers(1, 4))
    entries = st.integers(-4, 4)
    vecs = st.lists(
        st.lists(entries, min_size=dim, max_size=dim), min_size=0, max_size=4
    )
    a = span([[field(x) for x in v] for v in draw(vecs)], dim, field)
    b = span([[field(x) for x in v] for v in draw(vecs)], dim, field)
    return a, b


@given(two_subspaces())
@settings(max_examples=150, deadline=None)
def test_intersection_sum_dimension_formula(pair):
    a, b = pair
    inter = a.intersect(b)
    total = a.add(b)
    assert inter.dim + total.dim == a.dim + b.dim
    assert a.contains_subspace(inter) and b.contains_subspace(inter)
    assert total.contains_subspace(a) and total.contains_subspace(b)


@given(two_subspaces())
@settings(max_examples=150, deadline=None)
def test_canonical_equality_iff_mutual_containment(pair):
    a, b = pair
    mutual = a.contains_subspace(b) and b.contains_subspace(a)
    assert (a == b) == mutual
    assert (a.key() == b.key()) == mutual


def test_subspace_key_usable_as_dict_key():
    a = span([[1, 2], [0, 1]], 2, QQ)
    b = span([[1, 0], [3, 1]], 2, QQ)
    assert {a.key(): 1}[b.key()] == 1


def test_ambient_mismatch_raises():
    a = span([[1, 0]], 2, QQ)
    b = span([[1, 0, 0]], 3, QQ)
    with pytest.raises(AmbientMismatch):
        a.intersect(b)
    with pytest.raises(AmbientMismatch):
        span([[1, 0, 0]], 2, QQ)


def test_full_and_zero_space():
    assert full_space(3, F5).dim == 3
    assert zero_space(3, F5).dim == 0
    assert full_space(3, F5).contains_subspace(zero_space(3, F5))


def test_enumerate_rays_f2_dim2_order():
    rays = [tuple(x for x in r) for r in enumerate_rays(F2, 2)]
    assert rays == [(0, 1), (1, 0), (1, 1)]


def test_enumerate_rays_counts():
    assert len(list(enumerate_rays(GF(3), 3))) == (3**3 - 1) // 2
    assert len(list(enumerate_rays(F5, 2))) == (5**2 - 1) // 4


def test_enumerate_rays_budget(monkeypatch):
    monkeypatch.setenv("LAGA_BUDGET", "1000")
    with pytest.raises(BudgetExceeded):
        list(enumerate_rays(F2, 40))


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("LAGA_BUDGET", "123")
    assert enumeration_budget() == 123
    monkeypatch.delenv("LAGA_BUDGET")
    assert enumeration_budget() == 10**7


def test_budget_must_be_a_non_negative_integer(monkeypatch):
    for raw in ("abc", "-1", "1e3", " 5"):
        monkeypatch.setenv("LAGA_BUDGET", raw)
        with pytest.raises(ArgumentMismatch, match=f"LAGA_BUDGET .*{raw!r}"):
            enumeration_budget()
    monkeypatch.setenv("LAGA_BUDGET", "0")
    assert enumeration_budget() == 0


def test_fraction_exactness():
    m = [[Fraction(1, 3), Fraction(1, 7)], [Fraction(2, 3), Fraction(2, 7)]]
    assert rank(m, QQ) == 1


# Reference algorithms: how kernels, intersections and reductions were
# computed on dense rows, before subspaces carried their pivots and kept
# only their nonzero entries.  The library works on echelons of sparse
# rows; these take the long way round, on a dense rref of their own.


def _dense_rref(rows, field):
    """Gauss-Jordan on dense rows, column by column: (rows, pivots)."""
    m = [field.vector(row) for row in rows]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field(inv * x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = field.axpy(m[i], m[i][c], m[r])
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _free_column_kernel(rows, ncols, field):
    """One kernel vector per free column of rref(M), canonicalized."""
    reduced, pivots = _dense_rref(rows, field)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for row, pc in zip(reduced, pivots):
            vec[pc] = field(-row[fc])
        basis.append(vec)
    return span(basis, ncols, field)


def _transposed_left_kernel(rows, field):
    if not rows:
        return zero_space(0, field)
    return _free_column_kernel(transpose(rows), len(rows), field)


def _dense_left_kernel(rows, field):
    """{x : x M = 0} read off one rref of the whole [M | I]."""
    ncols = len(rows[0]) if rows else 0
    stacked = [list(row) + unit for row, unit in zip(rows, identity(len(rows), field))]
    reduced, pivots = _dense_rref(stacked, field)
    basis = tuple(tuple(row[ncols:]) for row, c in zip(reduced, pivots) if c >= ncols)
    return basis, tuple(c - ncols for c in pivots if c >= ncols)


def _filtered_intersect(a, b):
    """Zassenhaus: keep the rref rows whose left block is zero, then span."""
    n, zero = a.ambient_dim, a.field.zero
    stacked = [list(r) + list(r) for r in a.basis]
    stacked += [list(r) + [zero] * n for r in b.basis]
    reduced, _ = _dense_rref(stacked, a.field)
    return span([row[n:] for row in reduced if not any(row[:n])], n, a.field)


def _pivot_scanning_reduce(vector, basis, field):
    v = field.vector(vector)
    for row in basis:
        pivot = next((c for c, x in enumerate(row) if x != 0), None)
        if pivot is not None and v[pivot] != 0:
            v = field.axpy(v, v[pivot], row)
    return v


def _assert_pivots_are_leading_columns(space):
    leading = tuple(next(c for c, x in enumerate(row) if x) for row in space.basis)
    assert space.pivots == leading


def _sparse_rows(data, field, nrows, ncols):
    """nrows x ncols over field, mostly zeros; either size may be 0."""
    if field.is_rational:
        nonzero = st.fractions(-4, 4, max_denominator=5)
    else:
        nonzero = st.integers(-8, 8)
    entry = st.one_of(st.just(0), st.just(0), nonzero)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(row, min_size=nrows, max_size=nrows))
    return [field.vector(r) for r in rows]


sizes = st.integers(0, 5)


@given(all_fields, sizes, sizes, st.data())
@settings(max_examples=200, deadline=None)
def test_kernels_match_the_free_column_reference(field, nrows, ncols, data):
    m = _sparse_rows(data, field, nrows, ncols)
    ker = kernel(m, ncols, field)
    assert ker == _free_column_kernel(m, ncols, field)
    _assert_pivots_are_leading_columns(ker)
    left = left_kernel(m, field)
    assert left == _transposed_left_kernel(m, field)
    assert left.ambient_dim == nrows
    _assert_pivots_are_leading_columns(left)


@given(all_fields, sizes, sizes, sizes, st.data())
@settings(max_examples=200, deadline=None)
def test_intersect_matches_filter_then_span(field, na, nb, dim, data):
    a = span(_sparse_rows(data, field, na, dim), dim, field)
    b = span(_sparse_rows(data, field, nb, dim), dim, field)
    for space in (a, b):
        _assert_pivots_are_leading_columns(space)
    inter = a.intersect(b)
    assert inter == _filtered_intersect(a, b)
    assert inter.ambient_dim == dim
    _assert_pivots_are_leading_columns(inter)


@given(all_fields, sizes, sizes, st.data())
@settings(max_examples=200, deadline=None)
def test_incremental_echelon_rank_matches_rank(field, nrows, dim, data):
    # rows fed in chunks, as a closure pass feeds one kernel's equations
    rows = _sparse_rows(data, field, nrows, dim)
    cuts = sorted(data.draw(st.lists(st.integers(0, nrows), max_size=3)))
    echelon = {}
    for lo, hi in zip([0, *cuts], [*cuts, nrows]):
        reported = _extend_echelon(echelon, [field.entries(r) for r in rows[lo:hi]], field)
        assert reported == len(echelon) == rank(rows[:hi], field)
    assert span(list(echelon.values()), dim, field) == span(rows, dim, field)
    # each row is led by a 1 at its pivot, is zero at the other pivots and
    # stores no zero
    for c, row in echelon.items():
        assert min(row) == c and row[c] == 1 and all(row.values())
        assert not any(row.get(b) for b in echelon if b != c)


def test_intersect_of_two_zero_subspaces():
    for dim in (0, 3):
        zero = zero_space(dim, F5)
        inter = zero.intersect(zero)
        assert inter == zero and inter.pivots == ()


@given(all_fields, sizes, sizes, st.data())
@settings(max_examples=200, deadline=None)
def test_reduce_vector_matches_the_pivot_scan(field, nrows, dim, data):
    space = span(_sparse_rows(data, field, nrows, dim), dim, field)
    vector = _sparse_rows(data, field, 1, dim)[0]
    residual = reduce_vector(vector, space)
    assert residual == _pivot_scanning_reduce(vector, space.basis, field)
    assert space.contains_vector(vector) == (not any(residual))


@pytest.mark.parametrize("field", [QQ, F2, GF(3), F5, GF(7)])
def test_full_and_zero_space_pivots(field):
    for dim in (0, 1, 4):
        for space in (full_space(dim, field), zero_space(dim, field)):
            _assert_pivots_are_leading_columns(space)


def test_kernel_rejects_rows_of_the_wrong_length():
    with pytest.raises(AmbientMismatch):
        kernel([[1, 2], [1]], 2, QQ)
    with pytest.raises(AmbientMismatch):
        kernel([[1, 2, 3]], 2, F5)
    with pytest.raises(AmbientMismatch):
        kernel([[]], 1, F5)


def test_inverse_tests_the_residue():
    field = GF(5)
    for a in (0, 5, -5, 10):
        with pytest.raises(ZeroDivisionError):
            field.inv(a)
    assert [field.inv(a) for a in (1, 2, 7, -1)] == [1, 3, 3, 4]
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)


int_rows = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), min_size=1, max_size=5
    )
)


@given(int_rows, int_rows)
@settings(max_examples=100, deadline=None)
def test_integral_fractions_and_ints_give_one_subspace(m, m2):
    """Over Q an integral rational is an int in entry rows: the spans,
    kernels and intersections of int rows and of the same values as
    `Fraction`s are equal, with equal keys and hashes."""
    ncols = len(m[0])
    fractions = [[Fraction(x) for x in row] for row in m]
    pairs = [
        (span(m, ncols, QQ), span(fractions, ncols, QQ)),
        (left_kernel(m, QQ), left_kernel(fractions, QQ)),
        (kernel(m, ncols, QQ), kernel(fractions, ncols, QQ)),
    ]
    if len(m2[0]) == ncols:
        other = span(m2, ncols, QQ)
        pairs.append((other.intersect(pairs[0][0]), other.intersect(pairs[0][1])))
    for ints, fracs in pairs:
        # the same rows with every value a Fraction
        boxed = Subspace(
            QQ, ints.ambient_dim, tuple(tuple((c, Fraction(x)) for c, x in r) for r in ints.rows)
        )
        for other in (fracs, boxed):
            assert ints == other
            assert ints.key() == other.key()
            assert hash(ints) == hash(other) and hash(ints.key()) == hash(other.key())
    entries = QQ.entries([Fraction(2), Fraction(1, 2), 0, Fraction(0), -3, True])
    assert entries == {0: 2, 1: Fraction(1, 2), 4: -3, 5: 1}
    assert [type(x) for x in entries.values()] == [int, Fraction, int, int]
    assert type(QQ.inv(Fraction(1, 3))) is int and type(QQ.inv(2)) is Fraction


def test_ragged_matrices_raise():
    # a ragged matrix has no column count: every entry point that takes
    # rows refuses it instead of truncating or indexing past a row
    with pytest.raises(AmbientMismatch):
        left_kernel([[1, 2], [1]], QQ)
    with pytest.raises(AmbientMismatch):
        rref([[1, 2], [1]], QQ)
    with pytest.raises(AmbientMismatch):
        rref([[1], [1, 2]], QQ)
    with pytest.raises(AmbientMismatch):
        rank([[1], [1, 2]], F5)


@given(all_fields, sizes, sizes, st.data())
@settings(max_examples=200, deadline=None)
def test_live_block_left_kernel_matches_the_dense_rref(field, nrows, ncols, data):
    # raw entries, so that over F_p a nonzero int may be zero modulo p;
    # then whole rows and columns are zeroed
    entry = st.fractions(-4, 4, max_denominator=5) if field.is_rational else st.integers(-8, 8)
    row = st.lists(st.one_of(st.just(0), entry), min_size=ncols, max_size=ncols)
    m = data.draw(st.lists(row, min_size=nrows, max_size=nrows))
    dead_rows = data.draw(st.sets(st.integers(0, 4)))
    dead_cols = data.draw(st.sets(st.integers(0, 4)))
    m = [
        [0 if i in dead_rows or j in dead_cols else x for j, x in enumerate(r)]
        for i, r in enumerate(m)
    ]
    ker = left_kernel(m, field)
    assert (ker.basis, ker.pivots) == _dense_left_kernel(m, field)
    assert ker.ambient_dim == nrows


# Zero-heavy rows, as scramble views produce them: a coordinate subspace
# (scaled unit vectors) plus a few full rows, over every field.


def _zero_heavy_rows(data, field, dim, max_full=2):
    """Scaled unit vectors on a random set of coordinates, in random
    order, mixed with at most max_full full rows."""
    if field.is_rational:
        nonzero = st.fractions(-4, 4, max_denominator=5).filter(bool)
        entry = st.fractions(-4, 4, max_denominator=5)
    else:
        nonzero = st.integers(1, field.p - 1)
        entry = st.integers(0, field.p - 1)
    coords = data.draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=dim)) if dim else []
    rows = []
    for c in coords:
        row = [0] * dim
        row[c] = data.draw(nonzero)
        rows.append(row)
    rows += data.draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=max_full))
    rows = data.draw(st.permutations(rows))
    return [field.vector(r) for r in rows]


def _assert_stored_sparse(space):
    # no zero values; columns increase; each row led by a 1 at its pivot
    for row in space.rows:
        cols = [k for k, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= k < space.ambient_dim for k in cols)
        assert all(x for _, x in row) and row[0][1] == 1
    assert len(set(space.pivots)) == space.dim


def _dense_span_basis(rows, dim, field):
    return tuple(map(tuple, _dense_rref(rows, field)[0])) if rows else ()


zero_heavy_dims = st.integers(0, 7)


@given(all_fields, zero_heavy_dims, st.data())
@settings(max_examples=150, deadline=None)
def test_zero_heavy_span_reduce_and_echelon_match_dense_references(field, dim, data):
    rows = _zero_heavy_rows(data, field, dim)
    space = span(rows, dim, field)
    _assert_stored_sparse(space)
    assert space.basis == _dense_span_basis(rows, dim, field)
    vector = _zero_heavy_rows(data, field, dim, max_full=1)
    vector = vector[0] if vector else [field.zero] * dim
    residual = reduce_vector(vector, space)
    assert residual == _pivot_scanning_reduce(vector, space.basis, field)
    assert space.contains_vector(vector) == (not any(residual))
    # fed in two chunks, the echelon's rank is the dense rank
    cut = data.draw(st.integers(0, len(rows)))
    echelon = {}
    for chunk in (rows[:cut], rows):
        reported = _extend_echelon(echelon, [field.entries(r) for r in chunk], field)
        assert reported == len(_dense_rref(chunk, field)[0]) if chunk else reported == 0
    assert span(list(echelon.values()), dim, field) == space


@given(all_fields, zero_heavy_dims, st.data())
@settings(max_examples=150, deadline=None)
def test_zero_heavy_intersect_and_containment_match_dense_references(field, dim, data):
    a = span(_zero_heavy_rows(data, field, dim), dim, field)
    b = span(_zero_heavy_rows(data, field, dim), dim, field)
    inter = a.intersect(b)
    _assert_stored_sparse(inter)
    assert inter == _filtered_intersect(a, b) == b.intersect(a)
    for x, y in ((a, b), (b, a), (a, inter), (inter, a)):
        joint = len(_dense_rref(list(x.basis) + list(y.basis), field)[0]) if x.dim + y.dim else 0
        assert x.contains_subspace(y) == (joint == x.dim)
    total = a.add(b)
    _assert_stored_sparse(total)
    assert total.basis == _dense_span_basis(list(a.basis) + list(b.basis), dim, field)


@given(all_fields, st.integers(0, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_zero_heavy_kernels_match_dense_references(field, ncols, data):
    m = _zero_heavy_rows(data, field, ncols, max_full=2)
    left = left_kernel(m, field)
    _assert_stored_sparse(left)
    assert (left.basis, left.pivots) == _dense_left_kernel(m, field)
    # the same rows given as entry dicts
    assert left_kernel([field.entries(r) for r in m], field) == left
    if m:
        right = kernel(m, ncols, field)
        _assert_stored_sparse(right)
        assert right == _free_column_kernel(m, ncols, field)


@given(all_fields, zero_heavy_dims, st.data())
@settings(max_examples=100, deadline=None)
def test_key_ignores_generator_order_and_scale(field, dim, data):
    rows = _zero_heavy_rows(data, field, dim)
    nonzero = st.integers(1, field.p - 1) if field.p else st.integers(1, 5)
    scales = data.draw(st.lists(nonzero, min_size=len(rows), max_size=len(rows)))
    shuffled = data.draw(st.permutations(rows))
    moved = [[field(c * x) for x in row] for c, row in zip(scales, shuffled)]
    assert span(moved, dim, field).key() == span(rows, dim, field).key()
    assert span(moved, dim, field) == span(rows, dim, field)

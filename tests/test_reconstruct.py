import gc
import hashlib
import itertools
import json
import math
import random
import time
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laga.reconstruct
from laga import (
    GF,
    QQ,
    AlgebraView,
    BElement,
    BudgetExceeded,
    DimensionMismatch,
    LevelMismatch,
    NonNestingViolated,
    NotUniform,
    ReconstructionFailed,
    UnsupportedField,
    V,
    VerificationFailed,
    algebra_view,
    are_isomorphic,
    b_hilbert_table,
    build_boolean,
    build_complete_layered,
    build_graph,
    build_subspace_lattice,
    degree2_product,
    gaussian_binomial,
    gr_hilbert_table,
    intersection_size,
    is_quadratic_to_degree,
    is_uniform,
    kappa_combinatorial,
    kappa_kernel,
    kappa_view,
    kernel,
    left_kernel,
    outdegree_multiset,
    quadratic_dual_check,
    rank,
    reconstruct_boolean,
    reconstruct_nonnesting,
    reconstruct_subspace,
    reconstruction_report,
    span,
    upper_part,
    upper_vertex_like_basis,
    view_from_json_dict,
    view_to_json_dict,
)
from laga.linalg import enumerate_rays, identity
from laga.reconstruct import (
    _CLOSURE_PASSES_PER_SET,
    _KERNEL_DRAWS_PER_RAY,
    _exhaustive_scan,
    _level_one_sets,
    _peeled_vertex_rays,
    _right_mult_kernel,
    _scramble_maps,
)

F3 = GF(3)


def _unit(d, i):
    return tuple(F3.one if j == i else F3.zero for j in range(d))


def _sparse_cells(products):
    """Rows of dense products as the view stores them: (j, cell) for the
    nonzero products, each cell its (k, value) pairs."""
    def cell(c):
        return tuple((k, x) for k, x in enumerate(c) if x)

    return tuple(tuple((j, cell(c)) for j, c in enumerate(row) if any(c)) for row in products)


def _dense(view, n):
    """The level-n product of every pair of basis vectors, the zero ones
    included, rebuilt from the stored cells."""
    width, zero = view.widths[n], view.field.zero
    dense = [[(zero,) * width] * view.level_dims[n - 1] for _ in range(view.level_dims[n])]
    for i, row in enumerate(view.cells[n]):
        for j, cell in row:
            entries = dict(cell)
            dense[i][j] = tuple(entries.get(k, zero) for k in range(width))
    return dense


def _cell_json(cell):
    return [c if type(c) is int else str(c) for c in cell]


def test_view_requires_uniform(nonuniform_graph):
    with pytest.raises(NotUniform):
        algebra_view(nonuniform_graph)


def test_plain_view_shape(boolean3):
    view = algebra_view(boolean3)
    assert view.plain
    assert view.level_dims == (0, 3, 3, 1)
    assert view.top_level == 3
    scrambled = algebra_view(boolean3, scramble_seed=1)
    assert not scrambled.plain
    assert scrambled.level_dims == view.level_dims
    t = _dense(scrambled, 2)
    expected = tuple((a + 2 * b) % 3 for a, b in zip(t[0][1], t[1][1]))
    assert scrambled.multiply(2, (1, 2, 0), (0, 1, 0)) == expected


# sha256 of the JSON of algebra_view(graph, field, scramble_seed=seed) in
# the dense layout the views were pinned in, recorded with the per-level
# relabel-and-rescale draw: a change to the draw, or to the random
# stream it reads, changes these views
_VIEW_DIGESTS = [
    (("boolean", 4), 3, 7, "f8aa55ba549f7cac"),
    (("boolean", 4), 5, 2, "1deaab5f8aae4faf"),
    (("boolean", 5), 2, 3, "f41a8e43d1b7ac17"),
    (("subspace", 2, 3), 3, 1, "227c18d8a56f4731"),
    (("subspace", 2, 3), 2, 4, "45900fa9935b3a53"),
    (("subspace", 3, 3), 3, 5, "4ec51766df487cc6"),
    (("boolean", 3), None, 1, "28a1a52f051d2e01"),
]


def _lattice(spec):
    family, *params = spec
    return build_boolean(*params) if family == "boolean" else build_subspace_lattice(*params)


@pytest.mark.parametrize("spec, p, seed, digest", _VIEW_DIGESTS)
def test_scrambled_views_are_pinned(spec, p, seed, digest):
    # the dense layout keeps every product of basis vectors as a cell
    # under "tensors", ints as ints and rationals as strings
    view = algebra_view(_lattice(spec), GF(p) if p else QQ, scramble_seed=seed)
    view = view_from_json_dict(json.loads(json.dumps(view_to_json_dict(view))))
    data = {"field": view.field.p, "level_dims": list(view.level_dims), "plain": view.plain}
    data["tensors"] = {
        str(n): [[_cell_json(cell) for cell in row] for row in _dense(view, n)]
        for n in range(2, view.top_level + 1)
    }
    text = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "spec, p",
    [(("boolean", 4), 3), (("subspace", 2, 3), 3), (("boolean", 3), None)],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scramble_is_a_real_change_of_basis(spec, p, seed):
    # a bigraded automorphism would only change the degree-2 coordinates
    # of the plain view, and so keep every linear relation among its
    # cells (i, j); a relabelling and rescaling of degree 1 breaks one
    g = _lattice(spec)
    field = GF(p) if p else QQ
    for n, (vertices, scalars) in _scramble_maps(g, field, random.Random(seed)).items():
        assert sorted(vertices) == list(range(g.levels[n]))
        assert len(scalars) == g.levels[n] and all(c != 0 for c in scalars)
    plain = algebra_view(g, field)
    scrambled = algebra_view(g, field, scramble_seed=seed)

    def relations(view, n):
        return left_kernel([cell for row in _dense(view, n) for cell in row], field)

    assert any(
        not relations(scrambled, n).contains_subspace(relations(plain, n))
        for n in range(2, g.top_level + 1)
    )


def test_scramble_view_allocates_no_dense_maps():
    # the subspace lattice of F_2^6 has levels up to 1,395 wide; the
    # view's transient memory is its cells' work, not d x d maps
    g = build_subspace_lattice(2, 6)
    tracemalloc.start()
    try:
        view = algebra_view(g, GF(2), scramble_seed=1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert view.level_dims[3] == 1395
    assert peak - held < 2_000_000


def test_kappa_view_matches_combinatorial_on_plain(boolean3):
    view = algebra_view(boolean3)
    for n in range(2, 4):
        for v in boolean3.level_vertices(n):
            unit = _unit(view.level_dims[n], v.index)
            assert kappa_view(view, n, unit) == kappa_combinatorial(
                boolean3, [v], field=F3
            )
    # level 1 is reported as multiplying into nothing
    assert kappa_view(view, 1, _unit(3, 0)).ambient_dim == 0
    with pytest.raises(LevelMismatch):
        kappa_view(view, 4, ())
    with pytest.raises(LevelMismatch):
        kappa_view(view, 2, (1,))


@pytest.mark.parametrize(
    "spec, p, seed",
    [
        (("boolean", 4), 3, 1),
        (("boolean", 4), 5, 2),
        (("subspace", 2, 3), 3, 1),
        (("boolean", 3), None, None),
    ],
)
def test_view_kernels_are_the_unit_vector_products(spec, p, seed):
    # the kernels read their rows straight off the stored cells; the reference
    # builds each row with one `multiply` per unit vector.  Random x and y
    # mostly give trivial kernels, so vertex vectors (the unit vectors of
    # a plain view) and their kappas are tried too.
    field = GF(p) if p else QQ
    view = algebra_view(_lattice(spec), field, scramble_seed=seed)
    rng = random.Random(9)
    proper = 0
    for n in range(2, view.top_level + 1):
        d, d_prev = view.level_dims[n], view.level_dims[n - 1]
        if view.plain:
            vertices = identity(d, field)
        else:
            vertices = upper_vertex_like_basis(view, n).vectors
        xs = list(vertices) + [
            tuple(field(rng.randrange(-2, 3)) for _ in range(d)) for _ in range(4)
        ]
        ys = [row for x in vertices for row in kappa_view(view, n, x).basis] + [
            tuple(field(rng.randrange(-2, 3)) for _ in range(d_prev)) for _ in range(4)
        ]
        for x in xs:
            rows = [view.multiply(n, x, e) for e in identity(d_prev, field)]
            ker = kappa_view(view, n, x)
            assert ker == left_kernel(rows, field)
            proper += 0 < ker.dim < d_prev
        for y in ys:
            rows = [view.multiply(n, e, y) for e in identity(d, field)]
            ker = _right_mult_kernel(view, n, y)
            assert ker == left_kernel(rows, field)
            proper += 0 < ker.dim < d
    assert proper


@pytest.mark.parametrize(
    "spec, p, seed",
    [(("boolean", 4), 3, 1), (("subspace", 2, 3), 5, 2), (("boolean", 5), 2, 3)],
)
def test_view_kernels_are_the_unit_vector_products_in_a_random_basis(spec, p, seed):
    # a random basis leaves few zero cells; the kernels must still equal
    # the ones built from `multiply`, for the upper basis vectors, their
    # kappas and dense random elements
    field = GF(p)
    view = _random_basis_view(_lattice(spec), field, seed)
    rng = random.Random(seed)
    for n in range(2, view.top_level + 1):
        d, d_prev = view.level_dims[n], view.level_dims[n - 1]
        basis = upper_vertex_like_basis(view, n)
        xs = list(basis.vectors) + [tuple(rng.randrange(p) for _ in range(d)) for _ in range(3)]
        ys = [row for kap in basis.kappas for row in kap.basis]
        ys += [tuple(rng.randrange(p) for _ in range(d_prev)) for _ in range(3)]
        for x in xs:
            rows = [view.multiply(n, x, e) for e in identity(d_prev, field)]
            assert kappa_view(view, n, x) == left_kernel(rows, field)
        for y in ys:
            rows = [view.multiply(n, e, y) for e in identity(d, field)]
            assert _right_mult_kernel(view, n, y) == left_kernel(rows, field)


def test_basis_modes_agree_on_plain_view(boolean3):
    # the scan's kernels are those of the standard (vertex) basis
    view = algebra_view(boolean3)
    for n in range(2, 4):
        exhaustive = [kap for _, kap in _exhaustive_scan(view, n)]
        vertex = [kappa_view(view, n, unit) for unit in identity(view.level_dims[n], F3)]
        assert sorted(k.dim for k in exhaustive) == sorted(k.dim for k in vertex)
        assert sorted(k.key() for k in exhaustive) == sorted(k.key() for k in vertex)


def _scrambled_lattice_views(subspace23):
    # scramble views are near-monomial; random-basis views are dense
    return (
        algebra_view(subspace23, scramble_seed=3),
        algebra_view(build_boolean(5), GF(2), scramble_seed=3),
        _random_basis_view(subspace23, F3, 3),
        _random_basis_view(build_boolean(5), GF(2), 3),
    )


def _assert_scan_kernels(view, n, rays):
    found = [kappa_view(view, n, x) for x in rays]
    exhaustive = [kap for _, kap in _exhaustive_scan(view, n)]
    assert sorted(k.dim for k in found) == sorted(k.dim for k in exhaustive)
    assert sorted(k.key() for k in found) == sorted(k.key() for k in exhaustive)


def test_sampled_mode_agrees(subspace23):
    # level 2 peels kernels of seeded random y; over F_2 every y is
    # constant on some pair of the five coordinates, so no level-2 kernel
    # of Boolean 5 is one-dimensional: the rays there come from
    # intersecting kernels
    for view in _scrambled_lattice_views(subspace23):
        _assert_scan_kernels(view, 2, _peeled_vertex_rays(view, 2))


def test_closure_mode_agrees(subspace23):
    # every level from 3 up, the one-vertex top levels included
    for view in _scrambled_lattice_views(subspace23):
        for n in range(3, view.top_level + 1):
            _assert_scan_kernels(view, n, _peeled_vertex_rays(view, n))


def test_sampled_mode_gives_up_on_nested_views(nested_graph):
    # the wide vertex's kernel lies inside the narrow one's, so no y
    # separates the wide vertex from the narrow one
    draws = _KERNEL_DRAWS_PER_RAY * 2
    for p in (3, 5):
        view = algebra_view(nested_graph, GF(p))
        start = time.perf_counter()
        with pytest.raises(
            VerificationFailed,
            match=f"peeling at level 2 ended on dimension 2 after 1 of 2 vertex rays "
            f"and {draws} draws",
        ):
            _peeled_vertex_rays(view, 2)
        assert time.perf_counter() - start < 1.0


def test_auto_falls_back_to_the_scan_once_on_nested_views(nested_graph, monkeypatch):
    calls = []
    peel = laga.reconstruct._peeled_vertex_rays

    def counting(view, n):
        calls.append(n)
        return peel(view, n)

    monkeypatch.setattr(laga.reconstruct, "_peeled_vertex_rays", counting)
    for p in (3, 5):
        calls.clear()
        view = algebra_view(nested_graph, GF(p))
        first = upper_vertex_like_basis(view, 2)
        assert upper_vertex_like_basis(view, 2) == first
        assert calls == [2]
        oracle = _exhaustive_scan(algebra_view(nested_graph, GF(p)), 2)
        assert list(zip(first.vectors, first.kappas)) == oracle


def test_plain_view_check_runs_after_refinement(boolean3, monkeypatch):
    def wrong_rays(view, n):
        return [(1, 1, 0), (0, 1, 0), (0, 0, 1)]

    monkeypatch.setattr(laga.reconstruct, "_peeled_vertex_rays", wrong_rays)
    with pytest.raises(
        VerificationFailed, match="kernel multiset does not match the vertex basis"
    ):
        upper_vertex_like_basis(algebra_view(boolean3), 2)


def test_closure_gives_up_on_a_view_nested_at_level_3():
    # q's one successor puts it in every kernel R(w), and p's successors
    # contain q's, so the first pass finds q and the second keeps only
    # kernels that hold both
    for p in (3, 5):
        view = algebra_view(_nested_twice(), GF(p))
        with pytest.raises(
            VerificationFailed,
            match="peeling at level 3 ended on dimension 2 after 1 of 2 vertex rays",
        ):
            _peeled_vertex_rays(view, 3)


def test_closure_falls_back_to_the_scan_once_at_level_3(monkeypatch):
    calls = []
    scan = laga.reconstruct._exhaustive_scan

    def counting(view, n):
        calls.append(n)
        return scan(view, n)

    monkeypatch.setattr(laga.reconstruct, "_exhaustive_scan", counting)
    for p in (3, 5):
        calls.clear()
        view = algebra_view(_nested_twice(), GF(p))
        first = upper_vertex_like_basis(view, 3)
        assert upper_vertex_like_basis(view, 3) == first
        # the nested level 2 falls back too, once
        assert calls == [2, 3]
        assert list(zip(first.vectors, first.kappas)) == scan(view, 3)


def test_subspace33_over_f2_recovers_without_the_scan(monkeypatch):
    # 2^13 rays at level 2: the old default scanned them all
    def no_scan(*args, **kwargs):
        raise AssertionError("exhaustive ray scan")

    monkeypatch.setattr(laga.reconstruct, "enumerate_rays", no_scan)
    g = build_subspace_lattice(3, 3)
    view = algebra_view(g, GF(2), scramble_seed=1)
    assert are_isomorphic(reconstruct_subspace(view, 3, 3), g) is not None


def test_nested_graph_greedy_basis(nested_graph):
    view = algebra_view(nested_graph)
    basis = upper_vertex_like_basis(view, 2)
    # the narrow vertex c (successors {x, y}) has the bigger kernel and
    # is chosen first
    assert basis.ks == (2, 1)
    assert basis.kappas[0] == span([[1, 1, 0], [0, 0, 1]], 3, F3)
    assert basis.kappas[1] == span([[1, 1, 1]], 3, F3)


def _respects_filtration(view, n, chosen) -> bool:
    """For each kernel dimension t, the chosen vectors with k >= t span
    the same space as every ray of the level with k >= t."""
    field, d = view.field, view.level_dims[n]
    rays = [(x, kappa_view(view, n, x).dim) for x in enumerate_rays(field, d)]
    for t in {k for _, k in rays}:
        every = span([list(x) for x, k in rays if k >= t], d, field)
        kept = span([list(x) for x, kap in chosen if kap.dim >= t], d, field)
        if kept != every:
            return False
    return True


def _nested_twice():
    """The nested graph with a level 3 on top whose successor sets nest
    too: p covers {b, c}, q covers {c}."""
    return build_graph(
        [1, 3, 2, 2],
        [
            ((3, 0), (2, 0)),
            ((3, 0), (2, 1)),
            ((3, 1), (2, 1)),
            ((2, 0), (1, 0)),
            ((2, 0), (1, 1)),
            ((2, 0), (1, 2)),
            ((2, 1), (1, 0)),
            ((2, 1), (1, 1)),
            ((1, 0), (0, 0)),
            ((1, 1), (0, 0)),
            ((1, 2), (0, 0)),
        ],
        unique_minimal=True,
        positive_outdegree=True,
    )


@pytest.mark.parametrize("p", [2, 3, 5])
def test_exhaustive_scan_respects_the_kernel_filtration(nested_graph, p):
    for g in (nested_graph, _nested_twice()):
        for seed in (None, 1, 2, 3):
            view = algebra_view(g, GF(p), scramble_seed=seed)
            for n in range(2, view.top_level + 1):
                assert _respects_filtration(view, n, _exhaustive_scan(view, n)), (seed, n)


def test_exhaustive_scan_respects_the_filtration_on_lattices(boolean3, subspace23):
    for view in (algebra_view(boolean3), algebra_view(subspace23, scramble_seed=2)):
        for n in range(2, view.top_level + 1):
            assert _respects_filtration(view, n, _exhaustive_scan(view, n))


def test_filtration_check_rejects_a_misordered_basis(nested_graph):
    view = algebra_view(nested_graph)
    # e_c alone has the larger kernel; e_b + e_c and e_b span the level
    # but miss the k >= 2 step, as a scan in ascending k would choose
    wrong = [(x, kappa_view(view, 2, x)) for x in [(1, 1), (1, 0)]]
    assert [kap.dim for _, kap in wrong] == [1, 1]
    assert not _respects_filtration(view, 2, wrong)
    assert _respects_filtration(view, 2, _exhaustive_scan(view, 2))


def test_outdegree_multisets(boolean3, nested_graph):
    view = algebra_view(boolean3)
    assert outdegree_multiset(view, 2) == [2, 2, 2]
    assert outdegree_multiset(view, 3) == [3]
    assert outdegree_multiset(algebra_view(nested_graph), 2) == [2, 3]
    # peeling, not a scan of all 5^10 rays
    view = algebra_view(build_boolean(5), GF(5), scramble_seed=1)
    assert outdegree_multiset(view, 2) == [2] * 10


def test_level_one_has_no_upper_basis():
    # level 1 multiplies into nothing, so the range check stops it before
    # the right-multiplication kernel looks for level-1 cells
    view = algebra_view(build_boolean(3), F3, scramble_seed=1)
    for query in (upper_vertex_like_basis, outdegree_multiset):
        with pytest.raises(LevelMismatch, match="level 1 outside 2..3"):
            query(view, 1)
    # a level in range still needs a finite field to peel rays over
    with pytest.raises(UnsupportedField, match="vertex-ray peeling needs a finite field"):
        upper_vertex_like_basis(algebra_view(build_boolean(3), QQ), 2)


def test_intersection_sizes(boolean3):
    view = algebra_view(boolean3)
    # {1,2} and {1,3} share one element; a vertex with itself reports its
    # out-degree
    a = BElement(F3, 2, _unit(3, 0))
    b = BElement(F3, 2, _unit(3, 1))
    assert intersection_size(view, a, b) == 1
    assert intersection_size(view, a, a) == 2
    with pytest.raises(LevelMismatch):
        intersection_size(view, a, BElement(F3, 3, _unit(1, 0)))


def test_nonnesting_recovers_upper_part(boolean4):
    view = algebra_view(boolean4, scramble_seed=5)
    recovered = reconstruct_nonnesting(view)
    assert recovered.levels == (6, 4, 1)
    assert are_isomorphic(recovered, upper_part(boolean4, 2)) is not None


def test_nonnesting_rejects_nested_views(nested_graph):
    with pytest.raises(NonNestingViolated):
        reconstruct_nonnesting(algebra_view(nested_graph))


def test_nonnesting_rejects_views_nested_above_level_two():
    # level-2 successor sets {0, 1}, {0, 2}, {1, 2} do not nest; at level
    # 3, {0, 1} lies in {0, 1, 2}, which the recovered graph shows
    edges = [((1, i), (0, 0)) for i in range(3)]
    edges += [((2, v), (1, u)) for v, s in enumerate([(0, 1), (0, 2), (1, 2)]) for u in s]
    edges += [((3, v), (2, u)) for v, s in enumerate([(0, 1), (0, 1, 2)]) for u in s]
    g = build_graph([1, 3, 3, 2], edges)
    assert is_uniform(g)[0]
    message = r"nested successor sets at level 3 \(vectors 0, 1\)"
    for seed in (None, 1, 2):
        with pytest.raises(NonNestingViolated, match=message):
            reconstruct_nonnesting(algebra_view(g, F3, scramble_seed=seed))


def test_nonnesting_rejects_a_vertex_with_one_successor():
    # uniform, but the level-2 vertex covers one vertex, so its degree-2
    # component is zero: the view stores no cell there
    g = build_graph([1, 2, 1], [((1, 0), (0, 0)), ((1, 1), (0, 0)), ((2, 0), (1, 0))])
    for seed in (None, 1):
        view = algebra_view(g, F3, scramble_seed=seed)
        assert view.cells[2] == ((),)
        with pytest.raises(NonNestingViolated, match="level 2 vector 0 has successor count <= 1"):
            reconstruct_nonnesting(view)


def test_boolean_reconstruction_over_seeds(boolean3):
    for seed in (None, 1, 2, 3):
        view = algebra_view(boolean3, scramble_seed=seed)
        result = reconstruct_boolean(view, 3)
        assert are_isomorphic(result, boolean3) is not None


def test_boolean4_reconstruction(boolean4):
    view = algebra_view(boolean4, scramble_seed=7)
    result = reconstruct_boolean(view, 4)
    assert are_isomorphic(result, boolean4) is not None


def test_boolean5_reconstruction_on_the_default_field():
    # every level-2 kernel over F_3 is at least two-dimensional here
    view = algebra_view(build_boolean(5), scramble_seed=8)
    assert view.field == F3
    result = reconstruct_boolean(view, 5)
    assert are_isomorphic(result, build_boolean(5)) is not None


def test_boolean6_reconstruction_on_the_default_field():
    # the rank-6 scale rung; reconstruct_boolean certifies the result
    view = algebra_view(build_boolean(6), scramble_seed=1)
    result = reconstruct_boolean(view, 6)
    assert are_isomorphic(result, build_boolean(6)) is not None


@pytest.mark.parametrize("n", [1, 2])
def test_boolean_recovery_needs_rank_three(n):
    view = algebra_view(build_boolean(n), scramble_seed=1)
    with pytest.raises(ReconstructionFailed, match="rank n >= 3"):
        reconstruct_boolean(view, n)


def _random_invertible(d, field, rng):
    while True:
        m = [[rng.randrange(field.p) for _ in range(d)] for _ in range(d)]
        if rank(m, field) == d:
            return m


def _random_basis_view(g, field, seed):
    """The view of g in uniformly random bases of every degree-1 level,
    drawn level by level from one seeded stream."""
    rng = random.Random(seed)
    maps = {n: _random_invertible(g.levels[n], field, rng) for n in range(1, g.top_level + 1)}
    cells, widths = [None, None], [0, 0]
    for n in range(2, g.top_level + 1):
        products = [[degree2_product(g, n, x, y, field) for y in maps[n - 1]] for x in maps[n]]
        cells.append(_sparse_cells(products))
        widths.append(len(products[0][0]) if any(cells[-1]) else 0)
    view = AlgebraView(field, (0,) + g.levels[1:], tuple(cells))
    assert view.widths == tuple(widths)
    return view


@pytest.mark.parametrize("n, p, seed", [(6, 3, 1), (6, 5, 3), (6, 7, 3), (7, 3, 1)])
def test_random_basis_views_recover(n, p, seed):
    # in a random basis the lower vertex rays come in no order that
    # follows the lattice; peeling still takes one ray per pass
    g = build_boolean(n)
    view = _random_basis_view(g, GF(p), seed)
    assert are_isomorphic(reconstruct_boolean(view, n), g) is not None


@pytest.mark.parametrize(
    "view, family, params, digest",
    [
        pytest.param(
            lambda: algebra_view(build_boolean(5), GF(3), scramble_seed=1),
            "boolean", {"n": 5},
            "e522586acc2a7ffb84412084c259051ff1bfa9a6f4657a7119cdc0ce59bfdec4",
            id="boolean5-F3-scramble1",
        ),
        pytest.param(
            lambda: algebra_view(build_subspace_lattice(3, 3), GF(5), scramble_seed=2),
            "subspace", {"q": 3, "n": 3},
            "77c80ee6c90dc742d0b6461613ad725e619da45e5212576fd0650a8730be4007",
            id="subspace33-F5-scramble2",
        ),
        pytest.param(
            lambda: _random_basis_view(build_boolean(6), GF(7), 1),
            "boolean", {"n": 6},
            "e8af44ede2f272f143338db4e6e2dcb79f65ab41381409b528cb10b5f5140026",
            id="boolean6-F7-random1",
        ),
        pytest.param(
            lambda: _random_basis_view(build_subspace_lattice(2, 3), GF(7), 2),
            "subspace", {"q": 2, "n": 3},
            "025077df8fa156eea2036ad1655a64f7843ae62a9773e36f04c16ff29b3174ba",
            id="subspace23-F7-random2",
        ),
    ],
)
def test_recovered_bases_are_pinned(view, family, params, digest):
    # the kernel multisets checked elsewhere do not fix the basis vectors;
    # these digests of the whole report do, on scramble and random-basis views
    report = reconstruction_report(view(), family, **params)
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "spec", [("boolean", 4), ("boolean", 5), ("subspace", 2, 3), ("subspace", 3, 3)],
    ids=["boolean4", "boolean5", "subspace23", "subspace33"],
)
@settings(max_examples=5, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(1, 10_000), change=st.integers(0, 10_000))
def test_recovery_ignores_the_output_basis(spec, p, seed, change):
    """The degree-2 coordinates of a view come in the hidden graph's
    block order, one block per level-n vertex, and no scramble touches
    that order; right-multiplying every cell by one random invertible
    matrix per level must change no upper basis and no recovered graph."""
    graph, field = _lattice(spec), GF(p)
    view = algebra_view(graph, field, scramble_seed=seed)
    rng = random.Random(change)
    cells = list(view.cells)
    for n in range(2, view.top_level + 1):
        mat = _random_invertible(view.widths[n], field, rng)
        products = [[field.combine(cell, mat) for cell in row] for row in _dense(view, n)]
        cells[n] = _sparse_cells(products)
    moved = AlgebraView(field, view.level_dims, tuple(cells))
    assert moved.cells != view.cells
    assert moved.widths == view.widths
    for n in range(2, view.top_level + 1):
        assert upper_vertex_like_basis(moved, n) == upper_vertex_like_basis(view, n)
    family, *params = spec
    recover = reconstruct_boolean if family == "boolean" else reconstruct_subspace
    recovered = recover(moved, *params)
    assert recovered == recover(view, *params)
    assert are_isomorphic(recovered, graph) is not None


def test_subspace_reconstruction(subspace23):
    view = algebra_view(subspace23, scramble_seed=1)
    result = reconstruct_subspace(view, 2, 3)
    assert are_isomorphic(result, subspace23) is not None


def test_reconstruction_rejects_wrong_dimensions(subspace23):
    view = algebra_view(subspace23)
    with pytest.raises(ReconstructionFailed):
        reconstruct_boolean(view, 3)
    with pytest.raises(ReconstructionFailed):
        reconstruct_subspace(view, 2, 2)


def test_complete_graph_fails_boolean_recovery():
    # the complete layered graph shares the Boolean level sizes but all
    # its kernels coincide, so the nesting screen rejects it
    g = build_complete_layered([1, 4, 6, 4, 1])
    view = algebra_view(g)
    with pytest.raises(NonNestingViolated):
        reconstruct_boolean(view, 4)


def test_view_json_round_trip(boolean3):
    # the widths are read off the cells, so the trip keeps them too
    cases = [(F3, None), (F3, 2), (GF(5), 2), (QQ, None), (QQ, 3)]
    views = [algebra_view(boolean3, field, scramble_seed=seed) for field, seed in cases]
    views += [_random_basis_view(build_boolean(4), GF(5), 1)]
    views += [_random_basis_view(boolean3, GF(2), 2)]
    for view in views:
        again = view_from_json_dict(json.loads(json.dumps(view_to_json_dict(view))))
        assert again == view
        assert again.widths == view.widths


def test_view_json_holds_only_nonzero_cells_in_order(boolean3):
    # an entry that is zero in the field is dropped on read as well
    for field in (F3, QQ):
        data = view_to_json_dict(algebra_view(boolean3, field, scramble_seed=1))
        for entries in data["cells"].values():
            assert all(x not in (0, "0") for *_, x in entries)
            assert [tuple(e[:3]) for e in entries] == sorted({tuple(e[:3]) for e in entries})
        view = view_from_json_dict(data)
        # every entry of every product written, the zero ones as 3 (F_3) or "0/5" (Q)
        zero = 3 if field == F3 else "0/5"
        data["cells"] = {
            str(n): [
                [i, j, k, x if c else zero]
                for i, row in enumerate(_dense(view, n))
                for j, cell in enumerate(row)
                for k, (c, x) in enumerate(zip(cell, _cell_json(cell)))
            ]
            for n in (2, 3)
        }
        assert view_from_json_dict(data) == view


def test_dense_cell_layout_is_not_read(boolean3):
    # each nonzero product as [i, j, cell], the cell dense at full width
    view = algebra_view(boolean3, scramble_seed=1)
    data = view_to_json_dict(view)
    data["cells"] = {
        str(n): [
            [i, j, _cell_json(cell)]
            for i, row in enumerate(_dense(view, n))
            for j, cell in enumerate(row)
            if any(cell)
        ]
        for n in (2, 3)
    }
    with pytest.raises(DimensionMismatch, match=r"level 2 entry \[0, \d, \[.*\]\] is not \[i, j"):
        view_from_json_dict(json.loads(json.dumps(data)))


@pytest.mark.parametrize("entry", [True, 1.5, [1]], ids=["bool", "float", "list"])
def test_view_entries_that_are_not_scalars_are_shape_errors(boolean3, entry):
    data = view_to_json_dict(algebra_view(boolean3, GF(5), scramble_seed=1))
    data["cells"]["2"][0][3] = entry
    with pytest.raises(DimensionMismatch, match="neither an int nor a string"):
        view_from_json_dict(data)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda cells: cells["2"].append([3, 0, 0, 1]), r"entry \(3, 0, 0\) is outside 3 x 3 x 9"),
        (lambda cells: cells["2"][0].__setitem__(1, -1), r"entry \(0, -1, \d\) is outside 3 x 3"),
        (lambda cells: cells["2"][0].__setitem__(0, "0"), r"entry \('0', .*\) is outside"),
        (lambda cells: cells["2"][-1].__setitem__(2, -1), r"entry \(2, \d, -1\) is outside"),
        # the products lie in a quotient of V_2 (x) V_1, so k < 3 * 3; not
        # a NonNestingViolated from the recovery it would otherwise reach
        (lambda cells: cells["2"][-1].__setitem__(2, 9), r"entry \(2, \d, 9\) is outside 3 x 3 x"),
        (lambda cells: cells["2"].append(cells["2"][-1]), "repeated or out of order"),
        (lambda cells: cells["2"].reverse(), "repeated or out of order"),
        (lambda cells: cells["2"].append([2, 2, 0]), r"entry \[2, 2, 0\] is not \[i, j, k, v"),
        (lambda cells: cells["2"].__setitem__(0, 5), r"entry 5 is not \[i, j, k, value\]"),
        (lambda cells: cells.__setitem__("2", {}), "level 2 cells are not a list"),
    ],
    ids=["row-out-of-range", "column-negative", "index-a-string", "quotient-negative",
         "quotient-out-of-range", "repeated", "out-of-order", "short-entry", "cell-not-a-list",
         "level-not-a-list"],
)
def test_view_cells_out_of_place_are_shape_errors(boolean3, edit, message):
    data = view_to_json_dict(algebra_view(boolean3, scramble_seed=1))
    edit(data["cells"])
    with pytest.raises(DimensionMismatch, match=message):
        view_from_json_dict(data)


def test_view_past_budget_is_refused_before_allocating(monkeypatch):
    # sixty bytes of JSON claim 100,000 basis vectors; the claim is
    # counted before a row is allocated for any of them
    data = {"field": 3, "level_dims": [0, 1, 100_000], "cells": {"2": []}}
    monkeypatch.setenv("LAGA_BUDGET", "100000")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="100001 basis vectors of the view exceed"):
            view_from_json_dict(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    monkeypatch.setenv("LAGA_BUDGET", "100001")
    assert view_from_json_dict(data).widths == (0, 0, 0)


@pytest.mark.parametrize("dims", [[5, 3, 3, 1], [0, -2], [0, 3, -3, 1]])
def test_view_level_dims_must_start_at_zero_and_not_be_negative(boolean3, dims):
    data = view_to_json_dict(algebra_view(boolean3, scramble_seed=1))
    data["level_dims"] = dims
    with pytest.raises(DimensionMismatch, match=r"view level_dims .* non-negative, with entry 0"):
        view_from_json_dict(data)


@pytest.mark.parametrize("key", ["field", "level_dims", "cells"])
def test_view_without_a_key_names_it(boolean3, key):
    data = view_to_json_dict(algebra_view(boolean3, scramble_seed=1))
    del data[key]
    with pytest.raises(DimensionMismatch, match=f"view has no '{key}' key"):
        view_from_json_dict(data)


def test_dense_view_layout_is_not_read(boolean3):
    view = algebra_view(boolean3, scramble_seed=1)
    data = view_to_json_dict(view)
    data["tensors"] = {"2": _dense(view, 2), "3": _dense(view, 3)}
    del data["cells"]
    with pytest.raises(DimensionMismatch, match="view has no 'cells' key"):
        view_from_json_dict(json.loads(json.dumps(data)))


def test_views_are_not_kept_alive_by_caches(boolean4):
    view = algebra_view(boolean4, scramble_seed=3)
    ref = weakref.ref(view)
    reconstruct_boolean(view, 4)
    del view
    gc.collect()
    assert ref() is None


def test_exhaustive_scan_keeps_no_kernel_per_ray(nested_graph):
    # the scan asks for the kernel of every ray of the level; only the
    # upper basis of each level may stay on the view
    view = algebra_view(nested_graph, GF(5))
    _exhaustive_scan(view, 2)
    assert list(view._cache) == []
    upper_vertex_like_basis(view, 2)
    assert list(view._cache) == [(laga.reconstruct._upper_basis.__wrapped__, 2)]


def test_graphs_are_not_kept_alive_by_caches():
    g = build_boolean(3)
    ref = weakref.ref(g)
    b_hilbert_table(g, 3, 6)
    gr_hilbert_table(g, 3, 6)
    is_quadratic_to_degree(g, 3)
    is_uniform(g)
    quadratic_dual_check(g, 2)
    kappa_kernel(g, BElement(GF(3), 2, (1, 2, 0)))
    algebra_view(g, scramble_seed=1)
    del g
    gc.collect()
    assert ref() is None


def test_recovery_and_certificate_leave_no_reference_cycles(boolean4):
    """A recovered graph and its caches die when the caller drops them,
    not when the cyclic collector next runs."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = reconstruct_boolean(algebra_view(boolean4, scramble_seed=2), 4)
        assert are_isomorphic(result, boolean4) is not None
        del result
        gc.collect()
        assert sorted({type(x).__name__ for x in gc.garbage}) == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _lattice_sets(spec):
    """(size, count) of the level-1 sets of a Boolean or subspace lattice."""
    family, *params = spec
    if family == "boolean":
        (n,) = params
        return math.comb(n - 1, 2), n
    q, n = params
    size = (q**n - q**2) * (q ** (n - 1) - 1) // ((q - 1) * (q**2 - 1))
    return size, gaussian_binomial(n, 1, q)


@pytest.mark.parametrize(
    "spec", [("boolean", 4), ("boolean", 5), ("subspace", 2, 3), ("subspace", 3, 3)]
)
def test_level_one_sets_are_every_set_of_their_size(spec):
    # brute force over all subsets of the level-2 basis of that size (at
    # most 715), in the order the recovery returns them; an intersection
    # of kernels is the kernel of their stacked annihilator rows
    size, count = _lattice_sets(spec)
    for seed in (1, 2, 3):
        basis2 = upper_vertex_like_basis(algebra_view(_lattice(spec), scramble_seed=seed), 2)
        d1 = basis2.kappas[0].ambient_dim
        anns = [kernel([list(r) for r in k.basis], d1, F3).basis for k in basis2.kappas]
        oracle = [
            frozenset(a)
            for a in itertools.combinations(range(len(anns)), size)
            if d1 - rank([r for j in a for r in anns[j]], F3) >= 2
        ]
        assert len(oracle) == count
        assert _level_one_sets(basis2, size, count) == oracle


def test_level_one_sets_name_what_they_found(boolean4):
    basis2 = upper_vertex_like_basis(algebra_view(boolean4, scramble_seed=5), 2)
    passes = _CLOSURE_PASSES_PER_SET * 4
    start = time.perf_counter()
    with pytest.raises(
        ReconstructionFailed,
        match=f"found 0 of 4 sets of size 4 in {passes} closure passes",
    ):
        _level_one_sets(basis2, 4, 4)
    assert time.perf_counter() - start < 0.5


def test_subspace24_over_f2_recovers():
    # the F_2^4 rung: 35 lines, 15 level-1 sets of 28, and the level-3
    # basis of 15 planes; reconstruct_subspace certifies the result
    g = build_subspace_lattice(2, 4)
    view = algebra_view(g, GF(2), scramble_seed=1)
    start = time.perf_counter()
    result = reconstruct_subspace(view, 2, 4)
    assert time.perf_counter() - start < 30
    assert result.levels == g.levels
    # each plane covers its 7 lines
    assert outdegree_multiset(view, 3) == [7] * 15


@pytest.mark.parametrize(
    "spec, p, bound",
    [
        pytest.param(("subspace", 2, 4), 5, 10, id="subspace24-F5"),
        pytest.param(("subspace", 2, 4), 7, 10, id="subspace24-F7"),
        pytest.param(("boolean", 6), 7, 5, id="boolean6-F7"),
        pytest.param(("boolean", 4), 1009, 5, id="boolean4-F1009"),
        pytest.param(("subspace", 2, 3), 101, 5, id="subspace23-F101"),
        pytest.param(("boolean", 6), 2**31 - 1, 5, id="boolean6-F2^31-1"),
        pytest.param(("subspace", 3, 3), 2**31 - 1, 5, id="subspace33-F2^31-1"),
    ],
)
def test_recovers_over_larger_fields(spec, p, bound):
    # the level >= 3 rays come from the basis below and the level-2 rays
    # from the level-1 unit vectors, so the kernel count does not grow
    # with p, where a uniform draw lies in kappa(v) only with probability
    # p^-(codim kappa(v)); the scramble draws its scalars without listing
    # F_p; reconstruct_* certifies
    g = _lattice(spec)
    view = algebra_view(g, GF(p), scramble_seed=1)
    start = time.perf_counter()
    if spec[0] == "boolean":
        result = reconstruct_boolean(view, *spec[1:])
    else:
        result = reconstruct_subspace(view, *spec[1:])
    assert time.perf_counter() - start < bound
    assert result.levels == g.levels


@pytest.mark.parametrize(
    "spec, p",
    [(("boolean", 5), 3), (("subspace", 3, 3), 3), (("subspace", 2, 4), 5), (("boolean", 6), 7)],
    ids=["boolean5-F3", "subspace33-F3", "subspace24-F5", "boolean6-F7"],
)
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_monomial_views_need_no_level2_draws(spec, p, seed, monkeypatch):
    # in a plain or scrambled view each level-1 unit vector is a scaled
    # hidden vertex, so their kernels alone peel level 2
    def no_scan(*args, **kwargs):
        raise AssertionError("exhaustive ray scan")

    monkeypatch.setattr(laga.reconstruct, "_KERNEL_DRAWS_PER_RAY", 0)
    monkeypatch.setattr(laga.reconstruct, "_exhaustive_scan", no_scan)
    g = _lattice(spec)
    view = algebra_view(g, GF(p), scramble_seed=seed)
    family, *params = spec
    recover = reconstruct_boolean if family == "boolean" else reconstruct_subspace
    assert are_isomorphic(recover(view, *params), g) is not None


def test_view_rejects_elements_of_another_field(boolean3):
    view = algebra_view(boolean3, scramble_seed=1)
    a = BElement(GF(5), 2, (1, 0, 0))
    b = BElement(F3, 2, (0, 1, 0))
    with pytest.raises(UnsupportedField):
        intersection_size(view, a, b)


def test_invariants_are_scramble_invariant(subspace23):
    plain = algebra_view(subspace23)
    scrambled = algebra_view(subspace23, scramble_seed=11)
    for n in range(2, 4):
        assert outdegree_multiset(plain, n) == outdegree_multiset(scrambled, n)


def test_reconstruction_report(boolean3):
    view = algebra_view(boolean3, scramble_seed=4)
    report = reconstruction_report(view, "boolean", n=3)
    assert report["certified"] is True
    assert report["levels"] == [1, 3, 3, 1]
    assert {row["level"]: row["k_values"] for row in report["per_level"]} == {
        2: [2, 2, 2],
        3: [1],
    }
    nn = reconstruction_report(view, "nonnesting", reference=boolean3)
    assert nn["certified"] is True
    with pytest.raises(ReconstructionFailed, match="output does not match the reference graph"):
        reconstruction_report(view, "nonnesting", reference=build_boolean(4))
    with pytest.raises(ReconstructionFailed):
        reconstruction_report(view, "mystery")
    with pytest.raises(ReconstructionFailed, match="boolean recovery needs the rank n"):
        reconstruction_report(view, "boolean")
    with pytest.raises(ReconstructionFailed, match="subspace recovery needs q and n"):
        reconstruction_report(view, "subspace", n=3)

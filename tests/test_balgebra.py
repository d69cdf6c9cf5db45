import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laga import (
    GF,
    QQ,
    AmbientMismatch,
    BElement,
    BudgetExceeded,
    DimensionMismatch,
    FreeElement,
    LevelMismatch,
    MixedLevels,
    NotUniform,
    UnsupportedField,
    V,
    b_dimension,
    b_hilbert_table,
    balgebra,
    build_boolean,
    build_graph,
    build_subspace_lattice,
    class_partition,
    component,
    degree2_product,
    element,
    full_space,
    gr_dimension,
    gr_quadratic_space,
    iso_condition_check,
    k_stats,
    kappa_combinatorial,
    kappa_kernel,
    kappa_of_element,
    kappa_profile,
    koszul_defect,
    quadratic_dual_check,
    random_layered_graph,
    random_uniform_graph,
    relation_space,
    span,
    vertex_element,
)

F2 = GF(2)
F3 = GF(3)

fields = st.sampled_from([QQ, F2, F3])


def test_belement_basics(boolean3):
    a = vertex_element(boolean3, V(2, 0))
    b = vertex_element(boolean3, V(2, 1))
    assert (a + b).support() == {V(2, 0), V(2, 1)}
    with pytest.raises(LevelMismatch):
        a + vertex_element(boolean3, V(1, 0))
    with pytest.raises(DimensionMismatch):
        element(boolean3, 2, [1, 0])


def test_mixing_fields_raises(boolean3):
    a = vertex_element(boolean3, V(2, 0), F3)
    b = vertex_element(boolean3, V(2, 1), GF(5))
    with pytest.raises(UnsupportedField):
        a + b
    with pytest.raises(UnsupportedField):
        F3(Fraction(1, 2))
    with pytest.raises(AmbientMismatch):
        full_space(3, F3).intersect(full_space(3, GF(5)))
    with pytest.raises(UnsupportedField):
        FreeElement.word((V(1, 0),), F3) + FreeElement.word((V(1, 0),), GF(5))


@pytest.mark.parametrize("raw", [1.5, "1/2"], ids=["float", "string"])
def test_prime_fields_refuse_non_integral_values(boolean3, raw):
    # 1.5 was truncated to 1 and "1/2" raised a bare ValueError
    with pytest.raises(UnsupportedField, match="cannot coerce (3/2|1/2) into F_5"):
        GF(5)(raw)
    with pytest.raises(UnsupportedField):
        element(boolean3, 1, [raw, 1, 2], GF(5))
    # integral values of every type still coerce
    assert [GF(5)(x) for x in (2.0, "7", Fraction(8, 4), -1)] == [2, 2, 2, 4]


def test_relation_space_level_one_is_everything(boolean3):
    rel = relation_space(boolean3, 1)
    assert rel.dim == rel.ambient_dim == 3


def test_relation_space_dimension_per_vertex(boolean3, subspace23):
    # each level-n vertex contributes (|V_{n-1}| - out_degree) non-edge
    # relations plus one successor sum, and the blocks are independent
    for g in (boolean3, subspace23):
        for n in range(2, g.top_level + 1):
            expect = sum(
                g.levels[n - 1] - g.out_degree(v) + 1 for v in g.level_vertices(n)
            )
            assert relation_space(g, n).dim == expect


def test_degree_one_dimensions_are_level_sizes(boolean3):
    for n in range(1, 4):
        assert b_dimension(boolean3, 1, n) == boolean3.levels[n]
    assert b_dimension(boolean3, 1, 4) == 0


def test_quotient_dimension_is_sum_of_kappa_dims(boolean3, subspace23):
    # per-vertex blocks: the bidegree (2, 2n-1) quotient splits as a sum
    # of one block per level-n vertex of dimension |V_{n-1}| - k_v
    for g in (boolean3, subspace23):
        for n in range(2, g.top_level + 1):
            expect = sum(
                g.levels[n - 1] - class_partition(g, [v]).k
                for v in g.level_vertices(n)
            )
            assert b_dimension(g, 2, 2 * n - 1) == expect


def test_kappa_vertex_matches_class_sums(boolean3):
    kappa = kappa_combinatorial(boolean3, [V(2, 0)])
    # classes {1},{2} merge under {1,2}; {3} is alone
    assert kappa.dim == 2
    assert kappa.contains_vector([QQ(1), QQ(1), QQ(0)])
    assert kappa.contains_vector([QQ(0), QQ(0), QQ(1)])
    assert not kappa.contains_vector([QQ(1), QQ(0), QQ(0)])


def _assert_closed_form(g, field):
    """The closed form is the projected word on every edge v*w, which
    the component's path basis holds, and zero on every non-edge."""
    for n in range(1, g.top_level + 1):
        comp = component(g, 2, 2 * n - 1, field)
        edges = set(comp.basis_words)
        for pos, (v, w) in enumerate(comp.basis_words):
            word = [field.zero] * len(comp.basis_words)
            word[pos] = field.one
            x = vertex_element(g, v, field).coords
            y = vertex_element(g, w, field).coords
            assert degree2_product(g, n, x, y, field) == comp.project(word)
        for v in g.level_vertices(n):
            for w in g.level_vertices(n - 1):
                if (v, w) not in edges:
                    x = vertex_element(g, v, field).coords
                    y = vertex_element(g, w, field).coords
                    assert not any(degree2_product(g, n, x, y, field))


def _draw(seed):
    """A random graph that need not be uniform, where some vertices lose
    all their out-edges; on odd seeds level 0 may hold several vertices."""
    rng = random.Random(seed)
    g = random_layered_graph(rng, max_levels=5, max_width=4, unique_minimal=seed % 2 == 0)
    bare = {v for v in g.positive_vertices() if rng.random() < 0.25}
    return build_graph(g.levels, [(t, h) for t, h in g.edges if t not in bare])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([QQ, F2, F3, GF(5)]))
def test_degree2_product_is_the_projected_word(seed, field):
    """The closed form agrees with the generic component's projection of
    every word v*w, on graphs that need not be uniform or have a unique
    minimal vertex, where some vertices keep one successor and some lose
    all of theirs."""
    _assert_closed_form(_draw(seed), field)


def test_degree2_product_on_nonuniform_and_nested_graphs(nonuniform_graph, nested_graph):
    for g in (nonuniform_graph, nested_graph):
        for field in (QQ, F2, F3, GF(5)):
            _assert_closed_form(g, field)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), fields)
def test_kappa_kernel_oracle_vertices(seed, field):
    g = random_uniform_graph(random.Random(seed), max_levels=3, max_width=4)
    for n in range(1, g.top_level + 1):
        for v in g.level_vertices(n):
            a = vertex_element(g, v, field)
            assert kappa_of_element(g, a) == kappa_kernel(g, a)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), fields)
def test_kappa_kernel_oracle_random_elements(seed, field):
    rng = random.Random(seed)
    g = random_uniform_graph(rng, max_levels=3, max_width=4)
    n = rng.randint(1, g.top_level)
    coords = [rng.randint(0, 4) for _ in range(g.levels[n])]
    a = element(g, n, coords, field)
    assert kappa_of_element(g, a) == kappa_kernel(g, a)


def test_kappa_of_zero_is_full(boolean3):
    zero = element(boolean3, 2, [0, 0, 0])
    assert kappa_of_element(boolean3, zero) == full_space(3, QQ)


def test_kappa_intersects_over_support(boolean3):
    a = vertex_element(boolean3, V(2, 0)) + vertex_element(boolean3, V(2, 1))
    ka = kappa_of_element(boolean3, a)
    k0 = kappa_of_element(boolean3, vertex_element(boolean3, V(2, 0)))
    k1 = kappa_of_element(boolean3, vertex_element(boolean3, V(2, 1)))
    assert ka == k0.intersect(k1)


def test_degree2_product_checks_its_levels_and_coordinates(boolean3):
    x, y = vertex_element(boolean3, V(2, 0)).coords, vertex_element(boolean3, V(1, 0)).coords
    assert degree2_product(boolean3, 2, x, y) == (QQ(-1), QQ(0), QQ(0))
    for n, xs, ys in [(2, x[:2], y), (2, x, y + (QQ(0),)), (0, (), ()), (4, (QQ(1),), y)]:
        with pytest.raises(LevelMismatch):
            degree2_product(boolean3, n, xs, ys)


@pytest.mark.parametrize(
    "level, coords, error",
    [
        (2, (1,), LevelMismatch),  # too few coordinates
        (2, (1, 0, 0, 5), LevelMismatch),  # too many
        (0, (), MixedLevels),  # below level 1
        (4, (1,), LevelMismatch),  # above the top level
        (5, (0,), LevelMismatch),
    ],
)
def test_both_kappa_paths_reject_malformed_elements(boolean3, level, coords, error):
    """A malformed element raises one error type on either path, where
    the oracle once raised `IndexError` or dropped a coordinate and the
    class-sum path answered for another level."""
    a = BElement(QQ, level, tuple(QQ(c) for c in coords))
    with pytest.raises(error):
        kappa_of_element(boolean3, a)
    with pytest.raises(error):
        kappa_kernel(boolean3, a)


def test_k_stats(boolean3):
    k, k_meeting, s = k_stats(boolean3, [V(2, 0)])
    assert (k, k_meeting, s) == (2, 1, 2)
    k, k_meeting, s = k_stats(boolean3, [V(3, 0)])
    assert (k, k_meeting, s) == (1, 1, 3)


def test_kappa_profile(boolean3):
    prof = kappa_profile(boolean3, 2)
    assert all(row["k"] == 2 and row["out_degree"] == 2 for row in prof)


def test_quadratic_duality(boolean3, boolean4, subspace23):
    for g in (boolean3, boolean4, subspace23):
        for n in range(2, g.top_level + 1):
            assert quadratic_dual_check(g, n)
            rb = relation_space(g, n)
            rgr = gr_quadratic_space(g, n)
            assert rb.dim + rgr.dim == g.levels[n] * g.levels[n - 1]


def test_quadratic_duality_needs_uniform(nonuniform_graph, nested_graph):
    with pytest.raises(NotUniform):
        quadratic_dual_check(nonuniform_graph, 2)
    # the guard is a convention: the pairing itself holds here too
    for g in (nonuniform_graph, nested_graph):
        for n in range(2, g.top_level + 1):
            assert _dense_pairing_holds(g, n, QQ)


def test_quadratic_dual_check_rejects_levels_outside_the_graph(boolean3):
    assert all(quadratic_dual_check(boolean3, n) for n in range(1, 4))
    for n in (-1, 0, 4, 99):
        with pytest.raises(LevelMismatch):
            quadratic_dual_check(boolean3, n)


def _dense_pairing_holds(g, n, field):
    """Reference: both degree-2 spaces built densely in V_n (x) V_{n-1},
    their dimensions complementary and every two rows pairing to zero."""
    rb = relation_space(g, n, field)
    rgr = gr_quadratic_space(g, n, field)
    if rb.dim + rgr.dim != g.levels[n] * g.levels[n - 1]:
        return False
    return all(field.dot(x, y) == 0 for x in rb.basis for y in rgr.basis)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), fields)
def test_dense_pairing_holds_on_every_graph(seed, field):
    """The per-block argument of `quadratic_dual_check`: the duality
    holds at every level of every graph, uniform or not."""
    g = _draw(seed)
    for n in range(2, g.top_level + 1):
        assert _dense_pairing_holds(g, n, field)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_koszul_defect_vanishes_through_degree_two(seed):
    """The same degree-2 duality in numbers, on the same draws."""
    assert koszul_defect(_draw(seed), 2) == ()


def test_koszul_defect_on_lattices_and_uniform_graphs(nonuniform_graph):
    graphs = [build_boolean(n) for n in range(3, 7)]
    graphs += [build_subspace_lattice(q, n) for q, n in [(2, 3), (3, 3), (2, 4)]]
    rng = random.Random(5)
    graphs += [random_uniform_graph(rng, max_levels=4, max_width=4) for _ in range(20)]
    for g in graphs:
        assert koszul_defect(g, 3) == ()
    # the top vertex covers c and d, whose successor sets are disjoint
    assert koszul_defect(nonuniform_graph, 3) == ((3, 6, 1),)


def test_iso_condition_identity_and_scalars(boolean3):
    assert iso_condition_check(boolean3, boolean3, {})
    scaled = {
        1: [[3, 0, 0], [0, 3, 0], [0, 0, 3]],
        2: [[7, 0, 0], [0, 7, 0], [0, 0, 7]],
    }
    assert iso_condition_check(boolean3, boolean3, scaled)


def test_iso_condition_automorphism(boolean3):
    # swapping ground elements 1 and 2 swaps {1,3} with {2,3}
    perm1 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    perm2 = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert iso_condition_check(boolean3, boolean3, {1: perm1, 2: perm2})


def test_iso_condition_rejects_mismatched_maps(boolean3):
    # permuting level 1 without the matching level-2 permutation moves
    # kappa subspaces off their targets
    perm1 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert not iso_condition_check(boolean3, boolean3, {1: perm1})
    with pytest.raises(DimensionMismatch):
        iso_condition_check(boolean3, boolean3, {1: [[1, 0, 0], [1, 0, 0], [0, 0, 1]]})


def test_retargeted_graphs_share_relation_spaces(retarget_pair):
    # an out-degree-1 vertex kills the whole level below, so moving its
    # target cannot change any degree-2 relation space
    g1, g2 = retarget_pair
    for n in range(1, 3):
        assert relation_space(g1, n) == relation_space(g2, n)
    assert b_dimension(g1, 2, 3) == b_dimension(g2, 2, 3)


def test_hilbert_table_matches_dimensions(boolean3):
    table = b_hilbert_table(boolean3, 3, 6)
    for (m, n), dim in table.as_dict().items():
        assert dim == b_dimension(boolean3, m, n)
    assert table.as_dict()[(1, 1)] == 3
    assert table.as_dict()[(2, 3)] == 3
    assert table.render().startswith("m\\n")


def test_hilbert_table_visits_only_bidegrees_with_paths(
    boolean3, subspace23, nonuniform_graph, monkeypatch
):
    """An m-vertex path starts at some level s, m <= s <= top, and has
    weight ms - m(m-1)/2, so the table computes at most top(top+1)/2
    components whatever its bounds, and skips only empty bidegrees."""
    graphs = [boolean3, subspace23, nonuniform_graph]
    graphs += [
        random_layered_graph(random.Random(seed), max_levels=5, max_width=4, unique_minimal=False)
        for seed in range(10)
    ]
    every = [
        {(m, n): d for m in range(1, 5) for n in range(1, 13) if (d := b_dimension(g, m, n))}
        for g in graphs
    ]
    calls = []

    def counted(g, m, n, field):
        calls.append((m, n))
        return component(g, m, n, field)

    monkeypatch.setattr(balgebra, "component", counted)
    for g, dims in zip(graphs, every):
        assert b_hilbert_table(g, 4, 12).as_dict() == dims
    calls.clear()
    b_hilbert_table(boolean3, 50, 50)
    assert len(calls) <= 3 * 4 // 2


def _dense_word_dimension(g, m, n, field):
    """Reference algorithm: pad every degree-2 relation row with every
    left and right word of the bidegree, over all level-descending
    words, and reduce the lot with one dense rref."""
    twice = 2 * n + m * (m - 1)
    if twice % (2 * m) != 0:
        return 0
    s = twice // (2 * m)
    if s - m + 1 < 1 or s > g.top_level:
        return 0
    levels = [g.level_vertices(s - i) for i in range(m)]
    words = list(itertools.product(*levels))
    index = {w: i for i, w in enumerate(words)}
    gens = []
    for pos in range(m - 1):
        lvl = s - pos
        width = g.levels[lvl - 1]
        rows = relation_space(g, lvl, field).basis
        for lword in itertools.product(*levels[:pos]):
            for rword in itertools.product(*levels[pos + 2 :]):
                for row in rows:
                    vec = [field.zero] * len(words)
                    for flat, c in enumerate(row):
                        if c:
                            pair = (V(lvl, flat // width), V(lvl - 1, flat % width))
                            vec[index[lword + pair + rword]] = c
                    gens.append(vec)
    return len(words) - span(gens, len(words), field).dim


def _assert_paths_match_dense_words(g, field):
    for m in range(1, 5):
        for n in range(m, m * g.top_level + 1):
            assert b_dimension(g, m, n, field) == _dense_word_dimension(g, m, n, field)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), fields)
def test_path_basis_matches_the_dense_word_reference(seed, field):
    """On graphs that need not be uniform, where some vertices lose all
    their out-edges, the path basis gives the dense-word dimension."""
    rng = random.Random(seed)
    g = random_layered_graph(rng, max_levels=5, max_width=3)
    bare = {v for v in g.positive_vertices() if rng.random() < 0.25}
    g = build_graph(g.levels, [(t, h) for t, h in g.edges if t not in bare])
    _assert_paths_match_dense_words(g, field)


def test_path_basis_on_nonuniform_and_nested_graphs(nonuniform_graph, nested_graph):
    for g in (nonuniform_graph, nested_graph):
        for field in (QQ, F2, F3):
            _assert_paths_match_dense_words(g, field)


def test_component_budget_counts_paths(monkeypatch, boolean3):
    # Boolean 3 at (3,6): 1 * 3 * 2 = 6 paths from the top vertex
    monkeypatch.setenv("LAGA_BUDGET", "5")
    with pytest.raises(BudgetExceeded, match=r"6 paths of bidegree \(3,6\) exceed budget 5"):
        component(boolean3, 3, 6)
    monkeypatch.setenv("LAGA_BUDGET", "6")
    assert len(component(boolean3, 3, 6).basis_words) == 6


@pytest.mark.parametrize(
    "dimension", [b_dimension, gr_dimension], ids=["B", "grA"]
)
def test_boundary_bidegrees(dimension):
    """(0, 0) holds the empty word; every other bidegree with m <= 0 or
    n < 0 is empty."""
    g = build_boolean(3)
    assert dimension(g, 0, 0) == 1
    for m, n in [(0, 1), (0, 5), (0, -1), (-1, 0), (-1, 3), (-2, -2), (1, -1), (2, -3)]:
        assert dimension(g, m, n) == 0

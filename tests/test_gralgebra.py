import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laga import (
    QQ,
    BudgetExceeded,
    DimensionMismatch,
    FreeElement,
    KOutOfRange,
    V,
    build_boolean,
    build_complete_layered,
    build_graph,
    build_subspace_lattice,
    distinguished_path,
    e_tilde,
    enumerate_B_basis,
    gr_dimension,
    gr_hilbert_table,
    in_relation_span,
    is_quadratic_to_degree,
    leading_part,
    monomial_m,
    normalize,
    pair_weight,
    random_layered_graph,
    random_uniform_graph,
    sequence_monomial,
    skeleton,
    to_pair_sequence,
    word_weight,
    words_of_bidegree,
)
from laga.gralgebra import _generator_word_pairs, _word_count


def test_distinguished_path_follows_least_successor(boolean3):
    # {1,2,3} -> {1,2} -> {1} -> {}
    assert distinguished_path(boolean3, V(3, 0)) == (V(3, 0), V(2, 0), V(1, 0), V(0, 0))
    assert distinguished_path(boolean3, V(2, 2)) == (V(2, 2), V(1, 1), V(0, 0))


def test_monomial_m(boolean3):
    m = monomial_m(boolean3, V(3, 0), 2)
    assert m == FreeElement.word((V(3, 0), V(2, 0)))
    with pytest.raises(KOutOfRange):
        monomial_m(boolean3, V(2, 0), 3)


def test_e_tilde_degree_two_vertex(boolean3):
    # for |v| = 2 the expansion is (t - (v-w))(t - w) = t^2 - vt + vw,
    # so the length-1 coefficient is -v
    v, w = V(2, 0), V(1, 0)
    assert e_tilde(boolean3, v, 1) == FreeElement({(v,): QQ(-1)})
    assert e_tilde(boolean3, v, 0) == FreeElement.scalar(1)
    assert e_tilde(boolean3, v, 2) == FreeElement({(v, w): QQ(1), (w, w): QQ(-1)})


def test_e_tilde_leading_term_is_run_monomial(boolean3):
    for v in boolean3.positive_vertices():
        for k in range(v.level + 1):
            lead = leading_part(e_tilde(boolean3, v, k))
            target = monomial_m(boolean3, v, k)
            (word, coeff), = lead.terms.items()
            assert word == next(iter(target.terms))
            assert coeff in (QQ(1), QQ(-1))


def test_skeleton_and_pair_sequence(boolean3):
    # (3,0)(2,0)(1,0) is one full distinguished run
    word = (V(3, 0), V(2, 0), V(1, 0))
    assert skeleton(boolean3, word) == (1, 4)
    assert to_pair_sequence(boolean3, word) == ((V(3, 0), 3),)
    # (3,0)(2,1) breaks the run: {1,3} is not the least successor
    word = (V(3, 0), V(2, 1))
    assert skeleton(boolean3, word) == (1, 2, 3)
    assert to_pair_sequence(boolean3, word) == ((V(3, 0), 1), (V(2, 1), 1))


def test_pair_weight():
    assert pair_weight((V(3, 0), 3)) == 3 + 2 + 1
    assert pair_weight((V(3, 0), 1)) == 3
    assert pair_weight((V(2, 1), 2)) == 2 + 1


def test_sequence_monomial_round_trip(boolean3):
    for m in range(1, 4):
        for n in range(1, 9):
            for pairs in enumerate_B_basis(boolean3, m, n):
                word = sequence_monomial(boolean3, pairs)
                assert to_pair_sequence(boolean3, word) == pairs
                assert len(word) == m and word_weight(word) == n


def test_normalize_fixes_basis_words(boolean3):
    for pairs in enumerate_B_basis(boolean3, 3, 6):
        word = sequence_monomial(boolean3, pairs)
        assert normalize(boolean3, word) == word


def test_normalize_rewrites_covering_step(boolean3):
    # {1,2,3} followed by its non-distinguished successor {1,3} is a
    # covering pair and rewrites to the distinguished run
    word = (V(3, 0), V(2, 1))
    assert to_pair_sequence(boolean3, word) == ((V(3, 0), 1), (V(2, 1), 1))
    result = normalize(boolean3, word)
    assert result == (V(3, 0), V(2, 0))
    assert to_pair_sequence(boolean3, result) == ((V(3, 0), 2),)
    # a word two levels apart is not a covering pair and stays put
    assert normalize(boolean3, (V(3, 0), V(1, 0))) == (V(3, 0), V(1, 0))


def test_normalize_preserves_quotient_class(boolean3):
    word = (V(3, 0), V(2, 1))
    result = normalize(boolean3, word)
    diff = FreeElement.word(word) - FreeElement.word(result)
    assert in_relation_span(boolean3, diff, 2, 5)


def test_in_relation_span_rejects_foreign_words(boolean3):
    """A word of another bidegree, or with a letter outside the graph,
    fails fast instead of counting as a class of its own."""
    inside = FreeElement.word((V(3, 0), V(2, 1)))
    for word in ((V(3, 0), V(1, 1)), (V(3, 0), V(2, 7)), (V(3, 0), V(2, 1), V(0, 0))):
        el = inside - FreeElement.word(word)
        with pytest.raises(DimensionMismatch, match=r"is not a word of bidegree \(2,5\)"):
            in_relation_span(boolean3, el, 2, 5)


def test_pair_sequences_count_equals_quotient_dimension(boolean3):
    for m in range(1, 4):
        for n in range(1, 9):
            assert len(enumerate_B_basis(boolean3, m, n)) == gr_dimension(
                boolean3, m, n
            )


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_pair_sequences_count_random_uniform(seed):
    g = random_uniform_graph(random.Random(seed), max_levels=3, max_width=4)
    for m in range(1, 4):
        for n in range(1, 7):
            assert len(enumerate_B_basis(g, m, n)) == gr_dimension(g, m, n)


def test_words_of_bidegree(boolean3):
    assert len(words_of_bidegree(boolean3, 2, 3)) == 2 * 3 * 3
    assert words_of_bidegree(boolean3, 2, 1) == []


def test_words_of_negative_length_agree_with_the_count(boolean3):
    for n in (-1, 0, 1, 3):
        assert words_of_bidegree(boolean3, -1, n) == []
        assert _word_count(boolean3, -1, n) == 0


def test_free_element_repr_renders_the_empty_word_as_its_coefficient():
    assert repr(FreeElement.scalar(2)) == "2"
    assert repr(FreeElement.scalar(1) + FreeElement.word((V(1, 0),))) == "1 + 1(1,0)"
    assert repr(FreeElement.word((V(2, 0), V(1, 0)))) == "1(2,0)*(1,0)"


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_words_of_bidegree_is_the_filtered_product(seed):
    g = random_uniform_graph(random.Random(seed), max_levels=3, max_width=4)
    verts = g.positive_vertices()
    for m in range(0, 4):
        for n in range(0, 8):
            expected = [
                w for w in itertools.product(verts, repeat=m) if word_weight(w) == n
            ]
            assert words_of_bidegree(g, m, n) == expected


def test_pair_sequences_in_canonical_order(boolean3):
    for m in range(1, 4):
        for n in range(1, 9):
            seqs = enumerate_B_basis(boolean3, m, n)
            assert seqs == sorted(set(seqs))


def test_words_of_bidegree_respects_budget(monkeypatch, boolean3):
    monkeypatch.setenv("LAGA_BUDGET", "17")
    with pytest.raises(BudgetExceeded, match=r"bidegree \(2,3\) word count"):
        words_of_bidegree(boolean3, 2, 3)
    monkeypatch.setenv("LAGA_BUDGET", "18")
    assert len(words_of_bidegree(boolean3, 2, 3)) == 18


def test_pair_sequences_respect_budget(monkeypatch, boolean3):
    monkeypatch.setenv("LAGA_BUDGET", "63")
    with pytest.raises(BudgetExceeded, match=r"bidegree \(3,6\) pair sequence count"):
        enumerate_B_basis(boolean3, 3, 6)
    monkeypatch.setenv("LAGA_BUDGET", "64")
    assert len(enumerate_B_basis(boolean3, 3, 6)) == 64


def _dense_class_count(g, m, n, max_gen_len):
    """Brute-force oracle of the word classes: a list union-find over
    every word of the bidegree, merging each word with every rewrite of
    one of its factors along a generator of length <= max_gen_len."""
    words = words_of_bidegree(g, m, n)
    index = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for gen_len in range(2, min(max_gen_len, m) + 1):
        rewrites = {}
        for base, other in _generator_word_pairs(g, gen_len):
            rewrites.setdefault(base, []).append(other)
        for w in words:
            for i in range(m - gen_len + 1):
                for other in rewrites.get(w[i : i + gen_len], ()):
                    j = index[w[:i] + other + w[i + gen_len :]]
                    parent[find(index[w])] = find(j)
    return sum(find(i) == i for i in range(len(words)))


def _check_word_classes(g):
    first_failure = None
    for m in range(0, 5):
        for n in range(0, m * g.top_level + 2):
            assert _word_count(g, m, n) == len(words_of_bidegree(g, m, n))
            full = _dense_class_count(g, m, n, m)
            assert gr_dimension(g, m, n) == full
            if m >= 3 and first_failure is None and _dense_class_count(g, m, n, 2) != full:
                first_failure = (m, n)
    expected = (True, None) if first_failure is None else (False, first_failure)
    assert is_quadratic_to_degree(g, 4) == expected


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_word_classes_match_the_dense_oracle(seed):
    _check_word_classes(
        random_uniform_graph(random.Random(seed), max_levels=3, max_width=4)
    )


def test_word_classes_match_the_dense_oracle_on_fixed_graphs(boolean4, nonuniform_graph):
    for g in (boolean4, nonuniform_graph):
        _check_word_classes(g)


def _two_level_witness():
    """Vertices failing at length 3 on two levels: (3,0) covers (2,0)
    and (2,1), whose positive successors are disjoint, and so does (4,0)
    with (3,1) and (3,2) above (2,2) and (2,3)."""
    return build_graph(
        [1, 2, 4, 3, 1],
        [
            ((1, 0), (0, 0)),
            ((1, 1), (0, 0)),
            ((2, 0), (1, 0)),
            ((2, 1), (1, 1)),
            ((2, 2), (1, 0)),
            ((2, 3), (1, 1)),
            ((3, 0), (2, 0)),
            ((3, 0), (2, 1)),
            ((3, 1), (2, 2)),
            ((3, 2), (2, 3)),
            ((4, 0), (3, 1)),
            ((4, 0), (3, 2)),
        ],
        unique_minimal=True,
    )


@pytest.mark.parametrize(
    "make, where",
    [
        (lambda: random_layered_graph(random.Random(105), max_levels=4, max_width=3), (3, 6)),
        (lambda: random_layered_graph(random.Random(243), max_levels=4, max_width=3), (3, 6)),
        # the level-3 failure at weight 6 comes before the level-4 one at 9
        (_two_level_witness, (3, 6)),
        (
            lambda: random_layered_graph(
                random.Random(290), max_levels=4, max_width=3, unique_minimal=False
            ),
            (3, 6),
        ),
    ],
    ids=["random105", "random243", "two_levels", "no_unique_minimal"],
)
def test_first_quadraticity_failure_matches_the_dense_oracle(make, where):
    g = make()
    assert is_quadratic_to_degree(g, 4) == (False, where)
    _check_word_classes(g)


def test_quadratic_at_the_scale_rungs():
    assert is_quadratic_to_degree(build_boolean(6), 4) == (True, None)
    assert is_quadratic_to_degree(build_subspace_lattice(2, 4), 4) == (True, None)


def test_word_classes_respect_budget(monkeypatch, boolean3):
    """The classes count the words of a bidegree without building them,
    and the count is held to LAGA_BUDGET; so is the number of words the
    quadraticity check's rewrite search reaches."""
    count = _word_count(boolean3, 3, 6)
    assert count == len(words_of_bidegree(boolean3, 3, 6)) == 81
    monkeypatch.setenv("LAGA_BUDGET", str(count - 1))
    with pytest.raises(BudgetExceeded, match=r"bidegree \(3,6\) word count"):
        gr_dimension(boolean3, 3, 6)
    monkeypatch.setenv("LAGA_BUDGET", str(count))
    assert gr_dimension(boolean3, 3, 6) == len(enumerate_B_basis(boolean3, 3, 6))
    # at d = 3 only the top vertex has 3-vertex paths, and degree-2
    # rewrites of its first path reach all 3 * 3 words (top, a, b) of
    # bidegree (3,6)
    monkeypatch.setenv("LAGA_BUDGET", "8")
    with pytest.raises(BudgetExceeded, match=r"bidegree \(3,6\) rewrite search"):
        is_quadratic_to_degree(boolean3, 3)
    monkeypatch.setenv("LAGA_BUDGET", "9")
    assert is_quadratic_to_degree(boolean3, 3) == (True, None)


def test_word_classes_build_only_the_pads(monkeypatch, boolean3):
    """The dimension count enumerates only the shorter pads around a
    generator, never the words of the bidegree itself; the quadraticity
    check walks degree-2 rewrites from the unpadded generators and
    enumerates no words at all."""
    lengths = []

    def spy(g, m, n):
        lengths.append(m)
        return words_of_bidegree(g, m, n)

    monkeypatch.setattr("laga.gralgebra.words_of_bidegree", spy)
    gr_dimension(boolean3, 4, 8)
    assert lengths and max(lengths) <= 2
    lengths.clear()
    is_quadratic_to_degree(boolean3, 4)
    assert lengths == []


def test_word_enumeration_leaves_no_reference_cycles(boolean3):
    """Words die when the caller drops them, not when the cyclic
    collector next runs, so peak memory does not depend on its timing."""
    gc.collect()
    gc.disable()
    try:
        words_of_bidegree(boolean3, 3, 6)
        enumerate_B_basis(boolean3, 3, 6)
        is_quadratic_to_degree(boolean3, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_quadratic_for_uniform_graphs(boolean3, subspace23):
    assert is_quadratic_to_degree(boolean3, 4) == (True, None)
    assert is_quadratic_to_degree(build_complete_layered([1, 2, 2, 2]), 4) == (
        True,
        None,
    )


def test_not_quadratic_for_nonuniform_witness(nonuniform_graph):
    ok, where = is_quadratic_to_degree(nonuniform_graph, 4)
    assert not ok
    assert where is not None and where[0] >= 3


def test_hilbert_table_render(boolean3):
    table = gr_hilbert_table(boolean3, 2, 4)
    assert table.as_dict()[(1, 1)] == 3
    text = table.render()
    assert text.splitlines()[0].startswith("m\\n")
    assert len(text.splitlines()) == 3

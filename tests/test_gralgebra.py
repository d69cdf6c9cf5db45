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
    random_uniform_graph,
    sequence_monomial,
    skeleton,
    to_pair_sequence,
    word_weight,
    words_of_bidegree,
)
from laga.gralgebra import _generator_word_pairs, _quadratic_in, _word_count


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
    for m in range(0, 5):
        for n in range(0, m * g.top_level + 2):
            assert _word_count(g, m, n) == len(words_of_bidegree(g, m, n))
            full = _dense_class_count(g, m, n, m)
            assert gr_dimension(g, m, n) == full
            if m >= 3:
                assert _quadratic_in(g, m, n) == (
                    _dense_class_count(g, m, n, 2) == full
                )


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_word_classes_match_the_dense_oracle(seed):
    _check_word_classes(
        random_uniform_graph(random.Random(seed), max_levels=3, max_width=4)
    )


def test_word_classes_match_the_dense_oracle_on_fixed_graphs(boolean4, nonuniform_graph):
    for g in (boolean4, nonuniform_graph):
        _check_word_classes(g)


def test_word_classes_respect_budget(monkeypatch, boolean3):
    """The classes count the words of a bidegree without building them,
    and the count is held to LAGA_BUDGET."""
    count = _word_count(boolean3, 3, 6)
    assert count == len(words_of_bidegree(boolean3, 3, 6)) == 81
    # is_quadratic_to_degree(g, 3) meets its largest bidegree at (3,5)
    quad_count = _word_count(boolean3, 3, 5)
    assert quad_count == max(_word_count(boolean3, 3, n) for n in range(3, 10)) == 108
    monkeypatch.setenv("LAGA_BUDGET", str(count - 1))
    with pytest.raises(BudgetExceeded, match=r"bidegree \(3,6\) word count"):
        gr_dimension(boolean3, 3, 6)
    monkeypatch.setenv("LAGA_BUDGET", str(count))
    assert gr_dimension(boolean3, 3, 6) == len(enumerate_B_basis(boolean3, 3, 6))
    monkeypatch.setenv("LAGA_BUDGET", str(quad_count - 1))
    with pytest.raises(BudgetExceeded, match=r"bidegree \(3,5\) word count"):
        is_quadratic_to_degree(boolean3, 3)
    monkeypatch.setenv("LAGA_BUDGET", str(quad_count))
    assert is_quadratic_to_degree(boolean3, 3) == (True, None)


def test_word_classes_build_only_the_pads(monkeypatch, boolean3):
    """Neither the dimension nor the quadraticity check enumerates the
    words of the bidegree itself, only the shorter pads around a
    generator."""
    lengths = []

    def spy(g, m, n):
        lengths.append(m)
        return words_of_bidegree(g, m, n)

    monkeypatch.setattr("laga.gralgebra.words_of_bidegree", spy)
    gr_dimension(boolean3, 4, 8)
    is_quadratic_to_degree(boolean3, 4)
    assert lengths and max(lengths) <= 2


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

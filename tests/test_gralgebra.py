import gc
import hashlib
import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laga import (
    QQ,
    BudgetExceeded,
    DimensionMismatch,
    EmptySuccessor,
    FreeElement,
    KOutOfRange,
    MultipleMinimal,
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
from laga.gralgebra import _degree2_connects, _vertex_paths_from, covers_pair


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
    """Basis sequences round-trip through their words and are fixed by
    `normalize`, also without a unique minimal vertex and above a
    childless vertex: a run walks only its own vertices."""
    no_minimal = random_layered_graph(
        random.Random(290), max_levels=4, max_width=3, unique_minimal=False
    )
    unwritable = []
    for g in (boolean3, no_minimal, _childless_middle()):
        for m in range(1, 4):
            for n in range(1, m * g.top_level + 1):
                for pairs in enumerate_B_basis(g, m, n):
                    try:
                        word = sequence_monomial(g, pairs)
                    except EmptySuccessor:
                        unwritable.append(pairs)
                        continue
                    assert to_pair_sequence(g, word) == pairs
                    assert len(word) == m and word_weight(word) == n
                    assert normalize(g, word) == word
    # its run must go through V(2,0), which has no successors
    assert unwritable == [((V(3, 0), 3),)]
    # the whole distinguished path still needs the unique minimal vertex
    with pytest.raises(MultipleMinimal):
        distinguished_path(no_minimal, no_minimal.level_vertices(1)[0])


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
    with pytest.raises(BudgetExceeded, match=r"18 words of bidegree \(2,3\) exceed budget 17"):
        words_of_bidegree(boolean3, 2, 3)
    monkeypatch.setenv("LAGA_BUDGET", "18")
    assert len(words_of_bidegree(boolean3, 2, 3)) == 18


def test_pair_sequences_respect_budget(monkeypatch, boolean3):
    monkeypatch.setenv("LAGA_BUDGET", "63")
    match = r"64 pair sequences for bidegree \(3,6\) exceed budget 63"
    with pytest.raises(BudgetExceeded, match=match):
        enumerate_B_basis(boolean3, 3, 6)
    monkeypatch.setenv("LAGA_BUDGET", "64")
    assert len(enumerate_B_basis(boolean3, 3, 6)) == 64


def _basis_by_stack_search(g, m, n):
    """Reference for `enumerate_B_basis`: the former stack search, which
    extends every prefix by each pair that fits and does not follow a
    pair covering it, pushed in reverse canonical order."""
    pairs = [
        (v, k)
        for v in g.positive_vertices()
        for k in range(1, min(v.level, max(m, 0)) + 1)
        if _vertex_paths_from(g, v, k)
    ]
    out = []
    stack = [((), 0, 0)]
    while stack:
        prefix, length, weight = stack.pop()
        if length == m and weight == n:
            out.append(prefix)
            continue
        if length >= m or weight >= n:
            continue
        stack.extend(
            (prefix + (p,), length + p[1], weight + pair_weight(p))
            for p in reversed(pairs)
            if length + p[1] <= m
            and weight + pair_weight(p) <= n
            and not (prefix and covers_pair(g, prefix[-1], p))
        )
    return out


def _reference_graphs():
    graphs = [build_boolean(k) for k in (3, 4, 5)]
    graphs += [build_subspace_lattice(2, 3), _childless_middle()]
    return graphs + [
        random_layered_graph(
            random.Random(seed), max_levels=5, max_width=4, unique_minimal=seed % 2 == 0
        )
        for seed in range(40)
    ]


def test_pair_sequences_are_the_stack_search():
    """The dynamic program lists the stack search's sequences in its
    order, edge bidegrees included, also without a unique minimal vertex
    and above a childless vertex."""
    for g in _reference_graphs():
        for m in range(-1, 4):
            for n in range(-1, 10):
                assert enumerate_B_basis(g, m, n) == _basis_by_stack_search(g, m, n)
    assert enumerate_B_basis(build_boolean(3), 0, 0) == [()]


def test_pair_sequences_budget_is_the_answer_size(monkeypatch):
    """Every list the dynamic program builds is held to LAGA_BUDGET, and
    none is longer than the answer: a shorter bidegree (m - k, n - w)
    reached by a pair (v, k) of weight w injects into (m, n), by
    inserting (v, k) before the first pair above v's level.  So the
    answer's size is the least budget that passes, and the error names
    the requested bidegree."""
    for g in (build_boolean(3), build_subspace_lattice(2, 3), _childless_middle()):
        for m in range(1, 4):
            for n in range(1, m * g.top_level + 1):
                monkeypatch.delenv("LAGA_BUDGET", raising=False)
                count = len(enumerate_B_basis(g, m, n))
                if not count:
                    continue
                monkeypatch.setenv("LAGA_BUDGET", str(count))
                assert len(enumerate_B_basis(g, m, n)) == count
                monkeypatch.setenv("LAGA_BUDGET", str(count - 1))
                match = rf"\d+ pair sequences for bidegree \({m},{n}\) exceed budget {count - 1}"
                with pytest.raises(BudgetExceeded, match=match):
                    enumerate_B_basis(g, m, n)


def _generator_word_pairs(g, gen_len):
    """Each equal-start path-difference generator as a pair of words: a
    vertex's first positive path of gen_len vertices with each other."""
    pairs = []
    for v in g.positive_vertices():
        paths = [(v,)]
        for _ in range(gen_len - 1):
            paths = [p + (w,) for p in paths for w in g.succ(p[-1]) if w.level > 0]
        pairs.extend((paths[0], other) for other in paths[1:])
    return pairs


def _dense_classes(g, m, n, max_gen_len):
    """Brute-force oracle of the word classes: a list union-find over
    every word of the bidegree, merging each word with every rewrite of
    one of its factors along a generator of length <= max_gen_len.
    Returns each word's class root."""
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
    return {w: find(i) for i, w in enumerate(words)}


def _dense_class_count(g, m, n, max_gen_len):
    return len(set(_dense_classes(g, m, n, max_gen_len).values()))


def _check_word_classes(g):
    first_failure = None
    for m in range(0, 5):
        for n in range(0, m * g.top_level + 2):
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


def _degree2_connects_by_search(g, v, m):
    """Reference for the quadraticity closure: the former stack search,
    which walks every word that degree-2 rewrites reach from the first
    m-vertex path of v and asks whether the others are among them."""
    paths = _vertex_paths_from(g, v, m)
    if len(paths) < 2:
        return True
    seen = {paths[0]}
    stack = [paths[0]]
    while stack:
        word = stack.pop()
        for i in range(m - 1):
            options = g.succ(word[i])
            if word[i + 1] not in options:
                continue
            for w in options:
                nxt = word[: i + 1] + (w,) + word[i + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return seen.issuperset(paths)


def _drop_out_edges(g, rng):
    """g with every out-edge of about a quarter of its positive vertices
    removed, so that some vertices are childless."""
    childless = {v for v in g.positive_vertices() if rng.random() < 0.25}
    return build_graph(
        g.levels, [e for e in g.edges if e[0] not in childless], unique_minimal=g.unique_minimal
    )


@pytest.mark.parametrize("unique_minimal", [True, False])
@pytest.mark.parametrize("childless", [False, True])
def test_quadraticity_closure_is_the_rewrite_search(unique_minimal, childless):
    """The co-coverage closure gives the rewrite search's verdict for
    every vertex and path length, and so the same first failure, on
    random graphs of up to six levels."""
    verdicts = set()
    for seed in range(60):
        rng = random.Random(seed)
        g = random_layered_graph(rng, max_levels=6, max_width=4, unique_minimal=unique_minimal)
        if childless:
            g = _drop_out_edges(g, rng)
        first_failure = None
        for length in range(1, g.top_level + 1):
            for level in range(length, g.top_level + 1):
                for v in g.level_vertices(level):
                    joined = _degree2_connects_by_search(g, v, length)
                    assert _degree2_connects(g, v, length) == joined, (seed, v, length)
                    verdicts.add(joined)
                    if not joined and length >= 3 and first_failure is None:
                        first_failure = (length, pair_weight((v, length)))
        expected = (True, None) if first_failure is None else (False, first_failure)
        assert is_quadratic_to_degree(g, g.top_level) == expected
    assert verdicts == {True, False}


def test_quadraticity_reads_no_budget(monkeypatch, boolean3):
    """The closure builds no path and no word, so it is not held to
    LAGA_BUDGET: even a budget of 0 lets it run."""
    monkeypatch.setenv("LAGA_BUDGET", "0")
    assert is_quadratic_to_degree(boolean3, 3) == (True, None)


def test_word_classes_build_only_the_pads(monkeypatch, boolean3):
    """The dimension count and the Hilbert table count pair sequences
    and enumerate no words; the quadraticity check walks degree-2
    rewrites from the unpadded generators and enumerates none either."""
    lengths = []

    def spy(g, m, n):
        lengths.append(m)
        return words_of_bidegree(g, m, n)

    monkeypatch.setattr("laga.gralgebra.words_of_bidegree", spy)
    assert gr_dimension(boolean3, 4, 8) == 315
    gr_hilbert_table(boolean3, 4, 12)
    is_quadratic_to_degree(boolean3, 4)
    assert lengths == []


@pytest.mark.parametrize(
    "make, max_m, max_n, digest",
    [
        (
            lambda: build_boolean(6),
            4,
            24,
            "b0140c514f00417fe73f63286e1ac5c59b8e626b4ea32db5da8642b722f67338",
        ),
        (
            lambda: build_subspace_lattice(2, 4),
            4,
            16,
            "60eba7314b1a70b03b0bbfce5edc6da329722dbf5b48f46ad32daf94fdb73a79",
        ),
    ],
    ids=["boolean6", "subspace24"],
)
def test_gr_hilbert_table_at_the_scale_rungs(make, max_m, max_n, digest):
    """The grA tables of the scale rungs at word length 4, pinned to the
    digests the former word union-find gave (4 s and 7 s there)."""
    g = make()
    start = time.perf_counter()
    table = gr_hilbert_table(g, max_m, max_n)
    assert time.perf_counter() - start < 2.0
    assert hashlib.sha256(repr(table.entries).encode()).hexdigest() == digest


def _childless_top():
    """V(2,1) has no successors, so it has no 2-vertex path, and (2,3)
    has dimension 4, not 5."""
    return build_graph([1, 1, 2], [((1, 0), (0, 0)), ((2, 0), (1, 0))], unique_minimal=True)


def _childless_middle():
    """V(2,0) has no successors, but V(3,0) reaches V(1,0) through V(2,1)."""
    return build_graph(
        [1, 1, 2, 1],
        [((1, 0), (0, 0)), ((2, 1), (1, 0)), ((3, 0), (2, 0)), ((3, 0), (2, 1))],
        unique_minimal=True,
    )


@pytest.mark.parametrize("make", [_childless_top, _childless_middle])
def test_pair_sequences_skip_pairs_without_a_path(make):
    """A pair (v, k) counts only when v has a positive path of k
    vertices; a childless vertex at level 2 has none of length 2."""
    g = make()
    for m in range(0, 5):
        for n in range(0, m * g.top_level + 2):
            count = len(enumerate_B_basis(g, m, n))
            assert count == gr_dimension(g, m, n) == _dense_class_count(g, m, n, m)


def test_normalize_names_a_run_that_cannot_grow():
    g = _childless_middle()
    # (3,0) first moves to its first successor (2,0), which has none
    with pytest.raises(EmptySuccessor, match=r"V\(level=2, index=0\) has no successors"):
        normalize(g, (V(3, 0), V(2, 1), V(1, 0)))


def _normalize_by_rewrites(g, word):
    """Reference for `normalize`: rewrite the first covering step of the
    pair sequence and start over.  Each rewrite lies right of the one
    before, so there are at most len(word) of them."""
    word = tuple(word)
    for _ in range(len(word) + 1):
        s = skeleton(g, word)
        pairs = to_pair_sequence(g, word)
        bad = next(
            (i for i in range(len(pairs) - 1) if covers_pair(g, pairs[i], pairs[i + 1])),
            None,
        )
        if bad is None:
            return word
        covered = s[bad + 1] - 1  # 0-based position of the covered vertex
        nxt = g.succ(word[covered - 1])
        if not nxt:
            raise EmptySuccessor(f"{word[covered - 1]} has no successors")
        word = word[:covered] + nxt[:1] + word[covered + 1 :]
    raise AssertionError("more rewrites than letters")


def test_normalize_is_the_rewrite_loop():
    """The one-pass `normalize` gives the rewrite loop's word, or its
    `EmptySuccessor` message, on every word of these bidegrees."""
    graphs = [build_boolean(3), build_subspace_lattice(2, 3), _childless_middle()]
    graphs += [
        random_layered_graph(
            random.Random(seed), max_levels=4, max_width=3, unique_minimal=seed % 2 == 0
        )
        for seed in range(20)
    ]
    rewritten = failed = 0
    for g in graphs:
        for m in range(1, 5):
            for n in range(1, m * g.top_level + 1):
                for word in words_of_bidegree(g, m, n):
                    try:
                        expected = _normalize_by_rewrites(g, word)
                    except EmptySuccessor as err:
                        failed += 1
                        with pytest.raises(EmptySuccessor, match=re.escape(str(err))):
                            normalize(g, word)
                        continue
                    assert normalize(g, word) == expected
                    rewritten += expected != word
    assert rewritten and failed


def test_normalize_needs_no_unique_minimal_vertex():
    g = random_layered_graph(random.Random(290), max_levels=4, max_width=3, unique_minimal=False)
    assert not g.unique_minimal
    for m in range(1, 4):
        for n in range(1, m * g.top_level + 1):
            forms = {normalize(g, w) for w in words_of_bidegree(g, m, n)}
            assert len(forms) == gr_dimension(g, m, n)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_relation_span_matches_the_dense_classes(seed, unique_minimal):
    """Two words differ by a relation exactly when the dense oracle puts
    them in one class: each word against its class's first word, and the
    first words of every two classes against each other."""
    g = random_layered_graph(
        random.Random(seed), max_levels=4, max_width=3, unique_minimal=unique_minimal
    )
    for m in range(1, 4):
        for n in range(1, m * g.top_level + 1):
            classes = _dense_classes(g, m, n, m)
            first = {}
            for w, root in classes.items():
                first.setdefault(root, w)
            for w, root in classes.items():
                diff = FreeElement.word(w) - FreeElement.word(first[root])
                assert in_relation_span(g, diff, m, n)
            for a, b in itertools.combinations(first.values(), 2):
                diff = FreeElement.word(a) - FreeElement.word(b)
                assert not in_relation_span(g, diff, m, n)


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

import functools
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laga import (
    BudgetExceeded,
    DimensionMismatch,
    EdgeLevelMismatch,
    EmptySuccessor,
    GF,
    LevelMismatch,
    MixedLevels,
    MultipleMinimal,
    UnsupportedField,
    V,
    VerificationFailed,
    are_isomorphic,
    build_boolean,
    build_complete_layered,
    build_graph,
    build_subspace_lattice,
    check_identities,
    class_partition,
    e_tilde,
    from_json,
    gaussian_binomial,
    gr_hilbert_table,
    is_atomic_lattice,
    is_non_nesting,
    is_uniform,
    k_stats,
    kappa_combinatorial,
    random_layered_graph,
    restrict,
    successors,
    to_dot,
    to_json,
    upper_part,
)
from laga.graphs import _pred_map, _rref_matrices, _succ_map
from laga.linalg import span


def test_boolean_level_sizes():
    for n in range(1, 6):
        g = build_boolean(n)
        assert g.levels == tuple(math.comb(n, i) for i in range(n + 1))
        for v in g.positive_vertices():
            assert g.out_degree(v) == v.level


def test_boolean_labels():
    g = build_boolean(3)
    assert g.label(V(0, 0)) == "{}"
    assert g.label(V(3, 0)) == "{1,2,3}"
    assert g.label(V(1, 0)) == "{1}"


def test_subspace_level_sizes_match_product_formula():
    for q, n in [(2, 2), (2, 3), (3, 3), (5, 2)]:
        g = build_subspace_lattice(q, n)
        assert g.levels == tuple(gaussian_binomial(n, k, q) for k in range(n + 1))


def test_subspace_plane_out_degree():
    g = build_subspace_lattice(2, 3)
    for v in g.level_vertices(2):
        assert g.out_degree(v) == 3  # each plane contains q + 1 lines


def _pairwise_subspace_lattice(q, n):
    """The subspace lattice built by testing every (k, k-1) pair of
    subspaces for containment: the oracle the cover build is held to."""
    fld = GF(q)
    by_level = [sorted(_rref_matrices(q, n, k)) for k in range(n + 1)]
    edges = []
    for k in range(1, n + 1):
        for j, upper in enumerate(by_level[k]):
            space = span(upper, n, fld)
            for j2, lower in enumerate(by_level[k - 1]):
                if all(space.contains_vector(row) for row in lower):
                    edges.append((V(k, j), V(k - 1, j2)))
    labels = {
        V(k, j): "/".join("".join(map(str, row)) for row in m) or "0"
        for k in range(n + 1)
        for j, m in enumerate(by_level[k])
    }
    return edges, labels


@pytest.mark.parametrize("q, n", [(2, 3), (3, 3), (2, 4), (3, 4), (5, 3), (7, 3), (2, 5)])
def test_subspace_covers_match_pairwise_containment(q, n):
    edges, labels = _pairwise_subspace_lattice(q, n)
    g = build_subspace_lattice(q, n)
    assert g.edges == frozenset(edges)
    assert dict(g.labels) == labels


def test_subspace_build_past_budget_enumerates_nothing(monkeypatch):
    # 2.1e8 edges for F_2^9: refused on the count, before any subspace is
    # listed
    monkeypatch.delenv("LAGA_BUDGET", raising=False)
    with pytest.raises(BudgetExceeded, match="edges of the subspace lattice of F_2\\^9"):
        build_subspace_lattice(2, 9)


def test_subspace_requires_prime_order():
    with pytest.raises(UnsupportedField):
        build_subspace_lattice(4, 2)


def test_build_graph_validation():
    with pytest.raises(EdgeLevelMismatch):
        build_graph([1, 2], [((1, 0), (1, 1))])
    with pytest.raises(EdgeLevelMismatch):
        build_graph([1, 2], [((1, 5), (0, 0))])
    with pytest.raises(MultipleMinimal):
        build_graph([2, 1], [((1, 0), (0, 0))], unique_minimal=True)
    with pytest.raises(EmptySuccessor):
        build_graph([1, 2], [((1, 0), (0, 0))], positive_outdegree=True)


def test_build_graph_rejects_labels_off_the_graph():
    # a label on a missing vertex was stored, and to_json wrote it back
    for v in (V(5, 0), V(1, 2), V(-1, 0)):
        with pytest.raises(DimensionMismatch, match="which the graph lacks"):
            build_graph([1, 2], [], labels={v: "x"})
    assert build_graph([1, 2], [], labels={V(1, 1): "x"}).label(V(1, 1)) == "x"


def test_succ_pred_reaches():
    g = build_boolean(3)
    top = V(3, 0)
    assert set(g.succ(top)) == set(g.level_vertices(2))
    assert g.pred(V(0, 0)) == tuple(g.level_vertices(1))
    assert g.reaches(top, V(0, 0))
    assert not g.reaches(V(1, 0), top)


def test_successors_mixed_levels_rejected():
    g = build_boolean(3)
    with pytest.raises(MixedLevels):
        successors(g, [V(1, 0), V(2, 0)])


def test_class_partition_single_vertex(boolean3):
    part = class_partition(boolean3, [V(2, 0)])
    # {1,2} co-covers {1} and {2}; {3} stays alone
    assert part.classes == ((V(1, 0), V(1, 1)), (V(1, 2),))
    assert part.k == 2 and part.k_meeting == 1


def test_class_partition_empty_set_needs_level(boolean3):
    with pytest.raises(MixedLevels, match="empty vertex set needs an explicit level"):
        class_partition(boolean3, [])
    # the callers that take no level say what to do instead
    advice = "empty vertex set: pass a nonempty set, or use kappa_of_element"
    for call in (kappa_combinatorial, k_stats):
        with pytest.raises(MixedLevels, match=advice):
            call(boolean3, [])
    part = class_partition(boolean3, [], level=2)
    assert part.k == 3  # all singletons


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_counting_identities_random(seed):
    rng = random.Random(seed)
    g = random_layered_graph(rng)
    n = rng.randint(1, g.top_level)
    verts = g.level_vertices(n)
    t = rng.sample(verts, rng.randint(0, len(verts)))
    check_identities(g, t, level=n)


def test_uniform_examples(boolean3, subspace23, nonuniform_graph):
    assert is_uniform(boolean3) == (True, None)
    assert is_uniform(subspace23) == (True, None)
    ok, witness = is_uniform(nonuniform_graph)
    assert not ok and witness[0] == V(3, 0)
    # computed once per graph and kept on it
    assert is_uniform(nonuniform_graph) is is_uniform(nonuniform_graph)


def _uniform_by_partitions(g):
    """Reference for `is_uniform`: the definition, one class partition
    per vertex with two or more successors, S(v) linked when exactly one
    class below meets S(S(v)); the witness groups S(v) by the class its
    members' first successor lies in."""
    for n in range(2, len(g.levels)):
        for v in g.level_vertices(n):
            sv = g.succ(v)
            if len(sv) <= 1:
                continue
            part = class_partition(g, sv)
            if part.k_meeting != 1:
                cls_of = {w: i for i, c in enumerate(part.classes) for w in c}
                groups = {}
                for u in sv:
                    key = cls_of[g.succ(u)[0]] if g.succ(u) else ("lone", u)
                    groups.setdefault(key, []).append(u)
                return False, (v, tuple(tuple(c) for c in groups.values()))
    return True, None


@pytest.mark.parametrize("unique_minimal", [True, False])
def test_uniform_closure_is_the_partition_definition(unique_minimal):
    """Verdict and witness of `is_uniform` equal the class-partition
    definition on random graphs, some with childless vertices."""
    verdicts = set()
    for seed in range(300):
        rng = random.Random(seed)
        g = random_layered_graph(rng, max_levels=5, max_width=5, unique_minimal=unique_minimal)
        if seed % 3 == 0:
            childless = {v for v in g.positive_vertices() if rng.random() < 0.2}
            g = build_graph(g.levels, [e for e in g.edges if e[0] not in childless])
        assert is_uniform(g) == _uniform_by_partitions(g), seed
        verdicts.add(is_uniform(g)[0])
    assert verdicts == {True, False}


def _down_up_connected(g, sv):
    """BFS on S(v) with x ~ x' when S(x) and S(x') intersect."""
    sv = list(sv)
    succ_sets = {x: set(g.succ(x)) for x in sv}
    seen = {sv[0]}
    frontier = [sv[0]]
    while frontier:
        x = frontier.pop()
        for y in sv:
            if y not in seen and succ_sets[x] & succ_sets[y]:
                seen.add(y)
                frontier.append(y)
    return len(seen) == len(sv)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_uniform_oracle_agreement(seed):
    # the verdict of is_uniform against down-up connectivity
    g = random_layered_graph(random.Random(seed))
    linked = all(
        _down_up_connected(g, g.succ(v))
        for v in g.vertices()
        if v.level >= 2 and len(g.succ(v)) > 1
    )
    assert is_uniform(g)[0] == linked


def test_non_nesting(boolean3, nested_graph):
    assert is_non_nesting(boolean3) == (True, None)
    ok, pair = is_non_nesting(nested_graph)
    assert not ok and pair == (V(2, 1), V(2, 0))


def test_atomic_lattice(boolean3, subspace23, nested_graph):
    assert is_atomic_lattice(boolean3)
    assert is_atomic_lattice(subspace23)
    assert not is_atomic_lattice(nested_graph)  # x and y have no unique join


def _atomic_lattice_by_definition(g):
    """Oracle for `is_atomic_lattice`: every pair has a unique join and
    meet, and every element is the join of the atoms below it."""
    verts = g.vertices()
    leq = {(a, b): g.reaches(b, a) for a in verts for b in verts}  # a <= b

    def join(a, b):
        ups = [z for z in verts if leq[(a, z)] and leq[(b, z)]]
        least = [z for z in ups if all(leq[(z, u)] for u in ups)]
        return least[0] if len(least) == 1 else None

    def meet(a, b):
        downs = [z for z in verts if leq[(z, a)] and leq[(z, b)]]
        greatest = [z for z in downs if all(leq[(d, z)] for d in downs)]
        return greatest[0] if len(greatest) == 1 else None

    for a, b in itertools.combinations(verts, 2):
        if join(a, b) is None or meet(a, b) is None:
            return False
    atoms = g.level_vertices(1)
    for v in verts:
        if v.level == 0:
            continue
        below = [a for a in atoms if leq[(a, v)]]
        if not below:
            return False
        j = below[0]
        for a in below[1:]:
            j = join(j, a)
            if j is None:
                return False
        if j != v:
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_atomic_lattice_matches_the_definition(seed):
    """The atom-set test agrees with the join/meet search on random
    graphs small enough that some are atomic lattices."""
    g = random_layered_graph(random.Random(seed), max_levels=4, max_width=3)
    assert is_atomic_lattice(g) == _atomic_lattice_by_definition(g)


def test_atomic_lattice_families_match_the_definition():
    graphs = [build_boolean(n) for n in range(1, 5)]
    graphs += [build_subspace_lattice(2, 3), build_complete_layered([1, 2, 1])]
    graphs += [build_complete_layered([1, 3, 3, 1]), build_complete_layered([1, 1, 1])]
    for g in graphs:
        assert is_atomic_lattice(g) == _atomic_lattice_by_definition(g)
    assert [is_atomic_lattice(g) for g in graphs[-3:]] == [True, False, False]


def test_restrict_and_upper_part(boolean4):
    low = restrict(boolean4, 2)
    assert low.levels == (1, 4, 6)
    up = upper_part(boolean4, 2)
    assert up.levels == (6, 4, 1)
    assert len(up.edges) == sum(1 for t, h in boolean4.edges if h.level >= 2)


def test_levels_and_vertices_outside_the_graph(boolean3):
    for n in (-1, 4, 9):
        with pytest.raises(LevelMismatch, match=f"level {n} outside 0..3"):
            boolean3.level_vertices(n)
        with pytest.raises(EdgeLevelMismatch, match=f"level {n} outside 0..3"):
            upper_part(boolean3, n)
        with pytest.raises(EdgeLevelMismatch, match=f"level {n} outside 0..3"):
            restrict(boolean3, n)
    for vertex_set in ([V(2, 99)], [V(2, -1)], [V(2, 0), V(2, 3)], [V(4, 0)]):
        with pytest.raises(LevelMismatch, match="not in the graph"):
            class_partition(boolean3, vertex_set)
    with pytest.raises(LevelMismatch, match="not in the graph"):
        class_partition(boolean3, [], level=4)
    assert upper_part(boolean3, 3).levels == (1,)
    assert restrict(boolean3, 0).levels == (1,)


def test_complete_layered():
    g = build_complete_layered([1, 2, 3])
    assert len(g.edges) == 2 + 6
    assert is_uniform(g)[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_json_round_trip(seed):
    g = random_layered_graph(random.Random(seed))
    assert from_json(to_json(g)) == g
    assert to_json(from_json(to_json(g))) == to_json(g)


def test_json_preserves_labels(boolean3):
    assert from_json(to_json(boolean3)) == boolean3
    assert from_json(to_json(boolean3)).label(V(1, 1)) == "{2}"


def test_dot_output(boolean3):
    dot = to_dot(boolean3)
    assert dot.startswith("digraph")
    assert dot.count("->") == len(boolean3.edges)
    assert "rank=same" in dot


@pytest.mark.parametrize(
    "g, digest",
    [
        (build_boolean(3), "73f67a26969cd56a03bb4d9b0065b17fb570034a99e7d0729ab062760a1c3509"),
        (
            build_subspace_lattice(2, 3),
            "f72604c375bdd5acca26b5512e218c2e6d7bbd48fbb3a9df7f3259cf19711130",
        ),
        (build_boolean(6), "6fd89ef600a2a918222b452e7ea3057c3d565ef17941e6224675966eb50c8d53"),
    ],
    ids=["boolean3", "subspace23", "boolean6"],
)
def test_label_reads_the_labels_and_dot_is_pinned(g, digest):
    # label reads a map built once per graph; the DOT text names each
    # vertex by its label, as it did when label rebuilt the map per call
    labels = dict(g.labels)
    assert len(labels) == len(g.vertices())
    assert all(g.label(v) == labels[v] for v in g.vertices())
    assert g.label(V(g.top_level + 1, 0)) is None
    assert build_graph([1, 2], []).label(V(1, 0)) is None
    assert hashlib.sha256(to_dot(g).encode()).hexdigest() == digest


def test_isomorphic_to_self_and_relabelings(boolean3):
    assert are_isomorphic(boolean3, boolean3) is not None
    # relabel level 1 by a rotation
    perm = {0: 1, 1: 2, 2: 0}
    edges = []
    for t, h in boolean3.edges:
        t2 = V(t.level, perm[t.index]) if t.level == 1 else t
        h2 = V(h.level, perm[h.index]) if h.level == 1 else h
        edges.append((t2, h2))
    g2 = build_graph(boolean3.levels, edges)
    mapping = are_isomorphic(boolean3, g2)
    assert mapping is not None
    assert mapping[V(1, 0)] == V(1, 1)


def test_isomorphism_respects_edges_randomized():
    # a seeded random relabelling of every level, not one rotation
    g = build_subspace_lattice(3, 3)
    rng = random.Random(9)
    perm = {n: rng.sample(range(d), d) for n, d in enumerate(g.levels)}

    def moved(v):
        return V(v.level, perm[v.level][v.index])

    g2 = build_graph(g.levels, [(moved(t), moved(h)) for t, h in g.edges])
    mapping = are_isomorphic(g, g2)
    assert mapping is not None
    assert {(mapping[t], mapping[h]) for t, h in g.edges} == set(g2.edges)


def _miscached_pair():
    """g1, and a g2 whose cached successor and predecessor maps are g1's:
    g2 holds one edge more than its maps, so the search, which reads the
    maps, finds a map that misses that edge."""
    edges = [((2, 0), (1, 0)), ((1, 0), (0, 0)), ((1, 1), (0, 0))]
    g1 = build_graph([1, 2, 1], edges)
    g2 = build_graph([1, 2, 1], edges + [((2, 0), (1, 1))])
    for cached in (_succ_map, _pred_map):
        g2._cache[cached.__wrapped__,] = cached(g1)
    return g1, g2


def test_isomorphism_certificate_is_checked():
    with pytest.raises(VerificationFailed, match="1 edges differ"):
        are_isomorphic(*_miscached_pair())


def test_isomorphism_certificate_is_checked_under_optimize():
    # python -O strips assert statements, and must not strip this check
    code = (
        "from test_graphs import _miscached_pair\n"
        "from laga import VerificationFailed, are_isomorphic\n"
        "try:\n"
        "    are_isomorphic(*_miscached_pair())\n"
        "except VerificationFailed:\n"
        "    print('refused')\n"
    )
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "refused\n"


def test_isomorphism_search_respects_budget(boolean4, monkeypatch):
    # Boolean 4 maps without backtracking: one node per vertex
    monkeypatch.setenv("LAGA_BUDGET", "15")
    with pytest.raises(BudgetExceeded, match="16 isomorphism search nodes exceed budget 15"):
        are_isomorphic(boolean4, boolean4)
    monkeypatch.setenv("LAGA_BUDGET", "16")
    assert are_isomorphic(boolean4, boolean4) is not None


@pytest.mark.parametrize(
    "build, count, what",
    [
        (lambda: build_boolean(4), 32, "edges of the Boolean lattice of rank 4"),
        (lambda: build_subspace_lattice(2, 3), 35, "edges of the subspace lattice"),
        (lambda: build_complete_layered([1, 3, 4]), 15, "edges of the complete graph"),
        # 3 * 3 * 3 * 2 products of the factors (x - y) and, last, x
        (
            functools.partial(e_tilde, build_complete_layered([1, 2, 2, 2, 2]), V(4, 0), 2),
            54,
            r"word products at \(4, 0\)",
        ),
        # (3 + 1) * (9 + 1) cells of the grA dimension counts
        (functools.partial(gr_hilbert_table, build_boolean(3), 3, 9), 40, "grA count cells"),
        (functools.partial(is_atomic_lattice, build_boolean(3)), 64, "vertex pairs"),
        # a JSON graph's level sizes come from outside the program
        (functools.partial(from_json, '{"levels": [1, 3, 3, 1], "edges": []}'), 8, "vertices"),
    ],
    ids=["boolean4", "subspace23", "complete134", "e_tilde", "grA_cells", "atomic", "json"],
)
def test_counts_respect_budget(build, count, what, monkeypatch):
    # each count is taken before what it counts is built
    monkeypatch.setenv("LAGA_BUDGET", str(count - 1))
    with pytest.raises(BudgetExceeded, match=f"{count} {what}.* exceed budget {count - 1}"):
        build()
    monkeypatch.setenv("LAGA_BUDGET", str(count))
    assert build()


def test_non_isomorphic_pair(retarget_pair):
    g1, g2 = retarget_pair
    assert are_isomorphic(g1, g2) is None


def test_non_isomorphic_same_profiles(monkeypatch):
    # same level sizes and out-degrees, but the level-0 in-degrees are
    # (1, 1) against (2, 0), so the profile check already tells them apart
    a = build_graph(
        [2, 2, 1],
        [((2, 0), (1, 0)), ((2, 0), (1, 1)), ((1, 0), (0, 0)), ((1, 1), (0, 1))],
    )
    b = build_graph(
        [2, 2, 1],
        [((2, 0), (1, 0)), ((2, 0), (1, 1)), ((1, 0), (0, 0)), ((1, 1), (0, 0))],
    )
    assert are_isomorphic(a, b) is None
    # an 8-cycle against two 4-cycles: every (out, in) profile is (0, 2)
    # on level 0 and (2, 0) on level 1, so only backtracking tells them apart
    eight = build_graph([4, 4], [((1, i), (0, (i + j) % 4)) for i in range(4) for j in (0, 1)])
    two_fours = build_graph(
        [4, 4], [((1, i), (0, j)) for i in range(4) for j in range(4) if i // 2 == j // 2]
    )
    for n, profile in ((0, (0, 2)), (1, (2, 0))):
        for g in (eight, two_fours):
            assert {(g.out_degree(v), len(g.pred(v))) for v in g.level_vertices(n)} == {profile}
    assert are_isomorphic(eight, two_fours) is None
    monkeypatch.setenv("LAGA_BUDGET", "8")
    with pytest.raises(BudgetExceeded, match="9 isomorphism search nodes exceed budget 8"):
        are_isomorphic(eight, two_fours)


def test_gaussian_binomial_values():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(3, 0, 5) == 1
    assert gaussian_binomial(2, 3, 5) == 0

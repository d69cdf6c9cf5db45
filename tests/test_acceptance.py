"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines;
each test fails loudly (with no PASS line) when its criterion is not met.
"""

import math
import random
import time

from laga import (
    GF,
    QQ,
    algebra_view,
    are_isomorphic,
    b_dimension,
    build_boolean,
    build_complete_layered,
    build_subspace_lattice,
    check_identities,
    class_partition,
    e_tilde,
    element,
    enumerate_B_basis,
    gr_dimension,
    gr_quadratic_space,
    intersection_size,
    is_quadratic_to_degree,
    kappa_kernel,
    kappa_of_element,
    koszul_defect,
    leading_part,
    monomial_m,
    outdegree_multiset,
    random_layered_graph,
    random_uniform_graph,
    reconstruct_boolean,
    reconstruct_subspace,
    relation_space,
    quadratic_dual_check,
    upper_vertex_like_basis,
    vertex_element,
    word_weight,
)
from laga.balgebra import BElement
from laga.reconstruct import _nonnesting_core

F3 = GF(3)


def _verdict(number: int, started: float, limit: float | None, text: str) -> None:
    elapsed = time.monotonic() - started
    if limit is not None:
        assert elapsed <= limit, f"criterion {number} took {elapsed:.1f}s > {limit}s"
    budget = f", limit {limit:.0f}s" if limit else ""
    print(f"[criterion {number:2d}] PASS ({elapsed:.1f}s{budget}) {text}")


def _check_kappa_everywhere(g, rng):
    for n in range(1, g.top_level + 1):
        verts = g.level_vertices(n)
        elements = [vertex_element(g, v) for v in verts]
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                elements.append(elements[i] + elements[j])
        for _ in range(50):
            coords = [rng.randint(0, 6) for _ in range(g.levels[n])]
            elements.append(element(g, n, coords))
        for a in elements:
            combinatorial = kappa_of_element(g, a)
            assert combinatorial == kappa_kernel(g, a)
            if a.support():
                assert combinatorial.dim == class_partition(g, a.support()).k


def test_criterion_1_kappa_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(1)
    graphs = [build_boolean(3), build_boolean(4), build_subspace_lattice(2, 3)]
    checked = 0
    while checked < 100:
        g = random_uniform_graph(
            random.Random(rng.randrange(10**6)), max_levels=4, max_width=6
        )
        _check_kappa_everywhere(g, rng)
        checked += 1
    for g in graphs:
        _check_kappa_everywhere(g, rng)
    _verdict(1, started, 60, "kernel oracle matches class sums on 103 graphs")


def test_criterion_2_counting_identities():
    started = time.monotonic()
    rng = random.Random(2)
    for _ in range(1000):
        g = random_layered_graph(rng)
        n = rng.randint(1, g.top_level)
        verts = g.level_vertices(n)
        t = rng.sample(verts, rng.randint(0, len(verts)))
        check_identities(g, t, level=n)
    _verdict(2, started, 10, "counting identities exact on 1000 random (graph, T)")


def test_criterion_3_boolean_quantities():
    started = time.monotonic()
    for n in (3, 4):
        g = build_boolean(n)
        view = algebra_view(g, F3)
        basis = upper_vertex_like_basis(view, 2)
        assert all(kap.dim == n - 1 for kap in basis.kappas)
        for w in g.level_vertices(1):
            non_covers = sum(
                1 for v in g.level_vertices(2) if w not in g.succ(v)
            )
            assert non_covers == math.comb(n - 1, 2)
        for i in range(2, n + 1):
            assert outdegree_multiset(view, i) == [i] * math.comb(n, i)
    _verdict(3, started, None, "Boolean kernel dims, non-cover counts, out-degrees")


def test_criterion_4_subspace_quantities():
    started = time.monotonic()
    g = build_subspace_lattice(2, 3)
    assert g.levels[1] == g.levels[2] == 7
    view = algebra_view(g, F3)
    assert outdegree_multiset(view, 2) == [3] * 7
    result = reconstruct_subspace(view, 2, 3)
    for w in result.level_vertices(1):
        # |A_p| non-covering planes per line
        assert result.levels[2] - len(result.pred(w)) == 4
    basis = upper_vertex_like_basis(view, 2)
    for i in range(7):
        for j in range(i + 1, 7):
            a = BElement(F3, 2, basis.vectors[i])
            b = BElement(F3, 2, basis.vectors[j])
            assert intersection_size(view, a, b) == 1
    _verdict(4, started, None, "subspace-lattice counts for q=2, n=3")


def test_criterion_5_certified_reconstruction():
    started = time.monotonic()
    targets = [
        ("boolean 3", build_boolean(3), lambda v: reconstruct_boolean(v, 3)),
        ("boolean 4", build_boolean(4), lambda v: reconstruct_boolean(v, 4)),
        ("subspace 2 3", build_subspace_lattice(2, 3), lambda v: reconstruct_subspace(v, 2, 3)),
    ]
    for name, g, recover in targets:
        for seed in range(1, 11):
            t0 = time.monotonic()
            view = algebra_view(g, F3, scramble_seed=seed)
            result = recover(view)
            assert are_isomorphic(result, g) is not None
            assert time.monotonic() - t0 <= 120, f"{name} seed {seed} too slow"
    _verdict(5, started, None, "30 scrambled views recovered and certified")


def test_criterion_6_quadraticity_detector():
    started = time.monotonic()
    for g in (
        build_boolean(3),
        build_complete_layered([1, 2, 2, 2]),
        build_subspace_lattice(2, 3),
    ):
        assert is_quadratic_to_degree(g, 4) == (True, None)
    bad = random_layered_graph(random.Random(0))
    # a concrete non-uniform witness: top splits into disjoint branches
    from laga import build_graph

    witness = build_graph(
        [1, 2, 2, 1],
        [
            ((3, 0), (2, 0)),
            ((3, 0), (2, 1)),
            ((2, 0), (1, 0)),
            ((2, 1), (1, 1)),
            ((1, 0), (0, 0)),
            ((1, 1), (0, 0)),
        ],
    )
    ok, where = is_quadratic_to_degree(witness, 4)
    assert not ok and where is not None
    _verdict(6, started, None, f"quadraticity verdicts exact (witness at {where})")


def test_criterion_7_graded_basis_consistency():
    started = time.monotonic()
    graphs = [build_boolean(3)]
    for seed in (11, 23):
        graphs.append(
            random_uniform_graph(random.Random(seed), max_levels=3, max_width=4)
        )
    for g in graphs:
        for m in range(1, 4):
            for n in range(1, 9):
                assert len(enumerate_B_basis(g, m, n)) == gr_dimension(g, m, n)
    _verdict(7, started, None, "monomial basis counts equal quotient dimensions")


def test_criterion_8_quadratic_duality():
    started = time.monotonic()
    for g in (
        build_boolean(3),
        build_boolean(4),
        build_complete_layered([1, 3, 3]),
        build_subspace_lattice(2, 3),
    ):
        for n in range(2, g.top_level + 1):
            assert quadratic_dual_check(g, n)
            rb = relation_space(g, n)
            rgr = gr_quadratic_space(g, n)
            assert rb.dim + rgr.dim == g.levels[n] * g.levels[n - 1]
        assert koszul_defect(g, 3) == ()
    _verdict(8, started, None, "annihilator duality, dimension complement, numerical Koszulness")


def test_criterion_9_retarget_phenomenon(retarget_pair):
    started = time.monotonic()
    g1, g2 = retarget_pair
    for n in range(1, 3):
        assert relation_space(g1, n).basis == relation_space(g2, n).basis
    for m in range(1, 4):
        for n in range(1, 9):
            assert b_dimension(g1, m, n) == b_dimension(g2, m, n)
    assert are_isomorphic(g1, g2) is None
    _verdict(9, started, None, "identical algebra data, non-isomorphic graphs")


def test_criterion_10_leading_terms():
    started = time.monotonic()
    g = build_boolean(3)
    for v in g.positive_vertices():
        for k in range(v.level + 1):
            expansion = e_tilde(g, v, k)
            lead = leading_part(expansion)
            (word, coeff), = lead.terms.items()
            top_weight = word_weight(word)
            others = [
                w for w in expansion.terms if w != word and word_weight(w) == top_weight
            ]
            assert not others, "maximal-weight word is not unique"
            assert word == next(iter(monomial_m(g, v, k).terms))
            assert coeff in (QQ(1), QQ(-1))
    _verdict(10, started, None, "expansion leading terms are the run monomials")

"""The headline pipeline: hide a graph inside its algebra, get it back.

`algebra_view` exports only the structure constants of degree-1 times
degree-1 multiplication, after relabelling and rescaling each degree-1
level at random (any invertible per-level maps present the same
algebra, so nothing needs certifying).  The reconstruction then sees no
vertices at all — just bilinear data in a scrambled basis — and must
recover the graph.  It does so by hunting for "vertex-like" basis
vectors (maximizers of the kernel dimension of left multiplication),
reading successor data off kernel containments, and certifying the
result with a graph isomorphism check.

Equivalent CLI pipeline:

    laga build boolean 4 | laga scramble - --seed 7 | \
        laga reconstruct - --family boolean -n 4
"""

import time

from laga import (
    GF,
    algebra_view,
    are_isomorphic,
    build_boolean,
    build_subspace_lattice,
    outdegree_multiset,
    reconstruct_boolean,
    reconstruct_subspace,
)


def run(name, graph, recover, seeds, field=GF(3)) -> None:
    print(f"{name} (levels {graph.levels}, algebra over {field.describe()}):")
    for seed in seeds:
        t0 = time.monotonic()
        view = algebra_view(graph, field, scramble_seed=seed)
        degrees = outdegree_multiset(view, 2)
        result = recover(view)
        certified = are_isomorphic(result, graph) is not None
        elapsed = time.monotonic() - t0
        print(
            f"  seed {seed}: recovered level-2 out-degrees {degrees}, "
            f"certified isomorphic: {certified}  ({elapsed:.2f}s)"
        )
    print()


def main() -> None:
    run(
        "Boolean lattice, rank 4",
        build_boolean(4),
        lambda v: reconstruct_boolean(v, 4),
        seeds=(1, 2, 3),
    )
    run(
        "subspace lattice of F_2^3",
        build_subspace_lattice(2, 3),
        lambda v: reconstruct_subspace(v, 2, 3),
        seeds=(1, 2),
    )
    run(
        "subspace lattice of F_3^3",
        build_subspace_lattice(3, 3),
        lambda v: reconstruct_subspace(v, 3, 3),
        seeds=(5,),
    )
    # the F_2^4 rung: each of the 15 hidden points is a maximal set of 28
    # of the 35 lines, found by greedy closure
    run(
        "subspace lattice of F_2^4",
        build_subspace_lattice(2, 4),
        lambda v: reconstruct_subspace(v, 2, 4),
        seeds=(1,),
        field=GF(2),
    )


if __name__ == "__main__":
    main()

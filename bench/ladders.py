"""The two workload ladders, their fresh inputs and their operations.

Every operation gets an input that no earlier operation of the run has
seen: a copy of the case's lattice with the vertices of each level
relabelled at random, built with `laga.build_graph`, and for recovery a
fresh scramble seed.  laga's value-keyed caches (`component`,
`_projected_word_images`, `_kappa_view_cached`, `upper_vertex_like_basis`,
`_succ_map`) therefore never answer an operation from an earlier one.

laga's functions are called through module attributes (`laga.rref`, not
a name bound here) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import laga

import checks


@dataclass(frozen=True)
class Case:
    """One rung of a ladder: a lattice, and for recovery the view's field.

    `known_failure` names the error the case raises every time because of
    a fault in laga; its inputs come from a fixed stream, not from the
    workload seed, so every run fails the same operations.
    """

    family: str  # "boolean" or "subspace"
    params: tuple  # (n,) or (q, n)
    p: int | None = None
    known_failure: str | None = None

    @property
    def name(self) -> str:
        lattice = f"{self.family}{''.join(map(str, self.params))}"
        return lattice if self.p is None else f"{lattice}/F{self.p}"

    def build(self):
        if self.family == "boolean":
            return laga.build_boolean(*self.params)
        return laga.build_subspace_lattice(*self.params)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "recover" or "invariants"
    cases: tuple[Case, ...]
    nominal_round_s: float  # sets the round count from --seconds


_B5_F3_FAULT = "VerificationFailed: kernel sampling found 0 of 10 vertex rays at level 2"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "recover",
            "recover",
            (
                Case("boolean", (4,), 3),
                Case("boolean", (4,), 5),
                Case("subspace", (2, 3), 3),
                Case("boolean", (5,), 5),
                Case("subspace", (3, 3), 3),
                Case("boolean", (5,), 3, known_failure=_B5_F3_FAULT),
            ),
            12.6,
        ),
        Workload(
            "invariants",
            "invariants",
            (
                Case("boolean", (4,)),
                Case("subspace", (2, 3)),
                Case("boolean", (5,)),
            ),
            9.6,
        ),
    )
}


def rounds_for(workload: Workload, seconds: float) -> int:
    """A fixed count, so the work and the memory the caches hold do not
    depend on how fast the program runs."""
    return max(1, round(seconds / workload.nominal_round_s))


@dataclass(frozen=True)
class Input:
    case: Case
    graph: object  # laga.LayeredGraph
    scramble_seed: int | None


def _relabelled(base, rng: random.Random):
    perms = [rng.sample(range(size), size) for size in base.levels]

    def move(v):
        return laga.V(v.level, perms[v.level][v.index])

    return laga.build_graph(
        base.levels,
        [(move(t), move(h)) for t, h in base.edges],
        unique_minimal=True,
        positive_outdegree=True,
        labels={move(v): text for v, text in base.labels},
    )


def make_inputs(workload: Workload, seed: int, rounds: int) -> list[list[Input]]:
    """inputs[r][c] for round r and case c; pairwise distinct per case."""
    columns = []
    for case in workload.cases:
        stream = "fixed" if case.known_failure else seed
        rng = random.Random(f"{workload.name}:{case.name}:{stream}")
        base = case.build()
        seen_edges = {base.edges}
        seen_seeds: set[int] = set()
        column = []
        while len(column) < rounds:
            graph = _relabelled(base, rng)
            if graph.edges in seen_edges:
                continue
            seen_edges.add(graph.edges)
            scramble_seed = None
            if workload.kind == "recover":
                scramble_seed = rng.randrange(2**31)
                while scramble_seed in seen_seeds:
                    scramble_seed = rng.randrange(2**31)
                seen_seeds.add(scramble_seed)
            column.append(Input(case, graph, scramble_seed))
        columns.append(column)
    return [list(row) for row in zip(*columns)]


# --- recovery -------------------------------------------------------------


def recover(inp: Input, tracer):
    """Scramble, pass the view through the CLI's JSON envelope, recover,
    and certify against the hidden graph.  Returns (graph, certified)."""
    case = inp.case
    view = laga.algebra_view(inp.graph, laga.GF(case.p), scramble_seed=inp.scramble_seed)
    with tracer.span("reconstruct.view_json"):
        text = json.dumps(
            {"view": laga.view_to_json_dict(view), "source": laga.to_json_dict(inp.graph)},
            sort_keys=True,
        )
        envelope = json.loads(text)
        view = laga.view_from_json_dict(envelope["view"])
        laga.from_json_dict(envelope["source"])  # the CLI's reference graph
    tracer.add("reconstruct.view_json_bytes", len(text))
    if case.family == "boolean":
        result = laga.reconstruct_boolean(view, *case.params)
    else:
        result = laga.reconstruct_subspace(view, *case.params)
    return result, laga.are_isomorphic(result, inp.graph) is not None


def check_recovered(inp: Input, output) -> list[str]:
    result, certified = output
    problems = [] if certified else ["recovered graph is not the hidden one"]
    if inp.case.family == "boolean":
        return problems + checks.recovered_boolean(result, *inp.case.params)
    return problems + checks.recovered_subspace(result, *inp.case.params)


# --- invariants -----------------------------------------------------------

MAX_M, MAX_N = 3, 8


@dataclass
class Characterisation:
    max_n: int
    b_table: dict
    gr_table: dict
    basis_counts: dict
    quadratic: tuple
    dual: list
    kappas: list  # (vertex, two kappa paths agree, dim)


def characterise(inp: Input, tracer) -> Characterisation:
    g = inp.graph
    b_table = laga.b_hilbert_table(g, MAX_M, MAX_N).as_dict()
    gr_table = laga.gr_hilbert_table(g, MAX_M, MAX_N).as_dict()
    basis_counts = {
        (m, n): len(laga.enumerate_B_basis(g, m, n))
        for m in range(1, MAX_M + 1)
        for n in range(1, MAX_N + 1)
    }
    quadratic = laga.is_quadratic_to_degree(g, 4)
    dual = [laga.quadratic_dual_check(g, n) for n in range(1, g.top_level + 1)]
    kappas = []
    for v in g.positive_vertices():
        a = laga.vertex_element(g, v)
        combinatorial = laga.kappa_of_element(g, a)
        kappas.append((v, combinatorial == laga.kappa_kernel(g, a), combinatorial.dim))
    return Characterisation(MAX_N, b_table, gr_table, basis_counts, quadratic, dual, kappas)


def check_characterisation(inp: Input, output) -> list[str]:
    return checks.invariants(inp.graph, output)


OPERATIONS = {
    "recover": (recover, check_recovered),
    "invariants": (characterise, check_characterisation),
}

"""Checks of laga's outputs against facts the benchmark derives itself.

Nothing here calls laga: every expected value comes from the graph's
edge list or from a closed formula, so a fault shared by the program's
own code paths cannot hide behind an agreeing copy of itself.  Each
check returns a list of problems; an empty list means the output holds.
"""

from __future__ import annotations

import itertools
import math


def successor_map(graph) -> dict:
    """Vertex -> set of successors, read from the edge list."""
    succ: dict = {v: set() for v in _vertices(graph)}
    for tail, head in graph.edges:
        succ[tail].add(head)
    return succ


def _vertices(graph) -> list[tuple[int, int]]:
    return [(n, i) for n, size in enumerate(graph.levels) for i in range(size)]


def _atoms_below(graph, succ) -> dict:
    """Vertex -> frozenset of level-1 vertices at or below it."""
    atoms: dict = {}
    for n, size in enumerate(graph.levels):
        for i in range(size):
            v = (n, i)
            if n == 0:
                atoms[v] = frozenset()
            elif n == 1:
                atoms[v] = frozenset([v])
            else:
                atoms[v] = frozenset().union(*(atoms[w] for w in succ[v]))
    return atoms


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    count = 1
    for i in range(k):
        count = count * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return count


def recovered_boolean(graph, n: int) -> list[str]:
    """The atoms below each level-k vertex form every k-subset of the
    atoms exactly once, and each vertex covers exactly its subset steps."""
    expected = tuple(math.comb(n, k) for k in range(n + 1))
    if tuple(graph.levels) != expected:
        return [f"levels {tuple(graph.levels)} != {expected}"]
    succ = successor_map(graph)
    atoms = _atoms_below(graph, succ)
    problems = []
    for k in range(n + 1):
        sets = {atoms[(k, i)] for i in range(graph.levels[k])}
        if len(sets) != expected[k] or any(len(s) != k for s in sets):
            problems.append(f"level {k} atom sets are not the {k}-subsets")
    for k in range(1, n + 1):
        for i in range(graph.levels[k]):
            below = atoms[(k, i)]
            steps = {w for w in _level(graph, k - 1) if atoms[w] < below}
            if succ[(k, i)] != steps or len(steps) != k:
                problems.append(f"covers of {(k, i)} are not its subset steps")
    return problems


def _level(graph, n: int) -> list[tuple[int, int]]:
    return [(n, i) for i in range(graph.levels[n])]


def recovered_subspace(graph, q: int, n: int) -> list[str]:
    """Level sizes are Gaussian binomials; a level-k vertex lies over
    (q^k - 1)/(q - 1) atoms; every level-2 vertex lies over q + 1 atoms
    and any two atoms lie under exactly one level-2 vertex."""
    expected = tuple(gaussian_binomial(n, k, q) for k in range(n + 1))
    if tuple(graph.levels) != expected:
        return [f"levels {tuple(graph.levels)} != {expected}"]
    succ = successor_map(graph)
    atoms = _atoms_below(graph, succ)
    problems = []
    for k in range(1, n + 1):
        points = (q**k - 1) // (q - 1)
        if any(len(atoms[v]) != points for v in _level(graph, k)):
            problems.append(f"a level-{k} vertex does not lie over {points} atoms")
    lines = [atoms[v] for v in _level(graph, 2)]
    if any(len(line) != q + 1 for line in lines):
        problems.append(f"a level-2 vertex does not lie over {q + 1} atoms")
    for a, b in itertools.combinations(_level(graph, 1), 2):
        through = sum(1 for line in lines if a in line and b in line)
        if through != 1:
            problems.append(f"atoms {a}, {b} lie under {through} level-2 vertices")
            break
    return problems


def _coverage_classes(level_size: int, successor_lists) -> int:
    """Classes of one level under co-coverage: w ~ w' when some source
    vertex covers both; counted with a union-find."""
    parent = list(range(level_size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    classes = level_size
    for ws in successor_lists:
        for a, b in zip(ws, ws[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                classes -= 1
    return classes


def invariants(graph, found) -> list[str]:
    """Hilbert table entries, quadraticity, duality and vertex kernels of
    a uniform lattice, against counts made from the edge list."""
    levels = graph.levels
    top = len(levels) - 1
    succ = successor_map(graph)

    def size(n: int) -> int:
        return levels[n] if 1 <= n <= top else 0

    def successor_merges(n: int) -> int:
        """sum over v at level l of (|S(v)| - 1), for n = 2l - 1."""
        if n % 2 == 0 or not 1 <= (n + 1) // 2 <= top:
            return 0
        return sum(len(succ[v]) - 1 for v in _level(graph, (n + 1) // 2))

    problems = []
    b, gr = found.b_table, found.gr_table
    for n in range(1, found.max_n + 1):
        for name, table in (("B", b), ("grA", gr)):
            if table.get((1, n), 0) != size(n):
                problems.append(f"{name}(1,{n}) = {table.get((1, n), 0)} != {size(n)}")
        if b.get((2, n), 0) != successor_merges(n):
            problems.append(f"B(2,{n}) = {b.get((2, n), 0)} != {successor_merges(n)}")
        words = sum(size(a) * size(n - a) for a in range(1, n))
        if gr.get((2, n), 0) != words - successor_merges(n):
            problems.append(
                f"grA(2,{n}) = {gr.get((2, n), 0)} != {words - successor_merges(n)}"
            )
    for (m, n), count in found.basis_counts.items():
        if count != gr.get((m, n), 0):
            problems.append(f"{count} basis sequences at ({m},{n}), grA has {gr.get((m, n), 0)}")
    if found.quadratic != (True, None):
        problems.append(f"is_quadratic_to_degree returned {found.quadratic}")
    if not all(found.dual):
        problems.append(f"quadratic_dual_check failed at levels {found.dual}")
    for v, agree, dim in found.kappas:
        width = levels[v[0] - 1]
        below = [sorted(w[1] for w in succ[v])]
        if not agree:
            problems.append(f"kappa paths disagree at {v}")
        elif dim != _coverage_classes(width, below):
            problems.append(f"dim kappa({v}) = {dim} != {_coverage_classes(width, below)}")
    return problems

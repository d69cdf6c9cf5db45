"""Layered graphs: data model, builders, combinatorial statistics.

A layered graph has vertices partitioned into levels V_0..V_N with every
edge dropping exactly one level.  Vertices are (level, index) pairs; the
total order by (level, index) is the canonical tie-breaker everywhere.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from .errors import (
    DimensionMismatch,
    EdgeLevelMismatch,
    EmptySuccessor,
    LevelMismatch,
    MixedLevels,
    MultipleMinimal,
    UnsupportedField,
    VerificationFailed,
)
from .fields import GF, _is_prime
from .linalg import _within_budget, enumerate_rays, enumeration_budget, span


class V(NamedTuple):
    """A vertex: its level (rank) and index within the level."""

    level: int
    index: int


Edge = tuple[V, V]


def memo(fn):
    """Cache fn(obj, *args) in obj._cache: the result lives and dies with
    the graph or view it was derived from, and a lookup never hashes obj."""

    def cached(obj, *args):
        key = (fn, *args)
        try:
            return obj._cache[key]
        except KeyError:
            value = obj._cache[key] = fn(obj, *args)
            return value

    cached.__name__, cached.__doc__, cached.__wrapped__ = fn.__name__, fn.__doc__, fn
    return cached


@dataclass(frozen=True)
class LayeredGraph:
    levels: tuple[int, ...]
    edges: frozenset[Edge]
    unique_minimal: bool = False
    positive_outdegree: bool = False
    labels: tuple[tuple[V, str], ...] = ()
    _cache: dict = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    @property
    def top_level(self) -> int:
        return len(self.levels) - 1

    def level_vertices(self, n: int) -> list[V]:
        if not 0 <= n < len(self.levels):
            raise LevelMismatch(f"level {n} outside 0..{self.top_level}")
        return [V(n, i) for i in range(self.levels[n])]

    def vertices(self) -> list[V]:
        return [v for n in range(len(self.levels)) for v in self.level_vertices(n)]

    def positive_vertices(self) -> list[V]:
        return [v for v in self.vertices() if v.level >= 1]

    def succ(self, v: V) -> tuple[V, ...]:
        return _succ_map(self).get(v, ())

    def pred(self, v: V) -> tuple[V, ...]:
        return _pred_map(self).get(v, ())

    def out_degree(self, v: V) -> int:
        return len(self.succ(v))

    def label(self, v: V) -> str | None:
        return _label_map(self).get(v)

    def reaches(self, v: V, w: V) -> bool:
        """True iff there is a directed path (possibly empty) from v to w."""
        return v.level >= w.level and w in _reach_map(self)[v][v.level - w.level]


@memo
def _succ_map(g: LayeredGraph) -> dict[V, tuple[V, ...]]:
    out: dict[V, list[V]] = {}
    for t, h in g.edges:
        out.setdefault(t, []).append(h)
    return {v: tuple(sorted(ws)) for v, ws in out.items()}


@memo
def _label_map(g: LayeredGraph) -> dict[V, str]:
    return dict(g.labels)


@memo
def _pred_map(g: LayeredGraph) -> dict[V, tuple[V, ...]]:
    out: dict[V, list[V]] = {}
    for t, h in g.edges:
        out.setdefault(h, []).append(t)
    return {v: tuple(sorted(ws)) for v, ws in out.items()}


@memo
def _reach_map(g: LayeredGraph) -> dict[V, tuple[frozenset[V], ...]]:
    """reach[v][k]: the vertices k levels below v that v reaches, for
    0 <= k <= v.level (so reach[v][0] = {v}), built level by level."""
    reach: dict[V, tuple[frozenset[V], ...]] = {}
    for v in g.vertices():
        below = [reach[w] for w in g.succ(v)]
        steps = (frozenset().union(*(r[k] for r in below)) for k in range(v.level))
        reach[v] = (frozenset([v]), *steps)
    return reach


def build_graph(
    levels: Iterable[int],
    edges: Iterable[Edge],
    *,
    unique_minimal: bool = False,
    positive_outdegree: bool = False,
    labels: Optional[dict[V, str]] = None,
) -> LayeredGraph:
    """Validate and freeze a layered graph."""
    levels = tuple(int(x) for x in levels)
    if any(size < 0 for size in levels):
        raise DimensionMismatch(f"negative level size in {list(levels)}")
    if unique_minimal and not levels:
        raise DimensionMismatch("a unique minimal vertex needs a level 0")

    def in_range(v: V) -> bool:
        return 0 <= v.level < len(levels) and 0 <= v.index < levels[v.level]

    norm_edges = set()
    for t, h in edges:
        t, h = V(*t), V(*h)
        if not in_range(t):
            raise EdgeLevelMismatch(f"tail {t} out of range")
        if not in_range(h):
            raise EdgeLevelMismatch(f"head {h} out of range")
        if h.level != t.level - 1:
            raise EdgeLevelMismatch(f"edge {t}->{h} does not drop one level")
        norm_edges.add((t, h))
    for v in labels or {}:
        if not in_range(V(*v)):
            raise DimensionMismatch(f"label on {V(*v)}, which the graph lacks")
    g = LayeredGraph(
        levels=levels,
        edges=frozenset(norm_edges),
        unique_minimal=unique_minimal,
        positive_outdegree=positive_outdegree,
        labels=tuple(sorted((labels or {}).items())),
    )
    if unique_minimal and levels[0] != 1:
        raise MultipleMinimal(f"|V_0| = {levels[0]}")
    if positive_outdegree:
        for v in g.positive_vertices():
            if not g.succ(v):
                raise EmptySuccessor(f"vertex {v} has no successors")
    return g


def build_boolean(n: int) -> LayeredGraph:
    """The Boolean lattice 2^[n]; level i holds the i-subsets of {1..n}
    in lexicographic order."""
    _within_budget(n * 2**n // 2, f"edges of the Boolean lattice of rank {n}")
    subsets = [list(itertools.combinations(range(1, n + 1), i)) for i in range(n + 1)]
    index = {s: V(i, j) for i, lv in enumerate(subsets) for j, s in enumerate(lv)}
    edges = []
    for i in range(1, n + 1):
        for s in subsets[i]:
            for drop in s:
                t = tuple(x for x in s if x != drop)
                edges.append((index[s], index[t]))
    labels = {index[s]: "{" + ",".join(map(str, s)) + "}" for lv in subsets for s in lv}
    return build_graph(
        [len(lv) for lv in subsets],
        edges,
        unique_minimal=True,
        positive_outdegree=True,
        labels=labels,
    )


def _rref_matrices(q: int, n: int, k: int):
    """All k x n RREF matrices over F_q (row spaces = k-dim subspaces),
    entries as plain ints."""
    if k == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(n), k):
        free_pos = [
            (r, c)
            for r in range(k)
            for c in range(pivots[r] + 1, n)
            if c not in pivots
        ]
        for vals in itertools.product(range(q), repeat=len(free_pos)):
            mat = [[0] * n for _ in range(k)]
            for r, p in enumerate(pivots):
                mat[r][p] = 1
            for (r, c), val in zip(free_pos, vals):
                mat[r][c] = val
            yield tuple(tuple(row) for row in mat)


def build_subspace_lattice(q: int, n: int) -> LayeredGraph:
    """Lattice of subspaces of F_q^n; level k holds the k-dim subspaces
    keyed (and ordered) by canonical RREF basis matrices.  Each ray c of
    F_q^k, led by c_l = 1, gives a cover {a.W : a.c = 0} of a k-subspace
    W, spanned by the rows W_i - c_i W_l and found by its RREF key."""
    if q < 2 or not _is_prime(q):
        raise UnsupportedField(f"q = {q}: only prime fields are supported")
    edge_count = sum(gaussian_binomial(n, k, q) * gaussian_binomial(k, 1, q) for k in range(n + 1))
    _within_budget(edge_count, f"edges of the subspace lattice of F_{q}^{n}")
    fld = GF(q)
    by_level = [sorted(_rref_matrices(q, n, k)) for k in range(n + 1)]
    edges = []
    for k in range(1, n + 1):
        index = {m: V(k - 1, j) for j, m in enumerate(by_level[k - 1])}
        rays = [(c, c.index(1)) for c in enumerate_rays(fld, k)]
        for j, basis in enumerate(by_level[k]):
            for c, lead in rays:
                rows = ([x - b * y for x, y in zip(row, basis[lead])] for row, b in zip(basis, c))
                edges.append((V(k, j), index[span(rows, n, fld).basis]))
    labels = {
        V(k, j): "/".join("".join(map(str, row)) for row in m) or "0"
        for k in range(n + 1)
        for j, m in enumerate(by_level[k])
    }
    return build_graph(
        [len(lv) for lv in by_level],
        edges,
        unique_minimal=True,
        positive_outdegree=True,
        labels=labels,
    )


def build_complete_layered(sizes: Iterable[int]) -> LayeredGraph:
    """Every vertex covers every vertex one level down."""
    sizes = tuple(sizes)
    _within_budget(sum(a * b for a, b in zip(sizes, sizes[1:])), "edges of the complete graph")
    edges = [
        (V(n, i), V(n - 1, j))
        for n in range(1, len(sizes))
        for i in range(sizes[n])
        for j in range(sizes[n - 1])
    ]
    return build_graph(
        sizes,
        edges,
        unique_minimal=(sizes[0] == 1),
        positive_outdegree=True,
    )


def restrict(g: LayeredGraph, n: int) -> LayeredGraph:
    """Keep levels 0..n and the edges among them."""
    if not 0 <= n <= g.top_level:
        raise EdgeLevelMismatch(f"level {n} outside 0..{g.top_level}")
    return build_graph(
        g.levels[: n + 1],
        [e for e in g.edges if e[0].level <= n],
        unique_minimal=g.unique_minimal,
        positive_outdegree=g.positive_outdegree,
        labels={v: s for v, s in g.labels if v.level <= n},
    )


def _common_level(vertex_set: Iterable[V]) -> int | None:
    levels = {v.level for v in vertex_set}
    if len(levels) > 1:
        raise MixedLevels(f"vertex set spans levels {sorted(levels)}")
    return levels.pop() if levels else None


def successors(g: LayeredGraph, vertex_set: Iterable[V]) -> frozenset[V]:
    """S(T): the union of S(t) over t in T."""
    vertex_set = set(vertex_set)
    _common_level(vertex_set)
    return frozenset(w for t in vertex_set for w in g.succ(t))


@dataclass(frozen=True)
class ClassPartition:
    """Equivalence classes of V_{n-1} under co-coverage from T in V_n."""

    ground_level: int
    classes: tuple[tuple[V, ...], ...]
    source: frozenset[V]
    successor_set: frozenset[V]

    @property
    def k(self) -> int:
        return len(self.classes)

    @property
    def k_meeting(self) -> int:
        """Number of classes that meet S(T) (k_T^T)."""
        return sum(1 for c in self.classes if self.successor_set.intersection(c))


def class_partition(
    g: LayeredGraph, vertex_set: Iterable[V], *, level: int | None = None
) -> ClassPartition:
    """Classes of co-coverage, v ~ w when some t in T covers both, closed
    transitively: starting from the singletons of V_{n-1}, each S(t)
    merges the blocks it meets, in at most |T| * d_{n-1} steps."""
    vertex_set = frozenset(vertex_set)
    set_level = _common_level(vertex_set)
    if set_level is None and level is None:
        raise MixedLevels("empty vertex set needs an explicit level")
    n = set_level if set_level is not None else level
    if n < 1:
        raise MixedLevels("vertex sets at level 0 have no partition below them")
    if n > g.top_level or any(not 0 <= v.index < g.levels[n] for v in vertex_set):
        raise LevelMismatch(f"vertices {sorted(vertex_set)} at level {n} are not in the graph")
    block = {w: frozenset([w]) for w in g.level_vertices(n - 1)}  # w's block
    for t in vertex_set:
        merged = frozenset().union(*(block[w] for w in g.succ(t)))
        block.update(dict.fromkeys(merged, merged))
    classes = tuple(sorted(tuple(sorted(c)) for c in set(block.values())))
    return ClassPartition(
        ground_level=n - 1,
        classes=classes,
        source=vertex_set,
        successor_set=successors(g, vertex_set) if vertex_set else frozenset(),
    )


def check_identities(g: LayeredGraph, vertex_set: Iterable[V], *, level: int | None = None):
    """The three counting identities tying |V_{n-1}|, |S(T)|, k_T, k_T^T.

    Returns a dict of the six numbers; raises AssertionError on any
    violation (which would indicate a library bug).
    """
    part = class_partition(g, vertex_set, level=level)
    n = part.ground_level + 1
    ground_size = g.levels[n - 1]
    s_size = len(part.successor_set)
    report = {
        "ground_size": ground_size,
        "k_empty": ground_size,
        "k": part.k,
        "k_meeting": part.k_meeting,
        "successor_size": s_size,
        "complement_size": ground_size - s_size,
    }
    assert ground_size == class_partition(g, (), level=n).k
    assert ground_size - s_size == part.k - part.k_meeting
    assert s_size == ground_size - part.k + part.k_meeting
    return report


def _cocoverage_class(g: LayeredGraph, sources, letters) -> set[V] | None:
    """The class under co-coverage from the successor sets of `sources`,
    vertices of one level, that holds every vertex of `letters`, or None
    when `letters` is empty or meets two classes.  Only that class is
    grown, from one letter: each unused source above a vertex of it adds
    its whole successor set, so the work is the class and its in-edges."""
    if not letters:
        return None
    pred, succ = _pred_map(g), _succ_map(g)
    unused, todo = set(sources), [next(iter(letters))]
    cls = set(todo)
    while todo:
        for t in pred.get(todo.pop(), ()):
            if t in unused:
                unused.remove(t)
                for w in succ[t]:
                    if w not in cls:
                        cls.add(w)
                        todo.append(w)
    return cls if cls.issuperset(letters) else None


@memo
def is_uniform(g: LayeredGraph):
    """(True, None) or (False, witness vertex with its split classes),
    once per graph.  S(v) is linked iff S(S(v)) lies in one class of
    V_{n-2} under co-coverage from S(v), which `_cocoverage_class`
    grows; only the witness gets a full `class_partition`."""
    for n in range(2, len(g.levels)):
        for v in g.level_vertices(n):
            sv = g.succ(v)
            if len(sv) <= 1 or _cocoverage_class(g, sv, successors(g, sv)) is not None:
                continue
            part = class_partition(g, sv)
            groups: dict[object, list[V]] = {}
            cls_of = {w: i for i, c in enumerate(part.classes) for w in c}
            for u in sv:
                su = g.succ(u)
                key = cls_of[su[0]] if su else ("lone", u)
                groups.setdefault(key, []).append(u)
            split = tuple(tuple(c) for c in groups.values())
            return False, (v, split)
    return True, None


def is_non_nesting(g: LayeredGraph):
    """(True, None) or (False, (p, q)) with S(p) contained in S(q)."""
    for n in range(1, len(g.levels)):
        wide = [(v, frozenset(g.succ(v))) for v in g.level_vertices(n) if g.out_degree(v) > 1]
        for (p, sp), (q, sq) in itertools.permutations(wide, 2):
            if sp <= sq:
                return False, (p, q)
    return True, None


def is_atomic_lattice(g: LayeredGraph) -> bool:
    """True iff the reachability poset is a lattice in which every
    element is the join of the atoms below it.

    With A(v) the set of atoms below v, that holds exactly when the A(v)
    are distinct, include the set of all atoms, are closed under
    intersection, and A(v) <= A(w) just when w reaches v: then v -> A(v)
    is an order isomorphism onto an intersection-closed family with a
    top, a lattice in which every member is the join of its atoms."""
    if g.levels[0] != 1:
        raise MultipleMinimal("atomic-lattice test needs a unique minimal vertex")
    verts = g.vertices()
    _within_budget(len(verts) ** 2, "vertex pairs of the atomic-lattice test")
    atoms = frozenset(g.level_vertices(1))
    below = {v: _reach_map(g)[v][v.level - 1] if v.level else frozenset() for v in verts}
    family = set(below.values())
    return (
        len(family) == len(verts)
        and atoms in family
        and all(
            below[v] & below[w] in family and (below[v] <= below[w]) == g.reaches(w, v)
            for v in verts
            for w in verts
        )
    )


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dim subspaces of F_q^n, by the product formula."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def are_isomorphic(g1: LayeredGraph, g2: LayeredGraph) -> Optional[dict[V, V]]:
    """Level-preserving graph isomorphism by per-level backtracking.

    Returns a vertex bijection or None.  The next vertex is the one with
    the most mapped neighbors, counted as the map grows.  Its candidates
    are drawn from the neighbors of a mapped neighbor's image and pruned
    by (out-degree, in-degree) profile and by the images of its mapped
    neighbors.  Every candidate assignment counts as one search node
    against `LAGA_BUDGET`.  A map found that does not carry the edge
    set exactly raises `VerificationFailed`.
    """
    if g1.levels != g2.levels:
        return None

    def profiles(g):
        return {v: (g.out_degree(v), len(g.pred(v))) for v in g.vertices()}

    # the (out-degree, in-degree) multisets must agree level by level
    prof1, prof2 = profiles(g1), profiles(g2)
    if sorted((v.level, p) for v, p in prof1.items()) != sorted(
        (w.level, p) for w, p in prof2.items()
    ):
        return None

    mapping: dict[V, V] = {}
    used: set[V] = set()
    unmapped = set(prof1)
    # the selection key of each vertex of g1, packed in one int: its
    # mapped neighbors, then its level, then its lower index
    step = len(prof1)
    key = {u: i for i, u in enumerate(sorted(prof1, key=lambda u: (u.level, -u.index)))}
    # the used successors and predecessors of each vertex of g2
    used_succ = dict.fromkeys(prof2, 0)
    used_pred = dict.fromkeys(prof2, 0)

    def assign(v: V, w: V, sign: int) -> None:
        """Map v to w (sign 1) or undo it (sign -1), keeping the counts."""
        for u in g1.succ(v) + g1.pred(v):
            key[u] += sign * step
        for s in g2.succ(w):
            used_pred[s] += sign
        for p in g2.pred(w):
            used_succ[p] += sign

    def candidates(v: V):
        # mapped neighbors of v must map exactly onto the used neighbors
        # of the candidate, in both directions, so a candidate lies next
        # to the image of any mapped neighbor
        want_succ = [mapping[s] for s in g1.succ(v) if s in mapping]
        want_pred = [mapping[p] for p in g1.pred(v) if p in mapping]
        if want_succ:
            pool = g2.pred(want_succ[0])
        elif want_pred:
            pool = g2.succ(want_pred[0])
        else:
            pool = g2.level_vertices(v.level)
        counts = (prof1[v], len(want_succ), len(want_pred))
        for w in pool:
            if (
                w not in used
                and (prof2[w], used_succ[w], used_pred[w]) == counts
                and all((w, s) in g2.edges for s in want_succ)
                and all((p, w) in g2.edges for p in want_pred)
            ):
                yield w

    # depth-first search on an explicit stack of (vertex, its remaining
    # candidates), so no recursive closure keeps the graphs in a cycle
    frames: list = []
    budget = enumeration_budget()
    nodes = 0
    while unmapped:
        # most-constrained vertex first: forced assignments collapse the
        # search on highly symmetric graphs
        v = max(unmapped, key=key.__getitem__)
        frames.append((v, candidates(v)))
        while frames:
            v, options = frames[-1]
            if v in mapping:
                w = mapping.pop(v)
                used.remove(w)
                unmapped.add(v)
                assign(v, w, -1)
            w = next(options, None)
            if w is not None:
                nodes += 1
                _within_budget(nodes, "isomorphism search nodes", budget)
                mapping[v] = w
                used.add(w)
                unmapped.remove(v)
                assign(v, w, 1)
                break
            frames.pop()
        else:
            return None
    # post-hoc certificate: the map must carry the edge set exactly
    mapped = {(mapping[t], mapping[h]) for t, h in g1.edges}
    if mapped != g2.edges:
        raise VerificationFailed(f"isomorphism certificate: {len(mapped ^ g2.edges)} edges differ")
    return dict(mapping)


def upper_part(g: LayeredGraph, from_level: int) -> LayeredGraph:
    """Levels >= from_level re-based so that from_level becomes level 0."""
    if not 0 <= from_level <= g.top_level:
        raise EdgeLevelMismatch(f"level {from_level} outside 0..{g.top_level}")
    return build_graph(
        g.levels[from_level:],
        [
            (V(t.level - from_level, t.index), V(h.level - from_level, h.index))
            for t, h in g.edges
            if h.level >= from_level
        ],
    )


# --- serialization ---------------------------------------------------------


def to_json_dict(g: LayeredGraph) -> dict:
    return {
        "levels": list(g.levels),
        "edges": sorted([list(t), list(h)] for t, h in g.edges),
        "flags": {
            "unique_minimal": g.unique_minimal,
            "positive_outdegree": g.positive_outdegree,
        },
        "labels": {f"{v.level},{v.index}": s for v, s in g.labels},
    }


def _is_int_list(raw, length: int | None = None) -> bool:
    return (
        isinstance(raw, list)
        and length in (None, len(raw))
        and all(type(x) is int for x in raw)
    )


def from_json_dict(data: dict) -> LayeredGraph:
    if not (
        isinstance(data, dict)
        and _is_int_list(data.get("levels"))
        and isinstance(data.get("edges"), list)
        and isinstance(data.get("flags", {}), dict)
        and isinstance(data.get("labels", {}), dict)
    ):
        raise DimensionMismatch("a graph is an object of int levels, edges, flags, labels")
    _within_budget(sum(data["levels"]), "vertices of the graph")
    for edge in data["edges"]:
        pair = isinstance(edge, list) and len(edge) == 2
        if not (pair and _is_int_list(edge[0], 2) and _is_int_list(edge[1], 2)):
            raise EdgeLevelMismatch(f"edge {edge!r} is not a pair of [level, index] pairs")
    flags = data.get("flags", {})
    if not all(isinstance(f, bool) for f in flags.values()):
        raise DimensionMismatch(f"graph flags {flags!r} are not all true or false")
    labels = {}
    for key, s in data.get("labels", {}).items():
        lvl, comma, idx = key.partition(",")
        if not (comma and lvl.isdecimal() and idx.isdecimal() and isinstance(s, str)):
            raise DimensionMismatch(f'label {key!r}: {s!r} is not "level,index": string')
        labels[V(int(lvl), int(idx))] = s
    return build_graph(
        data["levels"],
        [(V(*t), V(*h)) for t, h in data["edges"]],
        unique_minimal=flags.get("unique_minimal", False),
        positive_outdegree=flags.get("positive_outdegree", False),
        labels=labels,
    )


def to_json(g: LayeredGraph) -> str:
    return json.dumps(to_json_dict(g), sort_keys=True)


def from_json(text: str) -> LayeredGraph:
    return from_json_dict(json.loads(text))


def to_dot(g: LayeredGraph) -> str:
    lines = ["digraph layered {", "  rankdir=TB;"]
    for n in range(g.top_level, -1, -1):
        names = []
        for v in g.level_vertices(n):
            name = f"v{n}_{v.index}"
            text = g.label(v) or f"({n},{v.index})"
            lines.append(f'  {name} [label="{text}"];')
            names.append(name)
        if names:
            lines.append("  { rank=same; " + "; ".join(names) + "; }")
    for t, h in sorted(g.edges):
        lines.append(f"  v{t.level}_{t.index} -> v{h.level}_{h.index};")
    lines.append("}")
    return "\n".join(lines)

"""The graded vertex algebra of a layered graph.

Works inside the free algebra on the positive-level vertices, modulo
differences of equal-start path monomials.  The key objects:
distinguished downward paths, the coefficient elements obtained by
expanding edge products, run monomials m(v, k), and the pair-sequence
basis with its normal-form rewriting.  A bidegree's dimension is the
number of its non-covering (vertex, run-length) pair sequences, counted
without building them; `enumerate_B_basis` lists them by the same
recurrence, prepending one pair to the lists of shorter bidegrees.  A
word's class is its normal form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    EmptySuccessor,
    KOutOfRange,
    MultipleMinimal,
    UnsupportedField,
)
from .fields import QQ, FieldSpec
from .graphs import LayeredGraph, V, _cocoverage_class, _reach_map, memo
from .linalg import _within_budget, enumeration_budget

Word = tuple[V, ...]


class FreeElement:
    """An element of the free algebra on V_+: a finite scalar combination
    of vertex words.  Immutable in spirit; do not mutate .terms.  The
    constructor reduces every coefficient into the field, so arithmetic
    may hand it unreduced sums and products."""

    __slots__ = ("field", "terms")

    def __init__(self, terms: dict[Word, object] | None = None, field: FieldSpec = QQ):
        self.field = field
        coerced = ((w, field(c)) for w, c in (terms or {}).items())
        self.terms = {w: c for w, c in coerced if c != 0}

    @classmethod
    def scalar(cls, value, field: FieldSpec = QQ) -> "FreeElement":
        return cls({(): field(value)}, field)

    @classmethod
    def word(cls, word: Word, field: FieldSpec = QQ) -> "FreeElement":
        return cls({tuple(word): field.one}, field)

    def _check_field(self, other: "FreeElement") -> None:
        if other.field != self.field:
            raise UnsupportedField(
                f"{self.field.describe()} vs {other.field.describe()}"
            )

    def __add__(self, other: "FreeElement") -> "FreeElement":
        self._check_field(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return FreeElement(terms, self.field)

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + (-other)

    def __neg__(self) -> "FreeElement":
        return FreeElement({w: -c for w, c in self.terms.items()}, self.field)

    def __mul__(self, other: "FreeElement") -> "FreeElement":
        self._check_field(other)
        terms: dict[Word, object] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                terms[w] = terms.get(w, 0) + c1 * c2
        return FreeElement(terms, self.field)

    def scale(self, value) -> "FreeElement":
        c0 = self.field(value)
        return FreeElement({w: c0 * c for w, c in self.terms.items()}, self.field)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, FreeElement)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in sorted(self.terms.items()):
            name = "*".join(f"({v.level},{v.index})" for v in w)
            bits.append(f"{c}{name}")
        return " + ".join(bits)


def word_weight(word: Word) -> int:
    return sum(v.level for v in word)


def distinguished_path(g: LayeredGraph, v: V) -> tuple[V, ...]:
    """The canonical downward vertex path from v to the minimal vertex,
    following the least successor at every step."""
    if not g.unique_minimal:
        raise MultipleMinimal("distinguished paths need a unique minimal vertex")
    return _distinguished_run(g, v, v.level + 1)


def _distinguished_run(g: LayeredGraph, v: V, k: int) -> tuple[V, ...]:
    """The first k vertices of v's distinguished path, in k - 1 steps:
    only they need successors, and no unique minimal vertex is needed."""
    path = [v]
    while len(path) < k:
        nxt = g.succ(path[-1])
        if not nxt:
            raise EmptySuccessor(f"{path[-1]} has no successors")
        path.append(nxt[0])
    return tuple(path[:k])


def monomial_m(g: LayeredGraph, v: V, k: int, field: FieldSpec = QQ) -> FreeElement:
    """The word of the first k vertices of v's distinguished path."""
    if not 0 <= k <= v.level:
        raise KOutOfRange(f"k={k} outside 0..{v.level}")
    return FreeElement.word(_distinguished_run(g, v, k), field)


def e_tilde(g: LayeredGraph, v: V, k: int, field: FieldSpec = QQ) -> FreeElement:
    """Expand the edge product along the distinguished path of v (each
    edge (x,y) contributing x - y, or x when y is minimal) and take the
    word-length-k coefficient."""
    if not 0 <= k <= v.level:
        raise KOutOfRange(f"k={k} outside 0..{v.level}")
    path = distinguished_path(g, v)
    factors = []
    for x, y in zip(path, path[1:]):
        if y.level == 0:
            factors.append(FreeElement.word((x,), field))
        else:
            factors.append(FreeElement.word((x,), field) - FreeElement.word((y,), field))
    # the expansion makes at most prod (1 + |f_i|) word products
    _within_budget(math.prod(1 + len(f.terms) for f in factors), f"word products at {tuple(v)}")
    # coefficients of the polynomial prod (t - f_i), indexed by word length
    coeffs = [FreeElement.scalar(1, field)]
    for f in factors:
        nxt = [FreeElement({}, field) for _ in range(len(coeffs) + 1)]
        for length, c in enumerate(coeffs):
            nxt[length] = nxt[length] + c  # choose t
            nxt[length + 1] = nxt[length + 1] + (c * f).scale(-1)  # choose -f_i
        coeffs = nxt[: k + 1]
    return coeffs[k]


def leading_part(el: FreeElement) -> FreeElement:
    """The maximal-weight homogeneous part with respect to vertex weight."""
    if el.is_zero():
        return el
    top = max(word_weight(w) for w in el.terms)
    return FreeElement(
        {w: c for w, c in el.terms.items() if word_weight(w) == top}, el.field
    )


def skeleton(g: LayeredGraph, word: Word) -> tuple[int, ...]:
    """Indices (1-based) where maximal distinguished-path runs begin,
    terminated by len(word) + 1."""
    word = tuple(word)
    l = len(word)
    if l == 0:
        return (1,)
    s = [1]
    while s[-1] < l + 1:
        j = s[-1] + 1
        # a run continues along each vertex's first (distinguished) successor
        while j <= l and g.succ(word[j - 2])[:1] == (word[j - 1],):
            j += 1
        s.append(j)
    return tuple(s)


PairSequence = tuple[tuple[V, int], ...]


def to_pair_sequence(g: LayeredGraph, word: Word) -> PairSequence:
    """Decompose a word into (start vertex, run length) pairs from its
    skeleton; the induced monomial reproduces the word."""
    word = tuple(word)
    s = skeleton(g, word)
    return tuple(
        (word[s[i] - 1], s[i + 1] - s[i]) for i in range(len(s) - 1)
    )


def pair_weight(pair: tuple[V, int]) -> int:
    v, k = pair
    return k * v.level - k * (k - 1) // 2


def covers_pair(g: LayeredGraph, p1: tuple[V, int], p2: tuple[V, int]) -> bool:
    """(v,k) |= (v',k'): a path of length k >= 1 from v down to v' exists."""
    (v, k), (w, _) = p1, p2
    return 0 < k <= v.level and w in _reach_map(g)[v][k]


def sequence_monomial(g: LayeredGraph, pairs: PairSequence) -> Word:
    """The word of a pair sequence: each (v, k) gives `_distinguished_run`."""
    out: list[V] = []
    for v, k in pairs:
        out.extend(_distinguished_run(g, v, k))
    return tuple(out)


def normalize(g: LayeredGraph, word: Word) -> Word:
    """Rewrite a word until its pair sequence has no covering step, in
    one left-to-right pass: when a run of length k starting at b meets a
    vertex reachable from b by a length-k path, the first successor of
    the run's last vertex takes that vertex's place, extending the run.
    The rewrite preserves the image in the quotient by equal-start path
    differences and changes nothing to its left, so no earlier step can
    become covering.  A run whose last vertex has no successors cannot
    grow and raises `EmptySuccessor`."""
    out: list[V] = []
    start = 0  # where the current run begins in out
    for x in word:
        if out and g.succ(out[-1])[:1] != (x,):
            if not covers_pair(g, (out[start], len(out) - start), (x, 1)):
                start = len(out)
            elif g.succ(out[-1]):
                x = g.succ(out[-1])[0]
            else:
                raise EmptySuccessor(f"{out[-1]} has no successors")
        out.append(x)
    return tuple(out)


def _pair_table(g: LayeredGraph, max_len: int):
    """Every pair (v, k) with k <= max_len for which v has a positive
    path of k vertices, in the canonical order, as (pair, k, weight,
    covered).  Both are indexed off `_reach_map`, which lists the
    vertices level by level: v has such a path when it reaches some
    vertex k - 1 levels below, at a positive level since k <= v.level,
    and (v, k) covers what it reaches k levels below, as in
    `covers_pair`.  A pair may not be followed by one starting at a
    vertex it covers."""
    table = []
    for v, reach in _reach_map(g).items():
        for k in range(1, min(max_len, v.level) + 1):
            if not reach[k - 1]:
                break
            table.append(((v, k), k, k * v.level - k * (k - 1) // 2, reach[k]))
    return table


def enumerate_B_basis(g: LayeredGraph, m: int, n: int) -> list[PairSequence]:
    """All non-covering pair sequences of total word length m and vertex
    weight n, in canonical order: (0, 0) has the empty sequence, and any
    other bidegree with m <= 0 or n <= 0 has none.

    The recurrence of `_sequence_counts`, on lists: going through the
    pair table in order, each pair (v, k) is prepended to every sequence
    of bidegree (m - k, n - weight) whose first vertex it does not
    cover.  The shorter lists are in canonical order too, so the result
    is.  Only the bidegrees the answer is assembled from are built, each
    kept as runs of sequences with one first vertex, and each held to
    LAGA_BUDGET sequences; the error names the requested bidegree.  None
    is longer than the answer: inserting (v, k) before the first pair
    that starts above v's level maps the sequences of (m - k, n - weight)
    one to one into those of (m, n)."""
    if m <= 0 or n <= 0:
        return [()] if (m, n) == (0, 0) else []
    budget = enumeration_budget()
    what = f"pair sequences for bidegree ({m},{n})"
    table = _pair_table(g, m)
    # the bidegrees the answer is assembled from, one pair's step at a time
    steps = {(k, w) for _, k, w, _ in table}
    needed = {(m, n)}
    todo = [(m, n)]
    while todo:
        length, weight = todo.pop()
        for k, w in steps:
            below = (length - k, weight - w)
            if below not in needed and (below == (0, 0) or min(below) > 0):
                needed.add(below)
                todo.append(below)
    # runs[(m', n')]: the sequences of that bidegree, as (first vertex,
    # sequences) runs in canonical order; the empty sequence has no first
    # vertex, so no pair covers it
    runs: dict[tuple[int, int], list] = {(0, 0): [(None, [()])]}
    for length, weight in sorted(needed - {(0, 0)}):
        here = []
        count = 0
        for pair, k, w, covered in table:
            below = runs.get((length - k, weight - w))
            if below is None:
                continue
            seqs = [(pair,) + s for u, run in below if u not in covered for s in run]
            if seqs:
                here.append((pair[0], seqs))
                count += len(seqs)
                _within_budget(count, what, budget)
        runs[length, weight] = here
    return [s for _, run in runs[m, n] for s in run]


def words_of_bidegree(g: LayeredGraph, m: int, n: int) -> list[Word]:
    """All words over V_+ of length m and vertex weight n."""
    if m < 0:
        return []
    if m == 0:
        return [()] if n == 0 else []
    verts = g.positive_vertices()
    top = g.top_level
    budget = enumeration_budget()
    # extend the prefixes one letter at a time, keeping those that can
    # still reach weight n: each extends to at least one word, so no list
    # here is longer than the answer, and no recursive closure (a
    # reference cycle) keeps the words alive after the caller drops them
    prefixes: list[tuple[Word, int]] = [((), 0)]
    for remaining in range(m - 1, 0, -1):
        prefixes = [
            (prefix + (v,), w)
            for prefix, weight in prefixes
            for v in verts
            if remaining + (w := weight + v.level) <= n and w + remaining * top >= n
        ]
        _within_budget(len(prefixes), f"word prefixes of bidegree ({m},{n})", budget)
    words = [
        prefix + (v,) for prefix, weight in prefixes for v in verts if weight + v.level == n
    ]
    _within_budget(len(words), f"words of bidegree ({m},{n})", budget)
    return words


@memo
def _vertex_paths_from(g: LayeredGraph, v: V, nverts: int) -> tuple[Word, ...]:
    """All vertex paths with nverts vertices starting at v."""
    if nverts == 1:
        return ((v,),)
    out = []
    for w in g.succ(v):
        if w.level == 0:
            continue
        for tail in _vertex_paths_from(g, w, nverts - 1):
            out.append((v,) + tail)
    return tuple(out)


@memo
def _path_counts(g: LayeredGraph, level: int, nverts: int) -> dict[V, int]:
    """The number of vertex paths with nverts <= level vertices from each
    vertex of `level`, counted level by level without building any."""
    count = dict.fromkeys(g.level_vertices(level - nverts + 1), 1)
    for lvl in range(level - nverts + 2, level + 1):
        count = {v: sum(count[w] for w in g.succ(v)) for v in g.level_vertices(lvl)}
    return count


def _sequence_counts(g: LayeredGraph, max_m: int, max_n: int) -> list[list[int]]:
    """total[m][n]: the number of non-covering pair sequences of length
    m and weight n, for m <= max_m and n <= max_n.

    A dynamic program keyed on the vertex each sequence starts at:
    prepending (v, k) to the sequences of bidegree (m - k, n - weight)
    gives all of them except those starting at a vertex that (v, k)
    covers.  It builds no word and no sequence, and takes
    O(max_m * max_n * pairs * covered vertices) steps."""
    _within_budget((max_m + 1) * (max_n + 1), f"grA count cells to bidegree ({max_m},{max_n})")
    table = _pair_table(g, max_m)
    total = [[0] * (max_n + 1) for _ in range(max_m + 1)]
    total[0][0] = 1
    # starts[m][n][u]: the sequences of bidegree (m, n) starting at u
    starts: list[list[dict[V, int]]] = [
        [{} for _ in range(max_n + 1)] for _ in range(max_m + 1)
    ]
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            here = starts[m][n]
            for (v, _), k, w, covered in table:
                if k > m or w > n or not total[m - k][n - w]:
                    continue
                below = starts[m - k][n - w]
                count = total[m - k][n - w] - sum(below.get(u, 0) for u in covered)
                if count:
                    here[v] = here.get(v, 0) + count
            total[m][n] = sum(here.values())
    return total


def gr_dimension(g: LayeredGraph, m: int, n: int) -> int:
    """dim of the bidegree-(m, n) component of the quotient by the full
    relation ideal: the number of non-covering pair sequences."""
    if m < 0 or n < 0:
        return 0
    return _sequence_counts(g, m, n)[m][n]


def in_relation_span(
    g: LayeredGraph, el: FreeElement, m: int, n: int
) -> bool:
    """Whether el lies in the bidegree-(m, n) relation span: its
    coefficients must sum to zero over every word class, the words with
    one normal form.  A term whose word is not of bidegree (m, n) raises
    `DimensionMismatch`; one that `normalize` cannot rewrite, because a
    run it must extend ends at a vertex with no successors, raises
    `EmptySuccessor`."""
    positive = set(g.positive_vertices())
    for w in el.terms:
        if len(w) != m or word_weight(w) != n or not positive.issuperset(w):
            raise DimensionMismatch(
                f"word {w} is not a word of bidegree ({m},{n})"
            )
    sums: dict[Word, object] = {}
    for w, c in el.terms.items():
        nf = normalize(g, w)
        sums[nf] = sums.get(nf, 0) + c
    return all(el.field(total) == 0 for total in sums.values())


def is_quadratic_to_degree(
    g: LayeredGraph, d: int
) -> tuple[bool, tuple[int, int] | None]:
    """Compare the quadratic closure against the full relation ideal in
    every bidegree with word length <= d; returns the first failure.

    Only the unpadded generators need checking.  Padding a chain of
    degree-2 rewrites on both sides gives a chain of degree-2 rewrites,
    so a generator in the quadratic closure stays there when padded;
    and a padded generator outside the closure has an unpadded one
    outside it, of no greater length.  So the first failing bidegree is
    (L, n) for the least length L at which some vertex has two L-vertex
    paths that degree-2 rewrites do not join, and n the least weight of
    such a vertex's paths.  Every L-vertex path from v has the weight
    `pair_weight((v, L))`, which grows with the level of v, so the
    levels are tried in ascending order."""
    for length in range(3, d + 1):
        for level in range(length, g.top_level + 1):
            for v in g.level_vertices(level):
                if not _degree2_connects(g, v, length):
                    return False, (length, pair_weight((v, length)))
    return True, None


def _degree2_connects(g: LayeredGraph, v: V, m: int) -> bool:
    """Whether degree-2 rewrites join every m-vertex path from v.

    A degree-2 rewrite at position i swaps letter i+1 for another
    successor of letter i.  It needs only letters i and i+1, so the
    prefix before a position moves on its own, and every letter the
    position before can take serves in turn.  So the words a path
    reaches form a product: letter 0 is v, and letter k ranges over its
    class under co-coverage from the successor sets of the letters
    position k-1 ranges over.  The paths are joined exactly when, at
    each position k, the letters of all of them, the vertices k levels
    below v that reach m-1-k levels further down, lie in one class."""
    reach = _reach_map(g)
    if not reach[v][m - 1]:
        return True  # no path at all
    letters = {v}
    for k in range(1, m):
        here = [u for u in reach[v][k] if reach[u][m - 1 - k]]
        if (letters := _cocoverage_class(g, letters, here)) is None:
            return False
    return True


@dataclass(frozen=True)
class HilbertTable:
    """Bigraded dimension table: entry[(m, n)] = dimension."""

    algebra: str
    max_m: int
    max_n: int
    entries: tuple[tuple[tuple[int, int], int], ...]

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)

    def render(self) -> str:
        dims = self.as_dict()
        header = "m\\n " + " ".join(f"{n:>4}" for n in range(1, self.max_n + 1))
        lines = [header]
        for m in range(1, self.max_m + 1):
            cells = " ".join(f"{dims.get((m, n), 0):>4}" for n in range(1, self.max_n + 1))
            lines.append(f"{m:>3} {cells}")
        return "\n".join(lines)


def gr_hilbert_table(g: LayeredGraph, max_m: int, max_n: int) -> HilbertTable:
    total = _sequence_counts(g, max(max_m, 0), max(max_n, 0))
    entries = tuple(
        ((m, n), total[m][n])
        for m in range(1, max_m + 1)
        for n in range(1, max_n + 1)
        if total[m][n]
    )
    return HilbertTable("grA", max_m, max_n, entries)

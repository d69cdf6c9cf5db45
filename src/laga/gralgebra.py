"""The graded vertex algebra of a layered graph.

Works inside the free algebra on the positive-level vertices.  The key
objects: distinguished downward paths, the coefficient elements obtained
by expanding edge products, run monomials m(v, k), the pair-sequence
basis, skeleton decomposition, normal-form rewriting, and per-bidegree
exact linear algebra for the quotient by equal-start path differences.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    EmptySuccessor,
    KOutOfRange,
    MultipleMinimal,
    UnsupportedField,
)
from .fields import QQ, FieldSpec
from .graphs import LayeredGraph, V, _reach_map, _UnionFind, memo
from .linalg import enumeration_budget

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
    path = [v]
    while path[-1].level > 0:
        nxt = g.succ(path[-1])
        if not nxt:
            raise EmptySuccessor(f"{path[-1]} has no successors")
        path.append(nxt[0])
    return tuple(path)


def monomial_m(g: LayeredGraph, v: V, k: int, field: FieldSpec = QQ) -> FreeElement:
    """The word made of the first k vertices of the distinguished path."""
    if not 0 <= k <= v.level:
        raise KOutOfRange(f"k={k} outside 0..{v.level}")
    return FreeElement.word(distinguished_path(g, v)[:k], field)


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
    # coefficients of the polynomial prod (t - f_i), indexed by word length
    coeffs = [FreeElement.scalar(1, field)]
    for f in factors:
        nxt = [FreeElement({}, field) for _ in range(len(coeffs) + 1)]
        for length, c in enumerate(coeffs):
            nxt[length] = nxt[length] + c  # choose t
            nxt[length + 1] = nxt[length + 1] + (c * f).scale(-1)  # choose -f_i
        coeffs = nxt
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
    """(v,k) |= (v',k'): a path of length k from v down to v' exists."""
    (v, k), (w, _) = p1, p2
    return v.level - w.level == k and g.reaches(v, w) and v != w


def sequence_monomial(g: LayeredGraph, pairs: PairSequence) -> Word:
    out: list[V] = []
    for v, k in pairs:
        out.extend(distinguished_path(g, v)[:k])
    return tuple(out)


def normalize(g: LayeredGraph, word: Word) -> Word:
    """Rewrite a word until its pair sequence has no covering step.

    Whenever a run of length k starting at b is followed by a vertex
    reachable from b by a length-k path, the run absorbs that vertex by
    extending the distinguished path one step; the rewrite preserves the
    image in the quotient by equal-start path differences.
    """
    word = tuple(word)
    for _ in range(10 * (len(word) + 1) ** 2):
        s = skeleton(g, word)
        pairs = to_pair_sequence(g, word)
        bad = next(
            (
                i
                for i in range(len(pairs) - 1)
                if covers_pair(g, pairs[i], pairs[i + 1])
            ),
            None,
        )
        if bad is None:
            return word
        start = s[bad]  # 1-based position where the offending run begins
        run_len = s[bad + 1] - s[bad]
        b = pairs[bad][0]
        new_run = distinguished_path(g, b)[: run_len + 1]
        word = word[: start - 1] + new_run + word[s[bad + 1] :]
    raise AssertionError("normalize failed to terminate")  # pragma: no cover


def enumerate_B_basis(g: LayeredGraph, m: int, n: int) -> list[PairSequence]:
    """All non-covering pair sequences of total word length m and vertex
    weight n, in canonical order.  The number of sequences is held to
    LAGA_BUDGET."""
    budget = enumeration_budget()
    reach = _reach_map(g)
    # every candidate pair once, in the canonical order, with its weight
    # and the vertices it covers: a pair (v, k) may not be followed by a
    # pair starting k levels below v at a vertex that v reaches
    table = [
        (
            (v, k),
            k,
            pair_weight((v, k)),
            frozenset(w for w in reach[v] if w.level == v.level - k),
        )
        for v in g.positive_vertices()
        for k in range(1, min(v.level, m) + 1)
    ]
    # an explicit stack, not a recursive closure: a closure that calls
    # itself is a reference cycle, which would keep `out` alive until the
    # cyclic collector ran
    out: list[PairSequence] = []
    stack: list[tuple[PairSequence, int, int, frozenset]] = [((), 0, 0, frozenset())]
    while stack:
        prefix, length, weight, covered = stack.pop()
        if length == m and weight == n:
            out.append(prefix)
            if len(out) > budget:
                raise BudgetExceeded(f"bidegree ({m},{n}) pair sequence count")
            continue
        if length >= m or weight >= n:
            continue
        stack.extend(
            (prefix + (pair,), length + k, weight + w, covers)
            for pair, k, w, covers in reversed(table)
            if length + k <= m and weight + w <= n and pair[0] not in covered
        )
    return out


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
        if len(prefixes) > budget:
            raise BudgetExceeded(f"bidegree ({m},{n}) word count")
    words = [
        prefix + (v,) for prefix, weight in prefixes for v in verts if weight + v.level == n
    ]
    if len(words) > budget:
        raise BudgetExceeded(f"bidegree ({m},{n}) word count")
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


def _word_count(g: LayeredGraph, m: int, n: int) -> int:
    """The number of words of bidegree (m, n), counted by length and
    weight from the level sizes, without building any word."""
    if m < 0 or n < 0:
        return 0
    top = g.top_level
    ways = [1] + [0] * n  # ways[w]: words of the current length, weight w
    for _ in range(m):
        ways = [
            sum(g.levels[k] * ways[w - k] for k in range(1, min(w, top) + 1))
            for w in range(n + 1)
        ]
    budget = enumeration_budget()
    if ways[n] > budget:
        raise BudgetExceeded(f"bidegree ({m},{n}) word count")
    return ways[n]


def _generator_word_pairs(g: LayeredGraph, gen_len: int):
    """Each equal-start path-difference generator as a pair of words."""
    pairs = []
    for v in g.positive_vertices():
        paths = _vertex_paths_from(g, v, gen_len)
        for other in paths[1:]:
            pairs.append((paths[0], other))
    return pairs


def _union_padded_pairs(
    g: LayeredGraph, m: int, n: int, uf: _UnionFind, gen_len: int
) -> None:
    """Merge word classes along padded length-`gen_len` generators.

    Every relation is a difference of two words, so the bidegree slice
    of the ideal is the span of within-class word differences and its
    codimension is the number of classes."""
    by_weight: dict[int, list] = {}
    for base, other in _generator_word_pairs(g, gen_len):
        by_weight.setdefault(word_weight(base), []).append((base, other))
    for lw in range(0, m - gen_len + 1):
        rw = m - gen_len - lw
        for gen_wt, gen_list in by_weight.items():
            for left_wt in range(0, n - gen_wt + 1):
                right_wt = n - gen_wt - left_wt
                lefts = words_of_bidegree(g, lw, left_wt)
                if not lefts:
                    continue
                rights = words_of_bidegree(g, rw, right_wt)
                if not rights:
                    continue
                for base, other in gen_list:
                    for lword in lefts:
                        lbase, lother = lword + base, lword + other
                        for rword in rights:
                            uf.union(lbase + rword, lother + rword)


def _word_classes(g: LayeredGraph, m: int, n: int) -> _UnionFind:
    """The word classes of bidegree (m, n) under padded generators of
    every length, for the dimension count and the relation-span test.
    The words are counted, not built: only those a padded generator
    touches enter the union-find."""
    uf = _UnionFind(_word_count(g, m, n))
    for gen_len in range(2, m + 1):
        _union_padded_pairs(g, m, n, uf, gen_len)
    return uf


def gr_dimension(g: LayeredGraph, m: int, n: int) -> int:
    """dim of the bidegree-(m, n) component of the quotient by the full
    relation ideal: the number of word classes under padded rewrites
    (every relation is a difference of two words)."""
    return _word_classes(g, m, n).count


def in_relation_span(
    g: LayeredGraph, el: FreeElement, m: int, n: int
) -> bool:
    """Whether el lies in the bidegree-(m, n) relation span: its
    coefficients must sum to zero over every word class.  A term whose
    word is not of bidegree (m, n) raises `DimensionMismatch`."""
    positive = set(g.positive_vertices())
    for w in el.terms:
        if len(w) != m or word_weight(w) != n or not positive.issuperset(w):
            raise DimensionMismatch(
                f"word {w} is not a word of bidegree ({m},{n})"
            )
    uf = _word_classes(g, m, n)
    sums: dict[Word, object] = {}
    for w, c in el.terms.items():
        root = uf.find(w)
        sums[root] = sums.get(root, 0) + c
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

    A degree-2 rewrite replaces word[i+1], a positive successor of
    word[i], by any positive successor of word[i].  A stack search from
    the first path reaches that path's class; the number of words it
    reaches is held to LAGA_BUDGET."""
    paths = _vertex_paths_from(g, v, m)
    if len(paths) < 2:
        return True
    pos_succ = {
        u: tuple(w for w in g.succ(u) if w.level > 0) for u in g.positive_vertices()
    }
    budget = enumeration_budget()
    seen = {paths[0]}
    stack = [paths[0]]
    while stack:
        word = stack.pop()
        for i in range(m - 1):
            options = pos_succ[word[i]]
            if word[i + 1] not in options:
                continue
            for w in options:
                nxt = word[: i + 1] + (w,) + word[i + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) > budget:
            raise BudgetExceeded(
                f"bidegree ({m},{word_weight(paths[0])}) rewrite search"
            )
    return seen.issuperset(paths)


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
    entries = []
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            dim = gr_dimension(g, m, n)
            if dim:
                entries.append(((m, n), dim))
    return HilbertTable("grA", max_m, max_n, tuple(entries))

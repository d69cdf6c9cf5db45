"""The bigraded quotient algebra on positive-level vertices.

Degree-2 relations kill products along non-edges and successor sums.
The non-edge relations leave only the vertex paths of a bidegree, so
`component` computes any bidegree by exact linear algebra over its
paths, which gives the Hilbert tables.  Degree-1 times degree-1
products, the structure constants, come in closed form from
`degree2_product`, one block per left vertex; the generic component is
its test oracle.  The kappa subspace of an element (kernel of left
multiplication) has a purely combinatorial description via class sums,
which is the primary path; the kernel of the structure constants serves
as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    LevelMismatch,
    MixedLevels,
    NotUniform,
    UnsupportedField,
)
from .fields import QQ, FieldSpec
from .graphs import ClassPartition, LayeredGraph, V, class_partition, is_uniform, memo
from .gralgebra import HilbertTable, _path_counts, _vertex_paths_from, gr_hilbert_table
from .linalg import (
    Subspace,
    _dense,
    _within_budget,
    full_space,
    identity,
    left_kernel,
    rank,
    reduce_vector,
    span,
    zero_space,
)

Word = tuple[V, ...]


@dataclass(frozen=True)
class BElement:
    """A degree-1 element: exact coordinates over the vertex basis of one
    level."""

    field: FieldSpec
    level: int
    coords: tuple

    def support(self) -> frozenset[V]:
        return frozenset(
            V(self.level, i) for i, c in enumerate(self.coords) if c != 0
        )

    def __add__(self, other: "BElement") -> "BElement":
        if other.level != self.level:
            raise LevelMismatch(f"{self.level} vs {other.level}")
        if other.field != self.field:
            raise UnsupportedField(
                f"{self.field.describe()} vs {other.field.describe()}"
            )
        return BElement(
            self.field,
            self.level,
            tuple(self.field.axpy(self.coords, -1, other.coords)),
        )


def vertex_element(g: LayeredGraph, v: V, field: FieldSpec = QQ) -> BElement:
    coords = [field.zero] * g.levels[v.level]
    coords[v.index] = field.one
    return BElement(field, v.level, tuple(coords))


def element(g: LayeredGraph, level: int, coords, field: FieldSpec = QQ) -> BElement:
    if len(coords) != g.levels[level]:
        raise DimensionMismatch(f"{len(coords)} coords for level of size {g.levels[level]}")
    return BElement(field, level, tuple(field.vector(coords)))


def relation_space(g: LayeredGraph, n: int, field: FieldSpec = QQ) -> Subspace:
    """Degree-2 relation span inside V_n (x) V_{n-1} coordinates
    (row-major): non-successor products plus successor sums.

    At n = 1 the level below holds no generators, so every product
    vanishes: the full space."""
    if n < 1 or n > g.top_level:
        return zero_space(0, field)
    cols = g.levels[n] * g.levels[n - 1]
    if cols == 0:
        return zero_space(cols, field)
    if n == 1:
        return full_space(cols, field)
    width = g.levels[n - 1]
    gens = []
    for v in g.level_vertices(n):
        sv = set(g.succ(v))
        row_base = v.index * width
        for w in g.level_vertices(n - 1):
            if w not in sv:
                gens.append({row_base + w.index: 1})
        gens.append({row_base + w.index: 1 for w in sv})
    return span(gens, cols, field)


def gr_quadratic_space(g: LayeredGraph, n: int, field: FieldSpec = QQ) -> Subspace:
    """Span of v (x) (u - w) for u, w successors of v, in the same
    coordinates as relation_space."""
    if n < 2 or n > g.top_level:
        cols = 0 if n < 1 or n > g.top_level else g.levels[n] * g.levels[n - 1]
        return zero_space(cols, field)
    width = g.levels[n - 1]
    cols = g.levels[n] * width
    gens = []
    for v in g.level_vertices(n):
        sv = g.succ(v)
        base = v.index * width
        gens += ({base + sv[0].index: 1, base + u.index: -1} for u in sv[1:])
    return span(gens, cols, field)


@dataclass(frozen=True)
class BigradedComponent:
    """One bidegree slice in the basis of its vertex paths (words whose
    adjacent letters are all edges; every other word is killed by a
    non-edge relation): the relation span inside the path-coordinate
    space, and the resulting dimension."""

    m: int
    n: int
    field: FieldSpec
    basis_words: tuple[Word, ...]
    relations: Subspace
    free_columns: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.free_columns)

    def project(self, vector) -> tuple:
        """Quotient coordinates: residual against the relation basis,
        restricted to non-pivot columns."""
        residual = reduce_vector(vector, self.relations)
        return tuple(residual[c] for c in self.free_columns)


def component(g: LayeredGraph, m: int, n: int, field: FieldSpec = QQ) -> BigradedComponent:
    """Exact bidegree-(m, n) component of the quotient algebra.

    A path descends one level per letter, so (m, n) fixes its start
    level s.  On paths, the successor sum of the letter before position
    j is the sum of the paths that agree off position j: one 0/1
    relation row per group."""
    twice = 2 * n + m * (m - 1)  # paths from level s have 2n = 2ms - m(m-1)
    s = twice // (2 * m) if m > 0 and twice % (2 * m) == 0 else 0
    paths: tuple[Word, ...] = ((),) if (m, n) == (0, 0) else ()
    if 0 < m <= s <= g.top_level:
        _within_budget(sum(_path_counts(g, s, m).values()), f"paths of bidegree ({m},{n})")
        paths = tuple(p for v in g.level_vertices(s) for p in _vertex_paths_from(g, v, m))
    gens = []
    for j in range(1, m):
        groups: dict[Word, list] = {}
        for i, p in enumerate(paths):
            groups.setdefault(p[:j] + p[j + 1 :], []).append(i)
        gens += (dict.fromkeys(cols, 1) for cols in groups.values())
    relations = span(gens, len(paths), field)
    pivots = set(relations.pivots)
    free_cols = tuple(c for c in range(len(paths)) if c not in pivots)
    return BigradedComponent(m, n, field, paths, relations, free_cols)


def b_dimension(g: LayeredGraph, m: int, n: int, field: FieldSpec = QQ) -> int:
    return component(g, m, n, field).dim


def b_hilbert_table(
    g: LayeredGraph, max_m: int, max_n: int, field: FieldSpec = QQ
) -> HilbertTable:
    """Only the bidegrees that hold paths are computed: the m-vertex
    paths from level s, m <= s <= top, of weight n = ms - m(m-1)/2."""
    entries = []
    for m in range(1, max_m + 1):
        for s in range(m, g.top_level + 1):
            n = m * s - m * (m - 1) // 2
            if n <= max_n and (dim := b_dimension(g, m, n, field)):
                entries.append(((m, n), dim))
    return HilbertTable("B", max_m, max_n, tuple(entries))


def _set_partition(g: LayeredGraph, vertex_set) -> ClassPartition:
    """`class_partition` of a vertex set, nonempty so that it has a level."""
    if not (vertex_set := frozenset(vertex_set)):
        raise MixedLevels("empty vertex set: pass a nonempty set, or use kappa_of_element")
    return class_partition(g, vertex_set)


def kappa_combinatorial(g: LayeredGraph, vertex_set, *, field: FieldSpec = QQ) -> Subspace:
    """Span of the class sums of the co-coverage partition, in the
    coordinates of the level below.  The classes are disjoint and sorted
    by their least vertex, so their sums already are the canonical
    basis, with pivots at those vertices."""
    part = _set_partition(g, vertex_set)
    rows = (tuple(sorted((w.index, 1) for w in cls)) for cls in part.classes)
    return Subspace(field, g.levels[part.ground_level], tuple(rows))


def _check_kappa_element(g: LayeredGraph, a: BElement) -> None:
    """Both kappa paths take an element of a positive level of g, with
    one coordinate per vertex of that level."""
    if a.level < 1:
        raise MixedLevels("kappa needs a positive level")
    if a.level > g.top_level:
        raise LevelMismatch(f"level {a.level} outside 1..{g.top_level}")
    if len(a.coords) != g.levels[a.level]:
        raise LevelMismatch(f"{len(a.coords)} coords at level of size {g.levels[a.level]}")


def kappa_of_element(g: LayeredGraph, a: BElement) -> Subspace:
    """Primary path: kappa of an arbitrary element via its support."""
    _check_kappa_element(g, a)
    if not a.support():
        return full_space(g.levels[a.level - 1], a.field)
    return kappa_combinatorial(g, a.support(), field=a.field)


def degree2_product(g: LayeredGraph, n: int, x, y, field: FieldSpec = QQ) -> tuple:
    """Product of a level-n vector x and a level-(n-1) vector y, in the
    free columns of `component(g, 2, 2n-1)`.

    The relation space splits into one block per left vertex v: every
    non-successor column and the first successor s0 (successors are
    sorted) are pivots, so v contributes x_v * (y_s - y_s0) for each
    further successor s, and nothing when it has at most one.  A block
    with x_v = 0 is zero without field arithmetic, and an entry with
    y_s = y_s0 without a product, so a vertex element, a unit vector or
    a sparse level map costs little.  Level 0 holds no generators, so at
    n = 1 the component is zero and the product is ().  A level outside
    1..top or a wrong coordinate count raises `LevelMismatch`."""
    if not 1 <= n <= g.top_level:
        raise LevelMismatch(f"level {n} outside 1..{g.top_level}")
    if len(x) != g.levels[n] or len(y) != g.levels[n - 1]:
        raise LevelMismatch(
            f"{len(x)} and {len(y)} coords at levels of sizes {g.levels[n]} and {g.levels[n - 1]}"
        )
    if n == 1:
        return ()
    entries = _product_entries(g, n, enumerate(field.vector(x)), field.entries(y), field)
    return tuple(_dense(entries, _product_blocks(g, n)[1], field))


def _product_entries(g: LayeredGraph, n: int, x_entries, y: dict, field: FieldSpec):
    """The nonzero entries (column, value) of `degree2_product`, for x given
    as (index, value) pairs, in column order when those come in index
    order, and y a mapping {index: value} that may omit zeros, all in the
    field; over Q the products as they come, ints when x and y hold ints."""
    blocks, p = _product_blocks(g, n)[0], field.p
    for v, a in x_entries:
        start, succ = blocks[v]
        if a and len(succ) > 1:
            y0 = y.get(succ[0], 0)
            for k, s in enumerate(succ[1:], start):
                if (b := y.get(s, 0)) != y0:
                    c = a * (b - y0)
                    yield k, c if p is None else c % p


@memo
def _product_blocks(g: LayeredGraph, n: int):
    """(start column, successor indices) of each level-n vertex's block of
    `degree2_product`, and the total width."""
    blocks, width = [], 0
    for v in g.level_vertices(n):
        succ = tuple(w.index for w in g.succ(v))
        blocks.append((width, succ))
        width += max(len(succ) - 1, 0)
    return tuple(blocks), width


def kappa_kernel(g: LayeredGraph, a: BElement) -> Subspace:
    """Oracle path: kernel of left multiplication into the degree-2
    component, computed from structure constants: row j is a times the
    unit vector e_j = {j: 1}, as the entry dict of `_product_entries`."""
    _check_kappa_element(g, a)
    field, n, d = a.field, a.level, g.levels[a.level - 1]
    if n == 1:
        return full_space(d, field)  # level 1 multiplies into nothing
    x = field.entries(a.coords).items()
    return left_kernel([dict(_product_entries(g, n, x, {j: 1}, field)) for j in range(d)], field)


def k_stats(g: LayeredGraph, vertex_set):
    """(k_A, k_A^A, |S(A)|).  The class sums have disjoint supports, so
    k_A is also the dimension of `kappa_combinatorial`."""
    part = _set_partition(g, vertex_set)
    return part.k, part.k_meeting, len(part.successor_set)


def quadratic_dual_check(g: LayeredGraph, n: int, field: FieldSpec = QQ) -> bool:
    """Whether `relation_space` and `gr_quadratic_space` annihilate each
    other exactly; True on every uniform graph, with nothing to compute.

    Both are direct sums of one block per level-n vertex v: the relation
    block is span(e_w for w not in S(v), Sigma S(v)) and the grA block is
    span(e_s0 - e_s) for each successor s after the first, s0.  Their
    dimensions, d_{n-1} - |S(v)| + 1 and |S(v)| - 1 (d_{n-1} and 0 when
    S(v) is empty), sum to d_{n-1}, and they pair to zero, on every graph
    and over every field.  `koszul_defect` is the check that can fail.
    A level outside 1..top raises `LevelMismatch`."""
    if not 1 <= n <= g.top_level:
        raise LevelMismatch(f"level {n} outside 1..{g.top_level}")
    uniform, _ = is_uniform(g)
    if not uniform:
        raise NotUniform("quadratic duality needs a uniform graph")
    return True


def koszul_defect(g: LayeredGraph, max_m: int) -> tuple[tuple[int, int, int], ...]:
    """The nonzero coefficients (m, n, c), m <= max_m, of
    H_B(s, t) * H_grA(-s, t) - 1, with both dimensions 1 at (0, 0).

    When grA is Koszul with quadratic dual B the product is 1, so an
    empty result is necessary for Koszulity, not a proof of it
    (numerical Koszulness; Polishchuk-Positselski, Quadratic Algebras).
    A word of length m weighs at most m * top, which bounds the tables."""
    max_n = max_m * g.top_level
    b = b_hilbert_table(g, max_m, max_n).as_dict()
    gr = gr_hilbert_table(g, max_m, max_n).as_dict()
    b[0, 0] = gr[0, 0] = 1
    coeffs: dict[tuple[int, int], int] = {}
    for (i, k), db in b.items():
        for (j, l), dg in gr.items():
            if 0 < i + j <= max_m:
                coeffs[i + j, k + l] = coeffs.get((i + j, k + l), 0) + (-1) ** j * db * dg
    return tuple(sorted((m, n, c) for (m, n), c in coeffs.items() if c))


def iso_condition_check(
    g1: LayeredGraph,
    g2: LayeredGraph,
    level_maps: dict[int, list[list]],
    field: FieldSpec = QQ,
) -> bool:
    """Whether invertible per-level maps induce a bigraded isomorphism:
    the image of every vertex kappa must be the kappa of the image.

    level_maps[n][i] is the coordinate vector (over g2's level-n vertex
    basis) of the image of g1's vertex (n, i).
    """
    if g1.levels != g2.levels:
        raise DimensionMismatch(f"{g1.levels} vs {g2.levels}")
    maps = {}
    for lvl in range(1, g1.top_level + 1):
        mat = level_maps.get(lvl)
        if mat is None:
            mat = identity(g1.levels[lvl], field)
        mat = [field.vector(row) for row in mat]
        if len(mat) != g1.levels[lvl] or rank(mat, field) != g1.levels[lvl]:
            raise DimensionMismatch(f"level {lvl} map is not invertible")
        maps[lvl] = mat
    for n in range(2, g1.top_level + 1):
        for v in g1.level_vertices(n):
            kv = kappa_combinatorial(g1, [v], field=field)
            image_rows = [field.combine(row, maps[n - 1]) for row in kv.basis]
            phi_kv = span(image_rows, g1.levels[n - 1], field)
            image_v = BElement(field, n, tuple(maps[n][v.index]))
            k_phi_v = kappa_of_element(g2, image_v)
            if phi_kv != k_phi_v:
                return False
    return True


def kappa_profile(g: LayeredGraph, n: int):
    """Per-vertex (k, |S|) data for one level, for reporting."""
    out = []
    for v in g.level_vertices(n):
        k, km, s = k_stats(g, [v])
        out.append({"vertex": [v.level, v.index], "k": k, "out_degree": s})
    return out

"""Graph recovery from bigraded algebra data alone.

The pipeline sees only an `AlgebraView`: per-level dimensions plus the
bilinear structure constants of degree-1 times degree-1 multiplication,
in an opaque coordinate basis; a scrambled view relabels and rescales
each degree-1 level at random.  From that it builds upper vertex-like
bases by peeling right-multiplication kernels, one vertex ray per pass
(an exhaustive max-kernel ray scan is the fallback for nested views),
reads off out-degree multisets and successor intersections, and
reconstructs the hidden graph for non-nesting posets, Boolean lattices,
and subspace lattices.  The lattices share one driver, which reads each
hidden atom off the level-2 basis as a maximal set of kernels whose
intersection keeps dimension 2, found by a seeded greedy closure.  Every
reconstruction is certified against an independently built reference
with the graph isomorphism checker.

Convention: the view reports level 0 as dimension 0 (the minimal vertex
generates nothing), so the kernel of left multiplication at level 1 is
the zero space and `intersection_size` still returns 1 there.  Upper
bases, and the out-degrees read off them, start at level 2.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
import random
from dataclasses import dataclass

from .balgebra import BElement, _product_entries
from .errors import (
    DimensionMismatch,
    LevelMismatch,
    NonNestingViolated,
    NotUniform,
    ReconstructionFailed,
    UnsupportedField,
    VerificationFailed,
)
from .fields import GF, FieldSpec, _is_prime
from .graphs import (
    LayeredGraph,
    V,
    _is_int_list,
    are_isomorphic,
    build_boolean,
    build_graph,
    build_subspace_lattice,
    gaussian_binomial,
    is_non_nesting,
    is_uniform,
    memo,
)
from .linalg import (
    Subspace,
    _dense,
    _extend_echelon,
    _holds,
    _reduce,
    _within_budget,
    enumerate_rays,
    full_space,
    identity,
    left_kernel,
    zero_space,
)

F3 = GF(3)

# draws of y per level-2 vertex ray before peeling gives up; plain and
# scrambled views need none (see `_kernel_source`).  A uniform y lies in
# kappa(v) with probability p^-(codim kappa(v)): 1 on Boolean lattices,
# q on subspace lattices.  Over F_2..F_7, random-basis seeds 1-4, Boolean
# ranks 3-6 needed at most 7 draws per ray, subspace (2,3) 30 and (3,3)
# 133 (over F_7).  The full bound is spent only where peeling cannot
# succeed, as on nested views.
_KERNEL_DRAWS_PER_RAY = 500

# greedy closure passes per level-1 set sought before the search gives
# up.  Each pass lands on a maximal set of any size, new or found
# before, so unlike vertex-ray peeling this search needs a pass bound.
# Over F_2..F_7, scramble seeds 1-4, Boolean ranks 3-6 and subspace
# (2,3), (3,3) and (2,4) needed at most 16 passes for 15 sets.  So 4 per
# set leaves a wide margin and stays linear.
_CLOSURE_PASSES_PER_SET = 4


@dataclass(frozen=True)
class AlgebraView:
    """Structure constants of the algebra in an opaque basis.

    level_dims[n] is the dimension of the degree-(1, n) component
    (entry 0 is always 0).  For n >= 2, cells[n][i] holds the pairs
    (j, cell), j ascending, where the product of level-n basis vector i
    with level-(n-1) basis vector j is nonzero, with the nonzero entries
    of its quotient coordinates as the cell: (k, value) pairs, k
    ascending.  Every other product is zero.  Reconstruction code may
    consult nothing else.  widths[n], the number of quotient coordinates,
    is read off the cells: the products span the degree-2 component, so
    it is one past the largest k, and 0 where level n stores no cell.
    """

    field: FieldSpec
    level_dims: tuple[int, ...]
    cells: tuple
    plain: bool = False
    # the upper basis of each level, once computed (see `memo`)
    _cache: dict = dataclasses.field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    @property
    def top_level(self) -> int:
        return len(self.level_dims) - 1

    @property
    def widths(self) -> tuple[int, ...]:
        return (0, 0) + tuple(
            max((cell[-1][0] + 1 for row in self.cells[n] for _, cell in row), default=0)
            for n in range(2, self.top_level + 1)
        )

    def multiply(self, n: int, x, y) -> tuple:
        """Bilinear product of a level-n vector and a level-(n-1) vector,
        as one `FieldSpec.combine` over every stored cell (i, j), made
        dense, weighted by x_i * y_j.  The view kernels group the cells by
        row or column; this is the reference the tests hold them to."""
        if n < 2 or n > self.top_level:
            return ()
        field, width = self.field, self.widths[n]
        x, y = field.vector(x), field.vector(y)
        pairs = [(x[i] * y[j], cell) for i, row in enumerate(self.cells[n]) for j, cell in row]
        cells = [_dense(cell, width, field) for _, cell in pairs]
        return tuple(field.combine([c for c, _ in pairs], cells))


def _scramble_maps(g: LayeredGraph, field: FieldSpec, rng) -> dict[int, tuple]:
    """Random per-level monomial maps, drawn level by level: a uniformly
    random permutation of the vertex basis with a uniformly random
    nonzero scalar on each vector.  Level n's map is (vertices, scalars):
    its basis vector i is scalars[i] times the vertex vertices[i].  Any
    invertible maps present the same algebra, so nothing needs
    certifying.  A view then hides a relabelling and a rescaling of every
    degree-1 level, which need not be a graph automorphism.  Dense random
    maps would hide more, but recovery on them is 3 to 10 times slower:
    medians over scramble seeds 1-5 of about 3x on Boolean 5 over F_5, 6x
    on Boolean 6 over F_3 and 8-10x on the subspace lattice of F_3^3."""
    nonzero = range(1, field.p) if field.p else (1, 2, 3, -1, -2)
    maps = {}
    for n in range(1, g.top_level + 1):
        vertices = rng.sample(range(g.levels[n]), g.levels[n])
        maps[n] = vertices, [field(rng.choice(nonzero)) for _ in vertices]
    return maps


def algebra_view(
    g: LayeredGraph, field: FieldSpec = F3, scramble_seed: int | None = None
) -> AlgebraView:
    """Structure constants of the algebra of a uniform graph; with a
    seed, each degree-1 level is relabelled and rescaled at random."""
    uniform, witness = is_uniform(g)
    if not uniform:
        raise NotUniform(f"witness: {witness}")
    if scramble_seed is None:
        maps = {n: (range(d), [field.one] * d) for n, d in enumerate(g.levels) if n}
    else:
        maps = _scramble_maps(g, field, random.Random(scramble_seed))
    cells = (None, None) + tuple(
        _nonzero_cells(g, n, maps[n], maps[n - 1], field) for n in range(2, g.top_level + 1)
    )
    return AlgebraView(field, (0,) + g.levels[1:], cells, plain=scramble_seed is None)


def _nonzero_cells(g: LayeredGraph, n: int, xs, ys, field: FieldSpec) -> tuple:
    """The nonzero cells of level n in the monomial bases xs of level n
    and ys of level n-1, each given as (vertices, scalars), as the
    (j, cell) pairs of each row.  A product is zero off edges, so a row
    multiplies out only the columns whose vertex is a successor of its
    own, and drops a cell that still comes out zero, as at a vertex with
    one successor."""
    units = [{w: b} for w, b in zip(*ys)]  # each column's vector, as a mapping
    col_of = {w: j for j, w in enumerate(ys[0])}
    rows = []
    for v, a in zip(*xs):
        live = sorted(col_of[w.index] for w in g.succ(V(n, v)))
        cells = ((j, tuple(_product_entries(g, n, [(v, a)], units[j], field))) for j in live)
        rows.append(tuple((j, cell) for j, cell in cells if cell))
    return tuple(rows)


def kappa_view(view: AlgebraView, n: int, coords) -> Subspace:
    """Kernel of left multiplication by a level-n view element, as a
    canonical subspace in level-(n-1) view coordinates."""
    if not 1 <= n <= view.top_level:
        raise LevelMismatch(f"level {n} outside 1..{view.top_level}")
    norm = tuple(view.field.vector(coords))
    if len(norm) != view.level_dims[n]:
        raise LevelMismatch(f"{len(norm)} coords at level of dimension {view.level_dims[n]}")
    if n == 1:
        return zero_space(0, view.field)  # level 1 multiplies into nothing
    # coords * e_j sums the cells of column j in the rows coords touches
    cols: list = [[] for _ in range(view.level_dims[n - 1])]
    for i, c in enumerate(norm):
        if c:
            for j, cell in view.cells[n][i]:
                cols[j].append((i, cell))
    return left_kernel([_combine_cells(norm, col) for col in cols], view.field)


@dataclass(frozen=True)
class UpperBasis:
    """A greedy max-k basis of one degree-(1, n) component, with the
    kernel subspace and its dimension recorded per vector."""

    level: int
    vectors: tuple
    kappas: tuple
    ks: tuple


def _combine_cells(coeffs, cells) -> dict:
    """The sum of c * cell over the pairs (k, cell) with c = coeffs[k]
    nonzero, as {column: sum} in plain ints over F_p; `left_kernel`
    reduces each sum once and drops those that vanish."""
    acc: dict = {}
    get = acc.get
    for k, cell in cells:
        if c := coeffs[k]:
            for col, b in cell:
                acc[col] = get(col, 0) + c * b
    return acc


def _right_mult_kernel(view: AlgebraView, n: int, y) -> Subspace:
    """{a in the level-n component : a * y = 0} for y one level down."""
    return left_kernel([_combine_cells(y, row) for row in view.cells[n]], view.field)


def _kernel_source(view: AlgebraView, n: int):
    """The kernels R(y) a peeling pass at level n cuts with, in order: of
    the level-(n-1) basis vectors y at n >= 3; at n = 2 of the level-1 unit
    vectors (scaled hidden vertices in a plain or scrambled view), then of
    y drawn from a stream seeded by the level.  A repeated y, a kernel of
    dimension 0 or d, and one seen before cut nothing new and are skipped.
    The draws stop after `_KERNEL_DRAWS_PER_RAY` per ray."""
    field = view.field
    d, d_prev = view.level_dims[n], view.level_dims[n - 1]
    if n > 2:
        ys = _upper_basis(view, n - 1).vectors
    else:
        rng = random.Random(0x1A6A ^ (n << 16) ^ d)
        draws = (
            tuple(field(rng.randrange(field.p)) for _ in range(d_prev))
            for _ in range(_KERNEL_DRAWS_PER_RAY * d)
        )
        ys = itertools.chain(map(tuple, identity(d_prev, field)), draws)
    seen_ys, seen = set(), set()
    for y in ys:
        if y in seen_ys:
            continue
        seen_ys.add(y)
        ker = _right_mult_kernel(view, n, y)
        if 0 < ker.dim < d and ker.key() not in seen:
            seen.add(ker.key())
            yield ker


def _peeled_vertex_rays(view: AlgebraView, n: int):
    """Vertex rays at level n >= 2, one in each of d passes over the
    kernels R(y) = {a : a * y = 0} of y one level down.

    The degree-2 relation space splits over left factors, so R(y) spans
    the vertices v with y in the kernel of v, and so does every
    intersection of such kernels.  A pass starts from the whole space
    and, in list order, keeps R(y) when the intersection so far, cut by
    R(y), still lies outside the span of the rays found; an R(y) holding
    the intersection cannot cut it.  The list grows from `_kernel_source`
    only when a pass has used all of it and is still above dimension 1.
    Had a pass ended on two unfound vertices, or an unfound u and a found
    f, non-nesting gives a y in the kernel of u and not of the other: a
    hidden vertex one level down, which a basis vector at n >= 3 and a
    unit vector of a monomial view at n = 2 are, and in other views a
    uniform draw with positive probability.  The pass would have kept its
    R(y).  So each pass ends on one new ray, and one that does not, as on
    nested views, raises VerificationFailed.

    A pass follows the last one up to the first cut the last pass kept
    that now lies in the found span; one exists, since the last ray
    does, and every cut the last pass dropped lay in the smaller span.
    So a pass resumes there, from the cut before it, and repeats no
    intersection.
    """
    d, field = view.level_dims[n], view.field
    source = _kernel_source(view, n)
    kernels: list = []
    rays: list = []
    found: dict = {}  # the echelon of the rays found
    whole = full_space(d, field)
    cuts: list = []  # the last pass's kept cuts, as (kernels used, intersection)
    while len(rays) < d:
        # the cuts shrink, so those in the found span come last
        j = bisect.bisect_left(cuts, True, key=lambda cut: _holds(found, cut[1], field))
        i = cuts[j][0] if cuts else 0
        del cuts[j:]
        acc = cuts[-1][1] if cuts else whole
        while acc.dim > 1:
            if i == len(kernels):
                ker = next(source, None)
                if ker is None:
                    draws = f" and {_KERNEL_DRAWS_PER_RAY * d} draws" if n == 2 else ""
                    raise VerificationFailed(
                        f"peeling at level {n} ended on dimension {acc.dim} "
                        f"after {len(rays)} of {d} vertex rays{draws}"
                    )
                kernels.append(ker)
            ker = kernels[i]
            i += 1
            if ker.contains_subspace(acc):
                continue
            meet = ker if acc is whole else acc.intersect(ker)
            # a meet larger than the found span cannot lie in it
            if meet.dim > len(found) or not _holds(found, meet, field):
                acc = meet
                cuts.append((i, acc))
        rays.append(tuple(_dense(acc.rows[0], d, field)))
        _extend_echelon(found, [dict(acc.rows[0])], field)
    return rays


def upper_vertex_like_basis(view: AlgebraView, n: int) -> UpperBasis:
    """A basis of the level-n component whose vectors maximize, greedily,
    the kernel dimension of left multiplication.

    The vertex rays are intersections of right-multiplication kernels
    (finite fields only), peeled in d passes of one ray each: of seeded
    random y at level 2 and of the level-(n-1) basis vectors above it.
    Where peeling gives up, as on nested views, the basis falls back to
    an exhaustive scan of every ray, bounded by `LAGA_BUDGET`.
    The result is kept once per view and level.  On an unscrambled view
    it must reproduce the kernel multiset of the vertex basis.  Level 1
    multiplies into nothing, so bases start at level 2.
    """
    if not 2 <= n <= view.top_level:
        raise LevelMismatch(f"level {n} outside 2..{view.top_level}")
    return _upper_basis(view, n)


@memo
def _upper_basis(view: AlgebraView, n: int) -> UpperBasis:
    field = view.field
    if field.is_rational:
        raise UnsupportedField("vertex-ray peeling needs a finite field")
    try:
        pairs = [(r, kappa_view(view, n, r)) for r in _peeled_vertex_rays(view, n)]
        chosen = sorted(pairs, key=lambda item: (-item[1].dim, item[0]))
    except VerificationFailed:
        chosen = _exhaustive_scan(view, n)
    if view.plain:
        vertex_forms = sorted(
            kappa_view(view, n, unit).key() for unit in identity(view.level_dims[n], field)
        )
        basis_forms = sorted(kap.key() for _, kap in chosen)
        if vertex_forms != basis_forms:
            raise VerificationFailed("kernel multiset does not match the vertex basis")
    return UpperBasis(
        level=n,
        vectors=tuple(x for x, _ in chosen),
        kappas=tuple(kap for _, kap in chosen),
        ks=tuple(kap.dim for _, kap in chosen),
    )


def _exhaustive_scan(view: AlgebraView, n: int) -> list:
    """(vector, kernel) pairs chosen greedily by kernel dimension from
    every ray of the component, ties broken by lex order.  The unit
    vectors are rays, so d vectors are always kept.

    The choice respects the filtration by kernel dimension: for each t,
    the chosen vectors with k >= t span every ray with k >= t.  Rays come
    in descending k and each one outside the span so far is kept, so once
    the last ray with k >= t is seen, the vectors kept by then span them
    all.  If the scan stops at d vectors before that, every vector kept
    has k >= t, and together they span the whole space.
    """
    field = view.field
    d = view.level_dims[n]
    scored = [(x, kappa_view(view, n, x)) for x in enumerate_rays(field, d)]
    scored.sort(key=lambda s: -s[1].dim)  # stable: lex order within each k
    chosen, echelon = [], {}  # and the echelon of the vectors chosen
    for x, kap in scored:
        if len(chosen) == d:
            break
        if _extend_echelon(echelon, [field.entries(x)], field) > len(chosen):
            chosen.append((x, kap))
    return chosen


def outdegree_multiset(view: AlgebraView, n: int) -> list[int]:
    """Hidden out-degrees at level n: level_dims[n-1] - k + 1 per vector
    of the upper basis, sorted ascending."""
    basis = upper_vertex_like_basis(view, n)
    return sorted(view.level_dims[n - 1] - k + 1 for k in basis.ks)


def intersection_size(view: AlgebraView, b1: BElement, b2: BElement) -> int:
    """|S(v) meet S(w)| for the hidden vertices behind two upper-basis
    vectors; values <= 1 do not distinguish 0 from 1."""
    if b1.level != b2.level:
        raise LevelMismatch(f"{b1.level} vs {b2.level}")
    for b in (b1, b2):
        if b.field != view.field:
            raise UnsupportedField(
                f"{b.field.describe()} element in a {view.field.describe()} view"
            )
    n = b1.level
    kap1 = kappa_view(view, n, b1.coords)
    kap2 = kappa_view(view, n, b2.coords)
    k12 = kap1.intersect(kap2).dim
    return view.level_dims[n - 1] + k12 - kap1.dim - kap2.dim + 1


def _nonnesting_core(view: AlgebraView):
    """Upper bases for every level >= 2 plus the recovered Hasse diagram
    on those levels (re-based so the old level 2 becomes level 0)."""
    top = view.top_level
    if top < 2:
        raise ReconstructionFailed("no levels above 1 to recover")
    bases = {i: upper_vertex_like_basis(view, i) for i in range(2, top + 1)}
    for i in range(2, top + 1):
        for pos, k in enumerate(bases[i].ks):
            if view.level_dims[i - 1] - k + 1 <= 1:
                raise NonNestingViolated(f"level {i} vector {pos} has successor count <= 1")
    # above level 2 the lower basis vectors are scaled hidden vertices, so
    # kappa(a) contains kappa(b) just when succ(a) lies in succ(b): nesting
    # there is read off the recovered graph, in the same pair order
    kappas = bases[2].kappas
    for a, b in itertools.permutations(range(len(kappas)), 2):
        # nested kernels of equal dimension are equal
        ka, kb = kappas[a], kappas[b]
        if ka == kb or ka.dim > kb.dim and ka.contains_subspace(kb):
            raise NonNestingViolated(f"nested successor sets at level 2 (vectors {a}, {b})")
    edges = []
    for i in range(3, top + 1):
        upper, lower = bases[i], bases[i - 1]
        xs = [view.field.entries(x) for x in lower.vectors]
        for a, kap in enumerate(upper.kappas):
            succ = [j for j, x in enumerate(xs) if not kap.contains_vector(x)]
            expected = view.level_dims[i - 1] - upper.ks[a] + 1
            if len(succ) != expected:
                raise NonNestingViolated(
                    f"level {i} vector {a}: {len(succ)} successors, expected {expected}"
                )
            edges += [(V(i - 2, a), V(i - 3, j)) for j in succ]
    graph = build_graph(tuple(view.level_dims[2:]), edges)
    if nested := is_non_nesting(graph)[1]:
        p, q = nested
        raise NonNestingViolated(
            f"nested successor sets at level {p.level + 2} (vectors {p.index}, {q.index})"
        )
    return graph, bases


def reconstruct_nonnesting(view: AlgebraView) -> LayeredGraph:
    """The hidden graph on levels >= 2, up to within-level relabeling.

    Raises NonNestingViolated when the view exhibits nested or
    singleton successor sets, which make the hidden graph ambiguous.
    """
    return _nonnesting_core(view)[0]


def _annihilator(space: Subspace) -> list:
    """Equations cutting out a subspace, as entry dicts, read off its RREF
    basis b_i with pivots p_i: e_f - sum_i b_i[f] e_(p_i) for each free
    column f.  A row is zero at the other pivots, so its entries after
    the first sit at free columns."""
    field, pivots = space.field, set(space.pivots)
    eqs = {f: {f: field.one} for f in range(space.ambient_dim) if f not in pivots}
    for row in space.rows:
        for f, b in row[1:]:
            eqs[f][row[0][0]] = field(-b)
    return list(eqs.values())


def _level_one_sets(basis2: UpperBasis, size: int, count: int):
    """The `count` sets A(u) = {v : u not in S(v)} of level-2 basis
    indices, one per hidden level-1 vertex u, found by greedy closure.

    The degree-2 quotient splits into one block per left vertex, so the
    kappa of a set of basis vectors is the intersection of their kappas.
    Over A(u) that intersection is span(u, Sigma), of dimension 2, and
    A(u) is maximal among sets whose intersection keeps dimension >= 2;
    every other maximal set is smaller.  A pass visits the indices in a
    seeded order, least covered first, keeps each one that leaves the
    intersection of dimension >= 2, and accepts its set if it has `size`
    members.  The certificate then shows that no other such set exists.
    A pass keeps one echelon of the equations cutting out the kappas
    kept, so the intersection has dimension d minus its rank.  A kappa's
    equations are reduced against it and ranked on their own, and join
    it only when the kappa is kept.
    """
    kappas = basis2.kappas
    field, d = kappas[0].field, kappas[0].ambient_dim
    eqs = [_annihilator(kap) for kap in kappas]
    rng = random.Random(0x1A6A ^ size)
    order = list(range(len(kappas)))
    cover = [0] * len(order)
    found: set[tuple] = set()
    passes = 0
    while len(found) < count and passes < _CLOSURE_PASSES_PER_SET * count:
        passes += 1
        rng.shuffle(order)
        order.sort(key=cover.__getitem__)
        echelon, kept = {}, []
        for j in order:
            cut: dict = {}
            _extend_echelon(cut, (_reduce(dict(eq), echelon, field) for eq in eqs[j]), field)
            if d - len(echelon) - len(cut) >= 2:
                kept.append(j)
                _extend_echelon(echelon, cut.values(), field)
        kept = tuple(sorted(kept))
        if len(kept) == size and kept not in found:
            found.add(kept)
            for j in kept:
                cover[j] += 1
    if len(found) < count:
        raise ReconstructionFailed(
            f"level-1 sets: found {len(found)} of {count} sets of size {size} "
            f"in {passes} closure passes"
        )
    return [frozenset(a) for a in sorted(found)]


def _recover_lattice(view: AlgebraView, expected: tuple, build, name: str) -> LayeredGraph:
    """Recover an atom-transitive lattice with level dimensions `expected`:
    upper bases, then per atom the set of level-2 vertices not above it,
    as large as for any atom of the reference `build()`, then the graph,
    certified against the reference."""
    if view.level_dims[1:] != expected:
        raise ReconstructionFailed(
            f"level dimensions {view.level_dims[1:]} do not match the {name}: {expected}"
        )
    upper, bases = _nonnesting_core(view)
    reference = build()
    size = expected[1] - len(reference.pred(V(1, 0)))
    asets = _level_one_sets(bases[2], size, expected[0])
    d1 = view.level_dims[1]
    levels = (1, d1) + tuple(view.level_dims[2:])
    edges = [(V(1, i), V(0, 0)) for i in range(d1)]
    for i, a_set in enumerate(asets):
        for b in range(view.level_dims[2]):
            if b not in a_set:
                edges.append((V(2, b), V(1, i)))
    edges += [
        (V(t.level + 2, t.index), V(h.level + 2, h.index)) for t, h in upper.edges
    ]
    result = build_graph(levels, edges, unique_minimal=True)
    if are_isomorphic(result, reference) is None:
        raise ReconstructionFailed(f"output is not isomorphic to the {name}")
    return result


def reconstruct_boolean(view: AlgebraView, n: int) -> LayeredGraph:
    """Full recovery of the rank-n Boolean lattice (n >= 3), certified."""
    if n < 3:
        raise ReconstructionFailed("Boolean recovery needs rank n >= 3")
    expected = tuple(math.comb(n, i) for i in range(1, n + 1))
    return _recover_lattice(view, expected, lambda: build_boolean(n), f"rank-{n} Boolean lattice")


def reconstruct_subspace(view: AlgebraView, q: int, n: int) -> LayeredGraph:
    """Full recovery of the subspace lattice of F_q^n (n >= 3), certified."""
    if q < 2 or not _is_prime(q):
        raise UnsupportedField(f"q = {q}: only prime fields are supported")
    if n < 3:
        raise ReconstructionFailed("subspace recovery needs rank n >= 3")
    expected = tuple(gaussian_binomial(n, k, q) for k in range(1, n + 1))
    name = f"subspace lattice of F_{q}^{n}"
    return _recover_lattice(view, expected, lambda: build_subspace_lattice(q, n), name)


# --- reporting and serialization -------------------------------------------


def _scalar_to_json(x):
    return x if isinstance(x, int) else str(x)


def _scalar_from_json(field: FieldSpec, raw):
    if type(raw) not in (int, str):
        raise DimensionMismatch(f"view entry {raw!r} is neither an int nor a string")
    try:
        return field(raw)
    except (ValueError, ZeroDivisionError, UnsupportedField) as exc:
        raise DimensionMismatch(f"view entry {raw!r} is not in {field.describe()}") from exc


def view_to_json_dict(view: AlgebraView) -> dict:
    """The view as JSON: per level n >= 2, each nonzero entry of each cell
    as [i, j, k, value], (i, j, k) strictly increasing, ints as ints and
    rationals as strings."""
    cells = {
        str(n): [
            [i, j, k, _scalar_to_json(x)]
            for i, row in enumerate(view.cells[n])
            for j, cell in row
            for k, x in cell
        ]
        for n in range(2, view.top_level + 1)
    }
    return {
        "field": view.field.p,
        "level_dims": list(view.level_dims),
        "plain": view.plain,
        "cells": cells,
    }


def _level_from_json(field: FieldSpec, entries, n: int, dims: tuple) -> tuple:
    """The rows of (j, cell) pairs that the JSON entries [i, j, k, value]
    of level n describe, without the entries that are zero in the field.
    The products of level n lie in a quotient of V_n (x) V_(n-1), so k is
    below d_n * d_(n-1)."""
    if not isinstance(entries, list):
        raise DimensionMismatch(f"level {n} cells are not a list")
    d, d_prev = dims[n], dims[n - 1]
    rows: list = [{} for _ in range(d)]
    last = (-1, -1, -1)
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise DimensionMismatch(f"level {n} entry {entry!r} is not [i, j, k, value]")
        i, j, k, raw = entry
        if not (_is_int_list(entry[:3]) and 0 <= i < d and 0 <= j < d_prev and 0 <= k < d * d_prev):
            raise DimensionMismatch(
                f"level {n} entry ({i!r}, {j!r}, {k!r}) is outside {d} x {d_prev} x {d * d_prev}"
            )
        if (i, j, k) <= last:
            raise DimensionMismatch(f"level {n} entry ({i}, {j}, {k}) is repeated or out of order")
        last = (i, j, k)
        if x := _scalar_from_json(field, raw):
            rows[i].setdefault(j, []).append((k, x))
    return tuple(tuple((j, tuple(cell)) for j, cell in row.items()) for row in rows)


def view_from_json_dict(data: dict) -> AlgebraView:
    """The view a `view_to_json_dict` dict describes; a dict of another
    shape raises DimensionMismatch, and one of more basis vectors than
    `LAGA_BUDGET` raises BudgetExceeded before anything is allocated."""
    if not isinstance(data, dict):
        raise DimensionMismatch("a view is a JSON object")
    for key in ("field", "level_dims", "cells"):
        if key not in data:
            raise DimensionMismatch(f"view has no {key!r} key")
    field = FieldSpec(data["field"])
    if not _is_int_list(data["level_dims"]):
        raise DimensionMismatch(f"view level_dims {data['level_dims']!r} are not ints")
    dims = tuple(data["level_dims"])
    if any(d < 0 for d in dims) or dims[:1] not in ((), (0,)):
        raise DimensionMismatch(
            f"view level_dims {list(dims)} must be non-negative, with entry 0 equal to 0"
        )
    _within_budget(sum(dims), "basis vectors of the view")
    plain = data.get("plain", False)
    if not isinstance(plain, bool):
        raise DimensionMismatch(f"view plain flag {plain!r} is not true or false")
    raw = data["cells"]
    levels = [str(n) for n in range(2, len(dims))]
    if not isinstance(raw, dict) or set(raw) != set(levels):
        raise DimensionMismatch(f"view cells are not an object with keys {levels}")
    cells = tuple(_level_from_json(field, raw[str(n)], n, dims) for n in range(2, len(dims)))
    return AlgebraView(field, dims, (None, None) + cells, plain)


def reconstruction_report(
    view: AlgebraView,
    family: str,
    n: int | None = None,
    q: int | None = None,
    reference: LayeredGraph | None = None,
) -> dict:
    """Run one certified reconstruction and package the evidence: chosen
    bases, k values, kernel dimensions, recovered edges, verdict."""
    from .graphs import to_json_dict, upper_part

    if family == "boolean":
        if n is None:
            raise ReconstructionFailed("boolean recovery needs the rank n")
        graph = reconstruct_boolean(view, n)
        certified = True
    elif family == "subspace":
        if n is None or q is None:
            raise ReconstructionFailed("subspace recovery needs q and n")
        graph = reconstruct_subspace(view, q, n)
        certified = True
    elif family == "nonnesting":
        graph = reconstruct_nonnesting(view)
        certified = None
        if reference is not None:
            target = upper_part(reference, 2) if reference.top_level >= 2 else None
            certified = target is not None and are_isomorphic(graph, target) is not None
            if not certified:
                raise ReconstructionFailed("output does not match the reference graph")
    else:
        raise ReconstructionFailed(f"unknown family: {family}")
    per_level = []
    for i in range(2, view.top_level + 1):
        basis = upper_vertex_like_basis(view, i)
        per_level.append(
            {
                "level": i,
                "basis": [[_scalar_to_json(c) for c in x] for x in basis.vectors],
                "k_values": list(basis.ks),
                "kappa_dims": [kap.dim for kap in basis.kappas],
            }
        )
    return {
        "family": family,
        "levels": list(graph.levels),
        "edges": sorted([list(t), list(h)] for t, h in graph.edges),
        "graph": to_json_dict(graph),
        "per_level": per_level,
        "certified": certified,
    }

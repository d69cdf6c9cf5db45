"""Dense exact linear algebra over Q and F_p.

Everything is row-oriented: a matrix is a list of rows, a row a list of
scalars from `laga.fields` (`Fraction` over Q, an int in [0, p) over
F_p).  Row arithmetic goes through the `FieldSpec` operations, so one
code path serves both fields.  Subspaces are kept in canonical reduced
row echelon form, so equality of subspaces is equality of tuples and
canonical forms can be used as dictionary keys.  Each subspace carries
the pivot columns of its basis rows, so reducing a vector against it
never searches a row for its pivot.  A left kernel is read off one
rref of the live block of [M | I], the nonzero rows of M cut to its
nonzero columns, with the unit vector of each zero row of M merged in
by pivot; an intersection off one rref of [residual | x] over the basis
rows x of the smaller space, each reduced against the larger.  In both,
the rows that vanish on the left block are already the canonical basis.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
from typing import Iterator, Sequence

from .errors import AmbientMismatch, ArgumentMismatch, BudgetExceeded
from .fields import FieldSpec

DEFAULT_BUDGET = 10**7


def enumeration_budget() -> int:
    """Budget of every enumeration and search; override with LAGA_BUDGET."""
    raw = os.environ.get("LAGA_BUDGET")
    if raw and not raw.isdecimal():
        raise ArgumentMismatch(f"LAGA_BUDGET must be a non-negative integer, got {raw!r}")
    return int(raw) if raw else DEFAULT_BUDGET


def _within_budget(count: int, what: str, budget: int | None = None) -> None:
    """Raise BudgetExceeded when count exceeds the budget, read from
    LAGA_BUDGET unless a loop that checks every step passes it in."""
    budget = enumeration_budget() if budget is None else budget
    if count > budget:
        raise BudgetExceeded(f"{count} {what} exceed budget {budget}")


def rref(rows: Sequence[Sequence], field: FieldSpec):
    """Reduced row echelon form.

    Returns (rows, pivot_columns); zero rows are dropped, so the row
    count equals the rank.  Rows of different lengths raise
    `AmbientMismatch`.
    """
    m = [field.vector(row) for row in rows]
    if len({len(row) for row in m}) > 1:
        raise AmbientMismatch(f"ragged matrix: row lengths {sorted({len(r) for r in m})}")
    return _rref(m, field)


def _rref(m: list, field: FieldSpec):
    """`rref` of rows already in the field and of one length, in place."""
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pivot_row = m[r] = field.scale(m[r], field.inv(m[r][c]))
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = field.axpy(m[i], m[i][c], pivot_row)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: Sequence[Sequence], field: FieldSpec) -> int:
    return len(rref(rows, field)[0])


@dataclasses.dataclass(frozen=True)
class Subspace:
    """A subspace of field^ambient_dim in canonical RREF basis form."""

    field: FieldSpec
    ambient_dim: int
    basis: tuple  # tuple of row tuples, RREF, no zero rows
    # the pivot column of each basis row; the basis determines it
    pivots: tuple = dataclasses.field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_vector(self, vector) -> bool:
        return not any(reduce_vector(vector, self))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return not any(any(_residual(x, self.pivots, self.basis, self.field)) for x in other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        """rref [r(x) | x] over the basis rows x of the smaller space,
        r(x) the residual of x against the larger: a combination of the x
        lies in the larger space exactly when its residuals cancel, so
        the rows with zero left block carry the intersection."""
        self._check_compatible(other)
        small, large = sorted((self, other), key=lambda s: s.dim)
        n = self.ambient_dim
        stacked = [[*_residual(x, large.pivots, large.basis, self.field), *x] for x in small.basis]
        return _right_block(*_rref(stacked, self.field), n, n, self.field)

    def add(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return span(list(self.basis) + list(other.basis), self.ambient_dim, self.field)

    def _check_compatible(self, other: "Subspace") -> None:
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(
                f"{self.field.describe()}^{self.ambient_dim} vs "
                f"{other.field.describe()}^{other.ambient_dim}"
            )

    def key(self):
        """Hashable canonical key (suitable for multiset comparison)."""
        return (self.ambient_dim, self.basis)


def span(vectors: Sequence[Sequence], ambient_dim: int, field: FieldSpec) -> Subspace:
    for v in vectors:
        if len(v) != ambient_dim:
            raise AmbientMismatch(f"vector length {len(v)} != ambient {ambient_dim}")
    reduced, pivots = rref(vectors, field)
    return Subspace(field, ambient_dim, tuple(tuple(row) for row in reduced), tuple(pivots))


def _right_block(reduced, pivots, n: int, width: int, field: FieldSpec) -> Subspace:
    """The span of the rows of rref [A | B], A n columns wide, that vanish
    on A, cut to B (width columns).

    These are the rows with pivot at or after column n.  Cut to B they
    keep their leading 1s in increasing columns, and each pivot column is
    zero in every other row, so they already are the canonical basis."""
    first = next((i for i, c in enumerate(pivots) if c >= n), len(pivots))
    basis = tuple(tuple(row[n:]) for row in reduced[first:])
    return Subspace(field, width, basis, tuple(c - n for c in pivots[first:]))


def identity(d: int, field: FieldSpec) -> list[list]:
    """The d x d identity matrix as a list of fresh rows."""
    one, zero = field.one, field.zero
    return [[one if i == j else zero for j in range(d)] for i in range(d)]


def full_space(ambient_dim: int, field: FieldSpec) -> Subspace:
    eye = tuple(tuple(r) for r in identity(ambient_dim, field))
    return Subspace(field, ambient_dim, eye, tuple(range(ambient_dim)))


def zero_space(ambient_dim: int, field: FieldSpec) -> Subspace:
    return Subspace(field, ambient_dim, (), ())


def reduce_vector(vector, space: Subspace):
    """Subtract the projection onto a subspace's RREF basis; exact
    residual."""
    return _residual(space.field.vector(vector), space.pivots, space.basis, space.field)


def _residual(v, pivots, rows, field: FieldSpec):
    """v, already in the field, minus its combination of rows, each with a
    1 at its pivot and 0 at the pivots before it, as in an RREF basis."""
    for c, row in zip(pivots, rows):
        if v[c]:
            v = field.axpy(v, v[c], row)
    return v


def _extend_echelon(pivots: list, rows: list, new, field: FieldSpec) -> int:
    """Append to the echelon (pivots, rows) of `_residual` each new row's
    nonzero residual, scaled to a leading 1; returns the new rank."""
    for x in new:
        v = _residual(x, pivots, rows, field)
        c = next((i for i, a in enumerate(v) if a), None)
        if c is not None:
            pivots.append(c)
            rows.append(field.scale(v, field.inv(v[c])))
    return len(rows)


def kernel(rows: Sequence[Sequence], ncols: int, field: FieldSpec) -> Subspace:
    """Right null space {x : M x = 0} of an nrows x ncols matrix."""
    for row in rows:
        if len(row) != ncols:
            raise AmbientMismatch(f"row length {len(row)} != {ncols} columns")
    if not rows:
        return full_space(ncols, field)
    return left_kernel(transpose(rows), field)


def left_kernel(rows: Sequence[Sequence], field: FieldSpec) -> Subspace:
    """{x : x M = 0} for M given as a list of rows.

    Only the live block of [M | I] is reduced: the nonzero rows of M, cut
    to its nonzero columns.  Each zero row of M then adds its unit
    vector, which no other basis row touches, in pivot order."""
    if len({len(row) for row in rows}) > 1:
        raise AmbientMismatch(f"ragged matrix: row lengths {sorted({len(r) for r in rows})}")
    # a row of falsy entries is zero in any field; a live row that is
    # zero only modulo p reduces to zero in the rref
    live = [i for i, row in enumerate(rows) if any(row)]
    cols = [col for col in zip(*(field.vector(rows[i]) for i in live)) if any(col)]
    block = zip(*cols) if cols else [()] * len(live)
    stacked = [[*row, *unit] for row, unit in zip(block, identity(len(live), field))]
    space = _right_block(*_rref(stacked, field), len(cols), len(live), field)
    # the kernel row with pivot i, as (index, entry) pairs
    found = {live[c]: zip(live, row) for c, row in zip(space.pivots, space.basis)}
    for i in set(range(len(rows))).difference(live):
        found[i] = ((i, field.one),)
    zero = [field.zero] * len(rows)
    basis = []
    for i in sorted(found):
        vec = zero.copy()
        for j, x in found[i]:
            vec[j] = x
        basis.append(tuple(vec))
    return Subspace(field, len(rows), tuple(basis), tuple(sorted(found)))


def transpose(rows: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*rows)]


def matrix_apply(rows: Sequence[Sequence], vector, field: FieldSpec):
    """M v for M a list of rows."""
    v = field.vector(vector)
    return [field.dot(row, v) for row in rows]


def enumerate_rays(field: FieldSpec, dim: int) -> Iterator[tuple]:
    """All nonzero vectors of F_p^dim up to scalar, one per ray.

    The representative has first nonzero coordinate equal to 1; rays come
    out in lexicographic order of their representative.
    """
    if field.is_rational:
        raise AmbientMismatch("ray enumeration needs a finite field")
    p = field.p
    _within_budget(p**dim, f"vectors of F_{p}^{dim}")
    for lead in reversed(range(dim)):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(p), repeat=dim - lead - 1):
            yield prefix + tail

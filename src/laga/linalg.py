"""Sparse exact linear algebra over Q and F_p.

A row is kept as its nonzero entries: while it is worked on, a dict
{column: value} in the field (over Q an int when integral and a
`Fraction` otherwise, an int in [0, p) over F_p), changed in place
through `FieldSpec`, so one code path serves both fields.  A `Subspace`
stores its canonical reduced row echelon basis, each row a tuple of
(column, value) pairs in column order, so equality of subspaces is
equality of tuples and `key()` is a dictionary key; an int compares and
hashes equal to the equal `Fraction`, so rows that mix them do too.

Every reduction runs on an echelon: a dict from pivot column to a row
(an entry dict, or a subspace's pairs) with a 1 there and a 0 at every
other pivot.  A vector reduces in one pass over its own entries at
pivots, and a new row joins by clearing its pivot from the others, so
the work is the nonzeros touched.  A left kernel is read off the
echelon of [M | I]; an intersection off the left kernel of the
residuals of one basis against the other.  Dense rows, as `rref`,
`kernel`, `reduce_vector` and `Subspace.basis` take or give them, are
converted at the edge.
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
    """Reduced row echelon form of dense rows: (rows, pivot_columns),
    the rows dense and as many as the rank.  Rows of different lengths
    raise `AmbientMismatch`."""
    lengths = {len(row) for row in rows}
    if len(lengths) > 1:
        raise AmbientMismatch(f"ragged matrix: row lengths {sorted(lengths)}")
    echelon: dict = {}
    _extend_echelon(echelon, [field.entries(row) for row in rows], field)
    pivots = sorted(echelon)
    width = lengths.pop() if lengths else 0
    return [_dense(echelon[c].items(), width, field) for c in pivots], pivots


def rank(rows: Sequence[Sequence], field: FieldSpec) -> int:
    return len(rref(rows, field)[0])


def _dense(entries, width: int, field: FieldSpec) -> list:
    """The dense row of width `width` with the given (column, value) pairs."""
    row = [field.zero] * width
    for k, x in entries:
        row[k] = x
    return row


def _reduce(v: dict, echelon: dict, field: FieldSpec) -> dict:
    """v minus its combination of the echelon rows at v's pivot entries,
    in place.  Each row is zero at the other pivots, so one pass clears
    them all."""
    if echelon:
        for c in [c for c in v if c in echelon]:
            field.subtract(v, v[c], echelon[c])
    return v


def _join(v: dict, c: int, echelon: dict, field: FieldSpec) -> None:
    """Add v, reduced against the echelon and led by column c, as the row
    of pivot c: scaled to a 1 there, and cleared from the other rows."""
    if (a := v[c]) != 1:
        field.scale(v, field.inv(a))
    for row in echelon.values():
        if f := row.get(c):
            field.subtract(row, f, v)
    echelon[c] = v


def _extend_echelon(echelon: dict, new, field: FieldSpec) -> int:
    """Add each new entry dict (consumed) to an echelon kept in reduced
    form; returns the new rank."""
    for v in new:
        if _reduce(v, echelon, field):
            _join(v, min(v), echelon, field)
    return len(echelon)


def _residual(row: tuple, echelon: dict, field: FieldSpec) -> dict:
    """A subspace row minus its combination of the echelon rows; nothing
    is left of a row the echelon holds as it is."""
    return {} if echelon.get(row[0][0]) == row else _reduce(dict(row), echelon, field)


def _holds(echelon: dict, space: "Subspace", field: FieldSpec) -> bool:
    """Whether every basis row of `space` lies in the echelon's span.  A
    row in the span is led by one of its pivots."""
    return all(
        row[0][0] in echelon and not _residual(row, echelon, field) for row in space.rows
    )


def _kernel_rows(m: list, field: FieldSpec) -> tuple:
    """The canonical basis rows of {x : x M = 0}, M given as entry dicts
    in the field (consumed).

    Each nonzero row i of M gets the unit entry at column n + i, n past
    the last column of M.  In the echelon of these rows, those led before
    n are kept reduced at each other's pivots, those led from n on among
    themselves: a row that vanishes on M then ends reduced against both,
    so the rows led from n on are the kernel's canonical rows.  A zero
    row of M adds its unit vector, which no other row touches, without a
    reduction."""
    n = max((max(v) + 1 for v in m if v), default=0)
    left, right = {}, {}
    for i, v in enumerate(m):
        if not v:
            continue
        v[n + i] = 1
        _reduce(v, left, field)
        if (c := min(v)) < n:
            _join(v, c, left, field)
        elif _reduce(v, right, field):
            _join(v, min(v), right, field)
    found = {c - n: tuple([(k - n, x) for k, x in sorted(v.items())]) for c, v in right.items()}
    # the rows of M still empty are its zero rows
    return tuple(found[i] if v else ((i, 1),) for i, v in enumerate(m) if not v or i in found)


def _combination(coeffs, rows: tuple, field: FieldSpec) -> tuple:
    """sum c * rows[i] over the (i, c) pairs of a canonical row, as pairs
    in column order."""
    if len(coeffs) == 1:
        return rows[coeffs[0][0]]  # led by a 1
    acc: dict = {}
    for i, c in coeffs:
        for k, x in rows[i]:
            acc[k] = acc.get(k, 0) + c * x
    return tuple(sorted(field.entries(acc).items()))


@dataclasses.dataclass(frozen=True)
class Subspace:
    """A subspace of field^ambient_dim in canonical RREF basis form, each
    basis row its nonzero (column, value) pairs in column order, led by
    a 1 at its pivot."""

    field: FieldSpec
    ambient_dim: int
    rows: tuple
    # the rows keyed by pivot, once a reduction needs them
    _by_pivot: dict | None = dataclasses.field(
        default=None, init=False, compare=False, hash=False, repr=False
    )

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple:
        return tuple(row[0][0] for row in self.rows)

    @property
    def basis(self) -> tuple:
        """The basis rows as dense tuples, for callers that print them."""
        return tuple(tuple(_dense(row, self.ambient_dim, self.field)) for row in self.rows)

    @property
    def _echelon(self) -> dict:
        if self._by_pivot is None:
            object.__setattr__(self, "_by_pivot", {row[0][0]: row for row in self.rows})
        return self._by_pivot

    def contains_vector(self, vector) -> bool:
        """Whether a dense vector or entry dict lies in the subspace."""
        return not _reduce(self.field.entries(vector), self._echelon, self.field)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return other.dim <= self.dim and _holds(self._echelon, other, self.field)

    def intersect(self, other: "Subspace") -> "Subspace":
        """A combination sum a_i x_i of the basis rows of the smaller space
        lies in the larger exactly when the residuals r(x_i) against the
        larger cancel, so a runs over the left kernel of the residuals.
        Each x_i is 1 at its pivot and 0 at the other pivots, so the
        kernel's canonical rows map to the intersection's."""
        self._check_compatible(other)
        small, large = sorted((self, other), key=lambda s: s.dim)
        field = self.field
        residuals = [_residual(row, large._echelon, field) for row in small.rows]
        rows = (_combination(a, small.rows, field) for a in _kernel_rows(residuals, field))
        return Subspace(field, self.ambient_dim, tuple(rows))

    def add(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return span([dict(row) for row in self.rows + other.rows], self.ambient_dim, self.field)

    def _check_compatible(self, other: "Subspace") -> None:
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(
                f"{self.field.describe()}^{self.ambient_dim} vs "
                f"{other.field.describe()}^{other.ambient_dim}"
            )

    def key(self):
        """Hashable canonical key (suitable for multiset comparison)."""
        return (self.ambient_dim, self.rows)


def span(vectors, ambient_dim: int, field: FieldSpec) -> Subspace:
    """The span of dense vectors of length ambient_dim, or of entry dicts
    with columns in range."""
    echelon: dict = {}
    for v in vectors:
        if isinstance(v, dict):
            if any(not 0 <= c < ambient_dim for c in v):
                raise AmbientMismatch(f"columns {sorted(v)} outside ambient {ambient_dim}")
        elif len(v) != ambient_dim:
            raise AmbientMismatch(f"vector length {len(v)} != ambient {ambient_dim}")
        _extend_echelon(echelon, [field.entries(v)], field)
    rows = (tuple(sorted(echelon[c].items())) for c in sorted(echelon))
    return Subspace(field, ambient_dim, tuple(rows))


def identity(d: int, field: FieldSpec) -> list[list]:
    """The d x d identity matrix as a list of fresh rows."""
    one, zero = field.one, field.zero
    return [[one if i == j else zero for j in range(d)] for i in range(d)]


def full_space(ambient_dim: int, field: FieldSpec) -> Subspace:
    return Subspace(field, ambient_dim, tuple(((i, 1),) for i in range(ambient_dim)))


def zero_space(ambient_dim: int, field: FieldSpec) -> Subspace:
    return Subspace(field, ambient_dim, ())


def reduce_vector(vector, space: Subspace) -> list:
    """A dense vector minus its projection onto a subspace's RREF basis;
    the exact residual, dense."""
    field = space.field
    residual = _reduce(field.entries(vector), space._echelon, field)
    return _dense(residual.items(), len(vector), field)


def kernel(rows: Sequence[Sequence], ncols: int, field: FieldSpec) -> Subspace:
    """Right null space {x : M x = 0} of an nrows x ncols matrix."""
    for row in rows:
        if len(row) != ncols:
            raise AmbientMismatch(f"row length {len(row)} != {ncols} columns")
    if not rows:
        return full_space(ncols, field)
    return left_kernel(transpose(rows), field)


def left_kernel(rows, field: FieldSpec) -> Subspace:
    """{x : x M = 0} for M given as a list of rows, dense or entry dicts."""
    lengths = {len(row) for row in rows if not isinstance(row, dict)}
    if len(lengths) > 1:
        raise AmbientMismatch(f"ragged matrix: row lengths {sorted(lengths)}")
    return Subspace(field, len(rows), _kernel_rows([field.entries(row) for row in rows], field))


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

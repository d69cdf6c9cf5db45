"""Dense exact linear algebra over Q and F_p.

Everything is row-oriented: a matrix is a list of rows, a row a list of
scalars from `laga.fields` (`Fraction` over Q, an int in [0, p) over
F_p).  Row arithmetic goes through the `FieldSpec` operations, so one
code path serves both fields.  Subspaces are kept in canonical reduced
row echelon form, so equality of subspaces is equality of tuples and
canonical forms can be used as dictionary keys.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import AmbientMismatch, BudgetExceeded
from .fields import FieldSpec

DEFAULT_BUDGET = 10**7


def enumeration_budget() -> int:
    """Budget of every enumeration and search; override with LAGA_BUDGET."""
    raw = os.environ.get("LAGA_BUDGET")
    return int(raw) if raw else DEFAULT_BUDGET


def rref(rows: Sequence[Sequence], field: FieldSpec):
    """Reduced row echelon form.

    Returns (rows, pivot_columns); zero rows are dropped, so the row
    count equals the rank.
    """
    m = [field.vector(row) for row in rows]
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


@dataclass(frozen=True)
class Subspace:
    """A subspace of field^ambient_dim in canonical RREF basis form."""

    field: FieldSpec
    ambient_dim: int
    basis: tuple  # tuple of row tuples, RREF, no zero rows

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __contains__(self, vector) -> bool:
        return self.contains_vector(vector)

    def contains_vector(self, vector) -> bool:
        residual = reduce_vector(vector, self.basis, self.field)
        return all(x == 0 for x in residual)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self.contains_vector(row) for row in other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: rref [[A|A],[B|0]]; rows with zero left block
        carry an intersection basis in the right block."""
        self._check_compatible(other)
        n = self.ambient_dim
        zero = self.field.zero
        stacked = [list(row) + list(row) for row in self.basis]
        stacked += [list(row) + [zero] * n for row in other.basis]
        reduced, _ = rref(stacked, self.field)
        inter = [row[n:] for row in reduced if all(x == 0 for x in row[:n])]
        return span(inter, n, self.field)

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
    reduced, _ = rref(vectors, field)
    return Subspace(field, ambient_dim, tuple(tuple(row) for row in reduced))


def identity(d: int, field: FieldSpec) -> list[list]:
    """The d x d identity matrix as a list of fresh rows."""
    one, zero = field.one, field.zero
    return [[one if i == j else zero for j in range(d)] for i in range(d)]


def full_space(ambient_dim: int, field: FieldSpec) -> Subspace:
    return Subspace(
        field, ambient_dim, tuple(tuple(r) for r in identity(ambient_dim, field))
    )


def zero_space(ambient_dim: int, field: FieldSpec) -> Subspace:
    return Subspace(field, ambient_dim, ())


def reduce_vector(vector, basis, field: FieldSpec):
    """Subtract the projection onto an RREF basis; exact residual."""
    v = field.vector(vector)
    for row in basis:
        pivot = next((c for c, x in enumerate(row) if x != 0), None)
        if pivot is not None and v[pivot] != 0:
            v = field.axpy(v, v[pivot], row)
    return v


def kernel(rows: Sequence[Sequence], ncols: int, field: FieldSpec) -> Subspace:
    """Right null space {x : M x = 0} of an nrows x ncols matrix."""
    reduced, pivots = rref(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for row, pc in zip(reduced, pivots):
            vec[pc] = field(-row[fc])
        basis.append(vec)
    return span(basis, ncols, field)


def left_kernel(rows: Sequence[Sequence], field: FieldSpec) -> Subspace:
    """{x : x M = 0} for M given as a list of rows."""
    nrows = len(rows)
    if nrows == 0:
        return zero_space(0, field)
    return kernel(transpose(rows), nrows, field)


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
    limit = enumeration_budget()
    if p**dim > limit:
        raise BudgetExceeded(f"{p}^{dim} rays exceed budget {limit}")
    for lead in reversed(range(dim)):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(p), repeat=dim - lead - 1):
            yield prefix + tail

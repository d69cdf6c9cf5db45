"""Exact scalar arithmetic: the rationals and prime fields F_p.

A rational scalar is a `fractions.Fraction`; an F_p scalar is a plain
`int` in [0, p).  Scalars carry no field of their own, so every
computation names its `FieldSpec`, and containers that hold scalars
(subspaces, elements, views) compare their `.field` before mixing.

`FieldSpec` coerces a value (or with `vector`, a row) into its field and
supplies the row-level operations the linear algebra is written in:
`inv`, `scale`, `axpy`, `dot` and `combine` (a row vector times a
matrix, the one product of every kernel and level map).  Over F_p each
reduces modulo p once per entry; over Q it is the same expression
without the reduction, so `laga.linalg` has one code path for both
fields.  Over Q, `vector` passes a `Fraction` entry through unchanged
(Fractions are immutable, so rows may share them) and coerces the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedField

_MAX_PRIME = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Either the rationals (p is None) or the prime field F_p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not isinstance(self.p, int) or not _is_prime(self.p) or self.p > _MAX_PRIME:
                raise UnsupportedField(f"not a supported prime: {self.p}")

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def __call__(self, x) -> Fraction | int:
        """Coerce an int, Fraction, float or string into this field; F_p
        takes only integral values, so 1.5 and "1/2" raise there."""
        if self.p is None:
            return Fraction(x)
        if type(x) is not int:
            x = Fraction(x)
            if x.denominator != 1:
                raise UnsupportedField(f"cannot coerce {x} into {self.describe()}")
            x = x.numerator
        return x % self.p

    def vector(self, xs) -> list:
        """Every entry of xs coerced into this field."""
        p = self.p
        if p is None:
            return [x if type(x) is Fraction else Fraction(x) for x in xs]
        return [x % p if type(x) is int else self(x) for x in xs]

    @property
    def zero(self):
        return self(0)

    @property
    def one(self):
        return self(1)

    def inv(self, a):
        """Multiplicative inverse of a nonzero scalar."""
        p = self.p
        if (a if p is None else a % p) == 0:
            raise ZeroDivisionError(f"division by zero in {self.describe()}")
        if p is None:
            return 1 / Fraction(a)
        return pow(a, p - 2, p)

    # Over Q the zero test skips a Fraction operation per zero entry,
    # which is most of them in the sparse relation matrices; over F_p
    # the test costs as much as the int arithmetic it would save.

    def scale(self, row, c) -> list:
        """c * row."""
        p = self.p
        if p is None:
            return [c * x if x else x for x in row]
        return [c * x % p for x in row]

    def axpy(self, row, f, other) -> list:
        """row - f * other; f may be any integer over F_p."""
        p = self.p
        if p is None:
            return [a - f * b if b else a for a, b in zip(row, other)]
        return [(a - f * b) % p for a, b in zip(row, other)]

    def dot(self, x, y):
        """The coordinate pairing sum(x_i * y_i)."""
        if self.p is None:
            return Fraction(sum(a * b for a, b in zip(x, y) if a and b))
        return sum(a * b for a, b in zip(x, y)) % self.p

    def combine(self, coeffs, rows) -> list:
        """The row vector coeffs times the matrix rows: sum(c * row) over
        the nonzero coefficients c."""
        p = self.p
        acc = [self.zero] * (len(rows[0]) if rows else 0)
        for c, row in zip(coeffs, rows):
            if c and p is None:
                acc = [a + c * b if b else a for a, b in zip(acc, row)]
            elif c:
                acc = [a + c * b for a, b in zip(acc, row)]
        return acc if p is None else [a % p for a in acc]

    def describe(self) -> str:
        return "Q" if self.p is None else f"F_{self.p}"


QQ = FieldSpec()


def GF(p: int) -> FieldSpec:
    return FieldSpec(p)

"""Exact scalar arithmetic: the rationals and prime fields F_p.

A rational scalar is a `fractions.Fraction`; an F_p scalar is a plain
`int` in [0, p).  Scalars carry no field of their own, so every
computation names its `FieldSpec`, and containers that hold scalars
(subspaces, elements, views) compare their `.field` before mixing.

`FieldSpec` coerces a value, or with `vector` a dense row, into its
field.  `laga.linalg` keeps a row as a dict {column: nonzero value}:
`entries` makes one from a dense row or a mapping, and `subtract` and
`scale` change one in place.  The dense `axpy`, `dot` and `combine` (a
row vector times a matrix) serve elements, views and test references.
Over F_p each operation reduces modulo p once per entry; over Q it is
the same expression without the reduction, so callers have one code
path for both fields.  Over Q, `vector`, `dot`, `combine` and the field
itself give `Fraction`s; `vector` passes one through unchanged (they are
immutable, so rows may share them).  In entry rows, as `entries` and
`inv` give them, an integral rational is a plain int, so 0/±1 rows
reduce in int arithmetic; an int compares and hashes equal to the equal
`Fraction`, so rows that mix them stay canonical.
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


def _as_rational(x) -> Fraction | int:
    """x as a rational, a plain int when it is integral."""
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


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
            return _as_rational(1 / Fraction(a))
        return pow(a, p - 2, p)

    def entries(self, xs) -> dict:
        """The nonzero entries of a dense row, or of a {column: value}
        mapping, as {column: value} coerced into this field; over Q an
        integral value is an int."""
        items = xs.items() if isinstance(xs, dict) else enumerate(xs)
        if (p := self.p) is None:
            return {c: y for c, x in items if x and (y := x if type(x) is int else _as_rational(x))}
        return {c: y for c, x in items if x and (y := x % p if type(x) is int else self(x))}

    def subtract(self, v: dict, f, row) -> None:
        """v -= f * row on entry dicts, in place, dropping the entries
        that cancel; row may also be given as its (column, value) pairs.
        f is nonzero and may be any integer over F_p."""
        p, get = self.p, v.get
        for k, b in row.items() if isinstance(row, dict) else row:
            if x := get(k, 0) - f * b if p is None else (get(k, 0) - f * b) % p:
                v[k] = x
            else:
                del v[k]

    def scale(self, v: dict, c) -> None:
        """c * v on an entry dict, in place; c is nonzero."""
        p = self.p
        for k, x in v.items():
            v[k] = c * x if p is None else c * x % p

    # Over Q the dense zero test skips a Fraction operation per zero entry;
    # over F_p the test costs as much as the int arithmetic it would save.

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

"""Exact Gaussian integers and Gaussian rationals.

Character values and eigenmatrices are integer or rational combinations of
1 and i; nothing in this package is allowed to round, so these are thin
exact wrappers: GaussInt over int, GaussRat over Fraction.  GaussRat has no
division: the second eigenmatrix divides only by integer class sizes, so no
matrix inverse is needed, and the P Q = |R| I check scales Q to Gaussian
integers first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GaussInt:
    re: int = 0
    im: int = 0

    def __add__(self, other: "GaussInt") -> "GaussInt":
        other = _as_gi(other)
        return GaussInt(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: "GaussInt") -> "GaussInt":
        other = _as_gi(other)
        return GaussInt(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussInt":
        return _as_gi(other) - self

    def __mul__(self, other) -> "GaussInt":
        other = _as_gi(other)
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.re, -self.im)

    def conj(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        return f"{self.re}{self.im:+}i"

    def sort_key(self) -> tuple[int, int]:
        return (self.re, self.im)


def _as_gi(v) -> GaussInt:
    if isinstance(v, GaussInt):
        return v
    if isinstance(v, int):
        return GaussInt(v, 0)
    raise TypeError(f"cannot coerce {v!r} to GaussInt")


@dataclass(frozen=True)
class GaussRat:
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, v) -> "GaussRat":
        if isinstance(v, GaussRat):
            return v
        if isinstance(v, GaussInt):
            return cls(Fraction(v.re), Fraction(v.im))
        if isinstance(v, (int, Fraction)):
            return cls(Fraction(v), Fraction(0))
        raise TypeError(f"cannot coerce {v!r} to GaussRat")

    def __add__(self, other) -> "GaussRat":
        other = GaussRat.of(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussRat":
        other = GaussRat.of(other)
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussRat":
        return GaussRat.of(other) - self

    def __mul__(self, other) -> "GaussRat":
        other = GaussRat.of(other)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "GaussRat":
        return GaussRat(-self.re, -self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


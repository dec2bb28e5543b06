"""The Galois ring GR(4, n) in Teichmuller-pair representation.

A ring element x is stored as a pair (a, b) of field encodings meaning
x = a + 2b with a, b in the Teichmuller system T (identified with F_{2^n}).
The pair formulas

    (a, b) + (c, d) = (a ^ c, b ^ d ^ sqrt(a*c))
    (a, b) * (c, d) = (a*c, a*d ^ b*c)

are derived from the Teichmuller addition x (+) y = x + y + 2 sqrt(xy).  The
tests cross-check them against Z4Model, an independent brute-force model of
the ring as Z4[y]/(h(y)) with h a coefficient lift of the field modulus;
GR4 itself never uses the model.  GR4 also builds the additive Z4^n
coordinate and character-label tables used by the fast character transform
in groupring, as outer XORs of 2^n-entry tables.

Indexing convention for dense vectors: idx = enc(a) * 2^n + enc(b).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .exact import I_POWERS, GaussInt
from .field import GF2n

MAX_RING_DEGREE = 10

Pair = tuple[int, int]

_Z4_OF_PAIR = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}


class Z4Model:
    """Brute-force model of GR(4, n): Z4-coefficient vectors modulo h(y).

    Test oracle for the Teichmuller-pair formulas of GR4 and for its
    coordinate tables: y^j is the basis element e_j = T(x^j) of coord_of.

    h is the unique monic lift of the field modulus to Z4 that divides
    y^(2^n - 1) - 1, found by scanning all 2^n coefficient lifts.  When the
    field modulus is primitive, y then has multiplicative order exactly
    2^n - 1 and generates the Teichmuller group.
    """

    def __init__(self, field: GF2n):
        self.field = field
        self.n = field.n
        self.h = self._find_lift()

    def _find_lift(self) -> tuple[int, ...]:
        n = self.n
        bits = [(self.field.modulus >> i) & 1 for i in range(n)]
        group = (1 << n) - 1
        one = self.one()
        y = tuple(1 if j == 1 else 0 for j in range(n)) if n > 1 else None
        for mask in range(1 << n):
            h = tuple(bits[i] + 2 * ((mask >> i) & 1) for i in range(n))
            if n == 1:
                yv = ((4 - h[0]) % 4,)
            else:
                yv = y
            if self.pow(yv, group, h) == one:
                return h
        raise AssertionError(
            f"no Z4 lift of modulus 0x{self.field.modulus:x} divides y^(2^n-1) - 1"
        )

    def one(self) -> tuple[int, ...]:
        return tuple(1 if j == 0 else 0 for j in range(self.n))

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.n

    def add(self, u: tuple, v: tuple) -> tuple[int, ...]:
        return tuple((a + b) % 4 for a, b in zip(u, v))

    def neg(self, u: tuple) -> tuple[int, ...]:
        return tuple((-a) % 4 for a in u)

    def mul(self, u: tuple, v: tuple, h: tuple | None = None) -> tuple[int, ...]:
        n = self.n
        h = self.h if h is None else h
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    prod[i + j] += a * b
        for j in range(2 * n - 2, n - 1, -1):
            c = prod[j] % 4
            prod[j] = 0
            if c:
                for k in range(n):
                    prod[j - n + k] -= c * h[k]
        return tuple(c % 4 for c in prod[:n])

    def pow(self, u: tuple, k: int, h: tuple | None = None) -> tuple[int, ...]:
        r = self.one()
        while k:
            if k & 1:
                r = self.mul(r, u, h)
            u = self.mul(u, u, h)
            k >>= 1
        return r

    def teich(self, a: int) -> tuple[int, ...]:
        """Teichmuller lift of field element a: (any lift)^(2^n)."""
        v = tuple((a >> i) & 1 for i in range(self.n))
        for _ in range(self.n):
            v = self.mul(v, v)
        return v

    def from_pair(self, x: Pair) -> tuple[int, ...]:
        a, b = x
        return self.add(self.teich(a), self.mul((2,) + (0,) * (self.n - 1), self.teich(b)))

    def to_pair(self, v: tuple) -> Pair:
        a = sum(((c & 1) << i) for i, c in enumerate(v))
        rest = self.add(v, self.neg(self.teich(a)))
        if any(c & 1 for c in rest):
            raise AssertionError(f"oracle vector {v} has no Teichmuller pair form")
        b = sum(((c >> 1) << i) for i, c in enumerate(rest))
        return (a, b)


class GR4:
    """Context for GR(4, n) on top of a binary field context."""

    zero: Pair = (0, 0)
    one: Pair = (1, 0)
    two: Pair = (0, 1)
    three: Pair = (1, 1)

    def __init__(self, field: GF2n):
        if field.n > MAX_RING_DEGREE:
            raise ValueError(
                f"dense GR(4,n) structures are capped at n <= {MAX_RING_DEGREE}; "
                f"got n = {field.n}"
            )
        self.field = field
        self.n = field.n
        self.size = 1 << (2 * field.n)

    def __repr__(self) -> str:
        return f"GR4({self.field!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GR4) and self.field == other.field

    def __hash__(self) -> int:
        return hash(("GR4", self.field))

    # -- element encoding ----------------------------------------------------

    def idx(self, x: Pair) -> int:
        return (x[0] << self.n) | x[1]

    def pair(self, idx: int) -> Pair:
        return (idx >> self.n, idx & (self.field.order - 1))

    def parse_elem(self, s: str) -> Pair:
        """Parse a ring element literal "aHEX+2*bHEX"."""
        try:
            a_str, b_str = s.split("+2*")
            a, b = int(a_str, 16), int(b_str, 16)
        except ValueError as exc:
            raise ValueError(f"bad ring element literal {s!r}") from exc
        if not (0 <= a < self.field.order and 0 <= b < self.field.order):
            raise ValueError(f"ring element literal {s!r} out of range")
        return (a, b)

    def elem_string(self, x: Pair) -> str:
        return f"{x[0]:x}+2*{x[1]:x}"

    # -- arithmetic ----------------------------------------------------------

    def add(self, x: Pair, y: Pair) -> Pair:
        f = self.field
        a, b = x
        c, d = y
        return (a ^ c, b ^ d ^ f.sqrt(f.mul(a, c)))

    def neg(self, x: Pair) -> Pair:
        return self.mul(x, self.three)

    def sub(self, x: Pair, y: Pair) -> Pair:
        return self.add(x, self.neg(y))

    def mul(self, x: Pair, y: Pair) -> Pair:
        f = self.field
        a, b = x
        c, d = y
        return (f.mul(a, c), f.mul(a, d) ^ f.mul(b, c))

    def frobenius(self, x: Pair) -> Pair:
        f = self.field
        return (f.square(x[0]), f.square(x[1]))

    def trace(self, x: Pair) -> int:
        """Trace to Z4: the ring sum of all n Frobenius iterates."""
        t = self.zero
        v = x
        for _ in range(self.n):
            t = self.add(t, v)
            v = self.frobenius(v)
        return _Z4_OF_PAIR[t]

    def character(self, a: Pair, x: Pair) -> GaussInt:
        """Additive character value chi_a(x) = i^Tr(ax).

        Test oracle: the naive character sum that the radix-4 transform in
        groupring is checked against.
        """
        return I_POWERS[self.trace(self.mul(a, x))]

    def in_two_torsion(self, x: Pair) -> bool:
        """Membership in Z = 2R, the ideal of zero divisors plus 0."""
        return x[0] == 0

    # -- dense tables --------------------------------------------------------

    @cached_property
    def oracle(self) -> Z4Model:
        return Z4Model(self.field)

    def _outer_xor(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The 4^n vector whose entry at idx(a, b) is rows[a] ^ cols[b]."""
        return (rows[:, None] ^ cols[None, :]).reshape(self.size)

    @cached_property
    def neg_perm(self) -> np.ndarray:
        """Permutation of indices sending idx(x) to idx(-x): -(a,b) = (a, a^b)."""
        a = self.field.elements()
        return self._outer_xor((a << self.n) | a, a)

    @cached_property
    def coord_of(self) -> np.ndarray:
        """Z4^n coordinates per element index, as a base-4 integer.

        The basis is e_j = T(x^j) = (x^j, 0).  The sum of e_j over the bits
        of a is (a, h(a)), and (a, b) = (a, h(a)) + 2*T(b ^ h(a)), so digit
        j of (a, b) is a_j + 2*(b ^ h(a))_j.
        """
        f = self.field
        a = f.elements()
        sqrt = f.pow_vec(a, f.order >> 1)
        h = np.zeros(1, dtype=np.int64)
        spread = np.zeros_like(a)  # bit j of a moved to bit 2j
        for j in range(self.n):
            # (a', h(a')) + (x^j, 0) = (a' ^ x^j, h(a') ^ sqrt(a' x^j))
            h = np.concatenate([h, h ^ sqrt[f.mul_vec(a[: 1 << j], 1 << j)]])
            spread |= ((a >> j) & 1) << (2 * j)
        return self._outer_xor(spread | (spread[h] << 1), spread << 1)

    @cached_property
    def dual_perm(self) -> np.ndarray:
        """u(a) as a coordinate index, per element index a.

        u(a) is the Z4^n label of chi_a with respect to coord_of:
        Tr(a x) = u(a) . v(x) mod 4 for all x.  Digit k of u(y) is
        Tr(y e_k), and u(a, b) = u(T(a)) + 2 u(T(b)) with
        Tr(T(a) e_k) = Tr(T(a x^k)).
        """
        f = self.field
        a = f.elements()
        sqrt = f.pow_vec(a, f.order >> 1)
        # Tr(T(c)) for every c: the ring sum of the pairs (c^(2^i), 0)
        ta, tb, v = np.zeros_like(a), np.zeros_like(a), a
        for _ in range(self.n):
            tb ^= sqrt[f.mul_vec(ta, v)]
            ta ^= v
            v = f.mul_vec(v, v)
        trace = ta | (tb << 1)
        u = np.zeros_like(a)
        for k in range(self.n):
            u |= trace[f.mul_vec(a, 1 << k)] << (2 * k)
        low_bits = (self.size - 1) // 3  # bit 0 of every base-4 digit
        return self._outer_xor(u, (u & low_bits) << 1)

    @cached_property
    def two_torsion_mask(self) -> np.ndarray:
        idx = np.arange(self.size, dtype=np.int64)
        return (idx >> self.n) == 0

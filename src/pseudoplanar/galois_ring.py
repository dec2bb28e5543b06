"""The Galois ring GR(4, n) in Teichmuller-pair representation.

A ring element x is stored as a pair (a, b) of field encodings meaning
x = a + 2b with a, b in the Teichmuller system T (identified with F_{2^n}).
The pair formulas

    (a, b) + (c, d) = (a ^ c, b ^ d ^ sqrt(a*c))
    (a, b) * (c, d) = (a*c, a*d ^ b*c)

are derived from the Teichmuller addition x (+) y = x + y + 2 sqrt(xy).  The
tests cross-check them, the trace and the characters against Z4Model in
tests/oracles.py, an independent brute-force model of the ring as
Z4[y]/(h(y)) with h a coefficient lift of the field modulus.  GR4 also
builds the additive Z4^n coordinate and character-label tables used by the
fast character transform in groupring, as outer XORs of 2^n-entry tables.

Indexing convention for dense vectors: idx = enc(a) * 2^n + enc(b).  The
2-torsion ideal Z = 2R is the pairs (0, b), so its elements are exactly the
indices below 2^n.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .field import GF2n

MAX_RING_DEGREE = 10

Pair = tuple[int, int]


class GR4:
    """Context for GR(4, n) on top of a binary field context."""

    zero: Pair = (0, 0)
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

    def mul(self, x: Pair, y: Pair) -> Pair:
        f = self.field
        a, b = x
        c, d = y
        return (f.mul(a, c), f.mul(a, d) ^ f.mul(b, c))

    def frobenius(self, x: Pair) -> Pair:
        f = self.field
        return (f.square(x[0]), f.square(x[1]))

    # -- dense tables --------------------------------------------------------

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

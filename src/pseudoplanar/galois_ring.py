"""The Galois ring GR(4, n) in Teichmuller-pair representation.

A ring element x is stored as a pair (a, b) of field encodings meaning
x = a + 2b with a, b in the Teichmuller system T (identified with F_{2^n}).
The pair formulas

    (a, b) + (c, d) = (a ^ c, b ^ d ^ sqrt(a*c))
    (a, b) * (c, d) = (a*c, a*d ^ b*c)
    -(a, b) = (a, a ^ b)

are derived from the Teichmuller addition x (+) y = x + y + 2 sqrt(xy).  The
tests cross-check them, the trace and the characters against Z4Model in
tests/oracles.py, an independent brute-force model of the ring as
Z4[y]/(h(y)) with h a coefficient lift of the field modulus.

Indexing convention for dense vectors: idx = enc(a) * 2^n + enc(b).  The
2-torsion ideal Z = 2R is the pairs (0, b), so its elements are exactly the
indices below 2^n.  Sums and negatives of element indices are bit
operations on them (pair_sums, neg_idx); no 4^n table is held.  pair_sums
takes the sums of one index array with itself, or of two arrays, such as a
block of rows of a set against its columns.
"""

from __future__ import annotations

import numpy as np

from .field import GF2n

MAX_RING_DEGREE = 10

# how many entries a blocked step holds at a time: such a block stays far
# below a 4^n copy, and in cache
_BLOCK = 1 << 15

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

    def neg_idx(self, idx):
        """idx(-x) for the element index idx(x) of each x, elementwise:
        -(a, b) = (a, a ^ b)."""
        return idx ^ (idx >> self.n)

    def pair_sums(self, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
        """idx(u + v) for every element index u in A and v in B, as a
        (len(A), len(B)) uint32 array.  B defaults to A, which gives the
        symmetric table of the pair sums of A.

        By add, idx(u + v) = idx(u) ^ idx(v) ^ sqrt(a c) for u = (a, b) and
        v = (c, d): sqrt(a c) = sqrt(a) sqrt(c) lands in the low n bits.  The
        products are taken one block of rows at a time, so that their int64
        temporaries stay small beside the table.
        """
        f = self.field

        def sqrt_logs(idx):
            return f.log_vec(f.pow_vec(idx >> self.n, f.order >> 1))

        la, u = sqrt_logs(A), A.astype(np.uint32)
        lb, v = (la, u) if B is None else (sqrt_logs(B), B.astype(np.uint32))
        out = np.empty((len(u), len(v)), dtype=np.uint32)
        rows = max(1, _BLOCK // max(1, len(v)))
        for i in range(0, len(u), rows):
            block = out[i : i + rows]
            block[...] = f.exp_vec(la[i : i + rows, None] + lb)
            block ^= u[i : i + rows, None]
            block ^= v
        return out

    def mul(self, x: Pair, y: Pair) -> Pair:
        f = self.field
        a, b = x
        c, d = y
        return (f.mul(a, c), f.mul(a, d) ^ f.mul(b, c))

    def frobenius(self, x: Pair) -> Pair:
        f = self.field
        return (f.square(x[0]), f.square(x[1]))

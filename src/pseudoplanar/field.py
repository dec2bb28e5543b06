"""Arithmetic in F_{2^n} with a fixed irreducible modulus.

Elements are plain ints in [0, 2^n): bit i of the int is the coefficient of
x^i in the polynomial basis.  Addition is XOR; multiplication reduces modulo
the context's irreducible polynomial, encoded the same way as an (n+1)-bit
int (e.g. x^3+x+1 -> 0b1011).

The default modulus for degree n is the irreducible polynomial whose int
encoding is smallest, so contexts are reproducible without external tables.
Any monic irreducible of the right degree may be supplied instead; it is
checked at construction time.

Degrees run from 1 to MAX_DEGREE = 16, so every element fits in uint16.
Each context builds its log/exp tables once, at construction, by one walk
through the powers of the smallest generator; the scalar and the bulk
(numpy) operations both read them.  _poly_mulmod, the table-free product,
builds the tables and is their test oracle.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_DEGREE = 16


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, m: int) -> int:
    dm = _poly_degree(m)
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _poly_mulmod(a: int, b: int, m: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a.bit_length() == m.bit_length():
            a ^= m
    return r


def _poly_powmod(a: int, k: int, m: int) -> int:
    """a^k mod m by square-and-multiply, for k >= 0."""
    r = 1
    while k:
        if k & 1:
            r = _poly_mulmod(r, a, m)
        a = _poly_mulmod(a, a, m)
        k >>= 1
    return r


def reducible_factor_degree(modulus: int) -> int | None:
    """Smallest d such that the modulus has an irreducible factor of degree
    <= d < deg(modulus), or None when the modulus is irreducible.

    Uses the standard gcd(x^(2^i) - x, m) sieve: that gcd is nontrivial
    exactly when m has a factor whose degree divides i.
    """
    n = _poly_degree(modulus)
    if n < 1:
        return 0
    x2i = 2  # x^(2^i) mod modulus, starting at i=0
    for i in range(1, n // 2 + 1):
        x2i = _poly_mulmod(x2i, x2i, modulus)
        if _poly_gcd(x2i ^ 2, modulus) != 1:
            return i
    return None


@lru_cache(maxsize=None)
def default_modulus(n: int) -> int:
    """Int-encoding-smallest irreducible polynomial of degree n over F_2."""
    for cand in range((1 << n) | 1, 1 << (n + 1), 2):
        if reducible_factor_degree(cand) is None:
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {n}")


class GF2n:
    """Context for F_{2^n}, 1 <= n <= MAX_DEGREE: modulus, log/exp tables
    built at construction, and the scalar and bulk element operations."""

    def __init__(self, n: int, modulus: int | None = None):
        if not 1 <= n <= MAX_DEGREE:
            raise ValueError(f"extension degree must be in [1, {MAX_DEGREE}], got {n}")
        if modulus is None:
            modulus = default_modulus(n)
        else:
            if modulus <= 0 or _poly_degree(modulus) != n:
                raise ValueError(
                    f"modulus {modulus:#x} is not a positive int of degree {n}"
                )
            d = reducible_factor_degree(modulus)
            if d is not None:
                raise ValueError(
                    f"modulus 0x{modulus:x} is reducible: "
                    f"it has an irreducible factor of degree {d}"
                )
        self.n = n
        self.modulus = modulus
        self.order = N = 1 << n
        # g^0 .. g^(N-2) for the smallest generator g.  Two nonzero logs sum
        # to at most 2N - 4, so the extended exp table repeats the powers up
        # to there; log(0) is a sentinel past that, so a product with 0
        # lands in the zero tail.
        self._exp = self._generator_powers()
        sentinel = 2 * (N - 1) + 1
        self._log_np = np.full(N, sentinel, dtype=np.int64)
        self._log_np[self._exp] = np.arange(N - 1)
        self._log = self._log_np.tolist()
        self._exp_ext = np.zeros(2 * sentinel + 1, dtype=np.int64)
        self._exp_ext[: 2 * N - 3] = np.tile(self._exp, 2)[: 2 * N - 3]

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> "GF2n":
        """Parse a field spec string "n:POLYHEX", e.g. "3:b" for x^3+x+1."""
        try:
            n_str, poly_str = spec.split(":")
            n = int(n_str)
            modulus = int(poly_str, 16)
        except ValueError as exc:
            raise ValueError(f"bad field spec {spec!r}; expected 'n:POLYHEX'") from exc
        return cls(n, modulus)

    @property
    def spec_string(self) -> str:
        return f"{self.n}:{self.modulus:x}"

    def __repr__(self) -> str:
        return f"GF2n({self.n}, modulus=0x{self.modulus:x})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GF2n)
            and self.n == other.n
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.n, self.modulus))

    def _generator_powers(self) -> list[int]:
        """Powers g^0 .. g^(N-2) of the smallest generator g of the
        multiplicative group.

        A candidate g generates exactly when g^((N-1)/p) != 1 for every prime
        p dividing N - 1; that order test rejects each smaller candidate by a
        few square-and-multiply powers, so only g's cycle is walked.
        """
        group = self.order - 1
        cofactors = [group // p for p in _prime_factors(group)]
        for g in range(2, self.order):
            if all(_poly_powmod(g, k, self.modulus) != 1 for k in cofactors):
                powers = [1]
                for _ in range(group - 1):
                    powers.append(_poly_mulmod(powers[-1], g, self.modulus))
                return powers
        return [1]  # n == 1: the group is trivial

    # -- scalar operations ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def square(self, a: int) -> int:
        return self.mul(a, a)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in F_{2^n}")
        return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        return self._exp[(self._log[a] * k) % (self.order - 1)]

    def sqrt(self, a: int) -> int:
        """The unique square root: a^(2^(n-1))."""
        return self.pow(a, 1 << (self.n - 1)) if a else 0

    def subfield_trace(self, a: int, d: int) -> int:
        """Trace of F_{2^d} to F_2, for a lying in that subfield."""
        if self.n % d != 0:
            raise ValueError(f"F_2^{d} is not a subfield of F_2^{self.n}")
        if not self.in_subfield(a, d):
            raise ValueError(f"element {a:#x} is not in F_2^{d}")
        t = 0
        v = a
        for _ in range(d):
            t ^= v
            v = self.square(v)
        return t

    def in_subfield(self, a: int, d: int) -> bool:
        return self.n % d == 0 and self.pow(a, 1 << d) == a

    def rel_trace(self, e: int, m: int) -> int:
        """Relative trace from F_{2^{3m}} to F_{2^m}; requires n == 3m."""
        self._require_cubic_tower(m)
        t = 1 << m
        return e ^ self.pow(e, t) ^ self.pow(e, t * t)

    def rel_norm(self, e: int, m: int) -> int:
        """Relative norm from F_{2^{3m}} to F_{2^m}; requires n == 3m."""
        self._require_cubic_tower(m)
        t = 1 << m
        return self.pow(e, 1 + t + t * t)

    def _require_cubic_tower(self, m: int) -> None:
        if self.n != 3 * m:
            raise ValueError(f"need n == 3m, got n={self.n}, m={m}")

    def generator(self) -> int:
        """The smallest generator of the multiplicative group (1 for n = 1)."""
        return self._exp[1 % (self.order - 1)]

    # -- bulk (numpy) operations --------------------------------------------

    def elements(self) -> np.ndarray:
        return np.arange(self.order, dtype=np.int64)

    def log_vec(self, a: np.ndarray) -> np.ndarray:
        return self._log_np[a]

    def exp_vec(self, logs: np.ndarray) -> np.ndarray:
        return self._exp_ext[logs]

    def mul_vec(self, a, b) -> np.ndarray:
        """Elementwise product of encoded-element arrays (or array * scalar)."""
        return self._exp_ext[self._log_np[a] + self._log_np[b]]

    def pow_vec(self, a, k: int) -> np.ndarray:
        """Elementwise a^k for k >= 0 (a may contain zeros when k > 0)."""
        if k == 0:
            return np.ones_like(np.asarray(a))
        logs = self._log_np[a] * (k % (self.order - 1))
        mask = np.asarray(a) == 0
        out = self._exp_ext[logs % (self.order - 1)]
        return np.where(mask, 0, out)

    def power_table(self, k: int) -> np.ndarray:
        """x^k for every x, as an array indexed by x."""
        return self.pow_vec(self.elements(), k)


@lru_cache(maxsize=None)
def _prime_factors(v: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= v:
        if v % d == 0:
            out.append(d)
            while v % d == 0:
                v //= d
        d += 1
    if v > 1:
        out.append(v)
    return tuple(out)

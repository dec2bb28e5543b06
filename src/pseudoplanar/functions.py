"""Pseudo-planar functions over F_{2^n}: tests, criteria, constructions.

A function f is pseudo-planar when x -> f(x+e) + f(x) + e*x is a permutation
of the field for every nonzero e.  This module carries the direct test (a
GF(2) rank test for quadratic-type f, at one e per class of log e modulo the
period of f's scaling orbit, eliminating on stacks that keep the n basis
images on their first axis; an exhaustive eps-loop for the rest), the known
monomial families, and the three binomial constructions on F_{2^{3m}} with
their exact trace criteria, which are homogeneous of degree 3 under scaling
by F_{2^m}* and so are evaluated at one eps per coset of F_{2^m}* in
F_{2^n}*, O(2^(2n/3)).  The Moore-determinant criterion for
linearized polynomials and the full-eps forms of both criteria, their test
oracles, live in tests/oracles.py with the scalar per-eps values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import GF2n


@dataclass(frozen=True)
class SparsePoly:
    """A function F_{2^n} -> F_{2^n} as a sparse sum of coeff * x^exp terms.

    Canonical form: strictly increasing exponents, no zero coefficients.
    Use SparsePoly.make / SparsePoly.parse rather than the raw constructor.
    """

    field: GF2n
    terms: tuple[tuple[int, int], ...]

    @classmethod
    def make(cls, field: GF2n, terms) -> "SparsePoly":
        acc: dict[int, int] = {}
        for exp, coeff in terms:
            if not 0 <= exp <= field.order - 1:
                raise ValueError(f"exponent {exp} out of range [0, {field.order - 1}]")
            if not 0 <= coeff < field.order:
                raise ValueError(
                    f"coefficient {coeff:#x} is not a field element, "
                    f"0 <= c < {field.order:#x}"
                )
            acc[exp] = acc.get(exp, 0) ^ coeff
        return cls(field, tuple(sorted((e, c) for e, c in acc.items() if c)))

    @classmethod
    def zero(cls, field: GF2n) -> "SparsePoly":
        return cls(field, ())

    @classmethod
    def monomial(cls, field: GF2n, coeff: int, exp: int) -> "SparsePoly":
        return cls.make(field, [(exp, coeff)])

    @classmethod
    def parse(cls, field: GF2n, literal: str) -> "SparsePoly":
        """Parse "e1:cHEX,e2:cHEX,..." (exponent decimal, coefficient hex)."""
        if literal in ("", "0:0"):
            return cls.zero(field)
        terms = []
        for part in literal.split(","):
            try:
                e_str, c_str = part.split(":")
                terms.append((int(e_str), int(c_str, 16)))
            except ValueError as exc:
                raise ValueError(f"bad polynomial term {part!r}") from exc
        seen = set()
        for exp, _ in terms:
            if exp in seen:
                raise ValueError(f"exponent {exp} is repeated in {literal!r}")
            seen.add(exp)
        return cls.make(field, terms)

    @property
    def literal(self) -> str:
        if not self.terms:
            return "0:0"
        return ",".join(f"{e}:{c:x}" for e, c in self.terms)

    def eval(self, x: int) -> int:
        f = self.field
        out = 0
        for exp, coeff in self.terms:
            out ^= f.mul(coeff, f.pow(x, exp))
        return out

    def value_table(self) -> np.ndarray:
        """f(x) for every x, as an array indexed by x."""
        f = self.field
        out = np.zeros(f.order, dtype=np.int64)
        for exp, coeff in self.terms:
            out ^= f.mul_vec(coeff, f.power_table(exp))
        return out

    def is_quadratic_type(self) -> bool:
        """True when every exponent has binary weight <= 2: Dembowski-Ostrom
        terms 2^i + 2^j plus any linear (2^i) and constant (x^0) terms."""
        return all(e.bit_count() <= 2 for e, _ in self.terms)


def pseudoplanar_witness(f: SparsePoly) -> int | None:
    """Smallest eps whose difference map is not a permutation, else None.

    Quadratic-type f (see SparsePoly.is_quadratic_type) are decided from
    their terms by a GF(2) rank test per eps (_orbit_witnesses), at most one
    eps per class of log eps mod the period P of f's scaling orbit, so
    O(P n^2) for a pseudo-planar f, P | 2^n - 1; every other f by the
    O(4^n) eps-loop of exhaustive_witness, which is also the test oracle of
    the rank test.
    """
    if f.is_quadratic_type():
        exps, coeffs = np.array(f.terms, dtype=np.int64).reshape(-1, 2).T
        table = _orbit_table(f.field, exps.tolist())
        rows, coeff_logs = np.arange(len(exps))[:, None], f.field.log_vec(coeffs)[:, None]
        return int(_orbit_witnesses(f.field, *table, rows, coeff_logs)[0]) or None
    return exhaustive_witness(f)


def exhaustive_witness(f: SparsePoly) -> int | None:
    """pseudoplanar_witness by counting collisions of every difference map."""
    fld = f.field
    N = fld.order
    ftab = f.value_table()
    xs = fld.elements()
    logs = fld.log_vec(xs)
    for eps in range(1, N):
        d = ftab[xs ^ eps] ^ ftab ^ fld.exp_vec(fld.log_vec(np.int64(eps)) + logs)
        if np.bincount(d, minlength=N).max() > 1:
            return eps
    return None


# Elements of one block of the rank test, over all candidates still
# undecided.  It bounds the working set of _orbit_witnesses, and the search
# sizes its chunks of candidates by it.
_RANK_BUDGET = 1 << 14


def _singular(rows: np.ndarray) -> np.ndarray:
    """Whether each stack of n vectors along the first axis of rows (GF(2)
    vectors as ints) is linearly dependent; rows is reduced in place.

    Lowest-set-bit elimination: a pivot row clears its lowest bit from every
    later row, so the pivots end with distinct lowest bits, and the vectors
    are dependent exactly when some row reduces to 0.

    The basis axis comes first so that each step is a few numpy passes over
    the contiguous rows j and j+1.. of every stack at once; with the basis
    on the last axis, each pass would run an inner loop of n - j - 1
    elements per stack.
    """
    n = rows.shape[0]
    for j in range(n - 1):
        # a slice, so that a 1-D stack's pivot is an array, not a scalar,
        # whose unsigned negation would warn
        piv = rows[j:j + 1]
        rest = rows[j + 1:]
        rest ^= piv * ((rest & (piv & -piv)) != 0)
    return (rows == 0).any(axis=0)


def _orbit_table(field: GF2n, exps: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """For each exponent t of exps: its shift, and the row of log B_t(2^k),
    k < n.  B_t(x) = (x+1)^t + x^t + 1 is the linear part of D_1(x^t):
    x^{2^i} + x^{2^j} for t = 2^i + 2^j, 0 for t = 2^i, and B_0 = 0 (the + 1
    is for t > 0 only); log 0 is the field's sentinel, so such a term adds 0
    to every image.  The shift is t - 2 mod 2^n - 1 where B_t != 0, and 0
    where B_t = 0: a term that adds nothing for any u must not shorten the
    period of _orbit_witnesses."""
    group = field.order - 1
    t = np.array(exps, dtype=np.int64)[:, None]
    x = np.int64(1) << np.arange(field.n, dtype=np.int64)
    x = np.stack([x ^ 1, x])[:, None]  # x + 1 and x at x = 2^k
    powers = np.where(x == 0, t == 0, field.exp_vec(t * field.log_vec(x) % group))  # 0^0 = 1
    b = powers[0] ^ powers[1] ^ (t > 0)
    return np.where(b.any(axis=1), (t[:, 0] - 2) % group, 0), field.log_vec(b)


@lru_cache(maxsize=64)
def _schedule(field: GF2n, period: int) -> tuple[np.ndarray, np.ndarray]:
    """The eps in 1..2^n - 1 that come first, in integer order, in their
    class of log eps mod period, in increasing order, and their logs."""
    logs = field.log_vec(np.arange(1, field.order, dtype=np.int64))
    first = np.sort(np.unique(logs % period, return_index=True)[1])
    return first + 1, logs[first]


def _orbit_witnesses(field: GF2n, shifts, logs, rows, coeff_logs) -> np.ndarray:
    """Smallest failing eps of each of k quadratic-type f, or 0 where none
    fails.  f is a sum of terms c x^t: rows (terms, k) index the t in an
    _orbit_table (shifts, logs), and coeff_logs (terms, k) holds log c.

    With eps = g^u for the field's generator g,

        D_eps(f)(eps x) = eps^2 D_1(f_u)(x),   f_u(x) = eps^-2 f(eps x),

    and a term c x^t of f is c g^(u (t - 2)) x^t in f_u.  D_1(f_u) is affine
    with linear part L(x) = x + sum of c g^(u (t - 2)) B_t(x), so D_eps(f)
    permutes the field exactly when the n images L(2^k) are independent.

    A term with B_t = 0 adds nothing to L, so the verdict of D_eps depends
    only on u mod P, the period (2^n - 1) / gcd(2^n - 1, the _orbit_table
    shifts of every term of the k f).  The kernel tests only the _schedule
    of P: the first eps, in integer order, of each class of u mod P.  The
    witness is still exact: an f's own period divides P, and every eps of a
    class mod that period fails with it, so f's smallest failing eps comes
    first in its class mod P and every scheduled eps before it passes.

    The schedule runs in blocks that start at a sixteenth of _RANK_BUDGET
    over the k f and grow 4-fold, each cut (to one eps at least) to keep the
    undecided f times the block times n within _RANK_BUDGET (callers keep
    k * n within it); an f leaves at its first failing block.  A block is a
    uint16 stack (n, eps, f) of the images, the basis axis first for
    _singular and the f axis last: a search block holds thousands of f and
    few eps, so the broadcasts of each term's logs over the eps of a block
    and the reductions of the verdicts over them run along the long axis.
    """
    n, group = field.n, field.order - 1
    basis = np.int64(1) << np.arange(n, dtype=np.int64)
    period = group // math.gcd(group, int(np.gcd.reduce(shifts[rows], axis=None)))
    sched, sched_logs = _schedule(field, period)
    out = np.zeros(rows.shape[1], dtype=np.int64)
    alive = np.arange(rows.shape[1])
    logs_t = np.ascontiguousarray(logs.T)  # (n, t), so a term's logs gather contiguous over f
    pos, size = 0, max(1, _RANK_BUDGET // (16 * n * alive.size))
    while pos < sched.size and alive.size:
        block = min(size, max(1, _RANK_BUDGET // (alive.size * n)), sched.size - pos)
        u = sched_logs[pos:pos + block, None]
        # the images L(2^k) as (n, eps, f): field elements have
        # n <= MAX_DEGREE = 16 bits, and a term-less f keeps the basis
        images = np.empty((n, block, alive.size), dtype=np.uint16)
        images[...] = basis[:, None, None]
        for r, c in zip(rows.take(alive, axis=1), coeff_logs.take(alive, axis=1)):
            a = (c + shifts[r] * u) % group  # log c g^(u (t - 2)) if B_t != 0
            term = field.exp_vec(logs_t.take(r, axis=1)[:, None] + a)
            np.bitwise_xor(images, term, out=images, casting="unsafe")
        fails = _singular(images)
        hit = fails.any(axis=0)
        out[alive] = np.where(hit, sched[pos + fails.argmax(axis=0)], 0)
        alive = alive[~hit]
        pos += block
        size *= 4
    return out


def is_pseudoplanar(f: SparsePoly) -> bool:
    return pseudoplanar_witness(f) is None


# -- known pseudo-planar monomial families ---------------------------------

MONOMIAL_FAMILIES = ("linear", "gold_half", "scherr_zieve")


def _check_coefficient(field: GF2n, a: int) -> None:
    """The family parameter a must be a nonzero element of the field."""
    if not 0 < a < field.order:
        raise ValueError(
            f"coefficient parameter a must be a nonzero field element, "
            f"0 < a < {field.order:#x}; got a = {a:#x}"
        )


def construct_known_monomial(field: GF2n, family: str, a: int, k: int | None = None) -> SparsePoly:
    """Build a known pseudo-planar monomial, validating its row condition."""
    n = field.n
    _check_coefficient(field, a)
    if family == "linear":
        kk = 0 if k is None else k
        if not 0 <= kk < n:
            raise ValueError(f"linear family needs 0 <= k < n, got k={kk}")
        return SparsePoly.monomial(field, a, 1 << kk)
    if family == "gold_half":
        if n % 2 != 0:
            raise ValueError(f"gold_half family needs even n, got n={n}")
        half = n // 2
        if not field.in_subfield(a, half):
            raise ValueError(f"gold_half family needs a in F_2^{half}*")
        if field.subfield_trace(a, half) != 0:
            raise ValueError(f"gold_half family needs Tr_{half}(a) = 0")
        return SparsePoly.monomial(field, a, (1 << half) + 1)
    if family == "scherr_zieve":
        if n % 6 != 0:
            raise ValueError(f"scherr_zieve family needs 6 | n, got n={n}")
        kk = n // 6
        e1 = (1 << (2 * kk)) - 1  # 4^k - 1
        group = field.order - 1
        if field.pow(a, group // e1) != 1:
            raise ValueError(f"scherr_zieve family needs a to be a {e1}-th power")
        if field.pow(a, group // (3 * e1)) == 1:
            raise ValueError(f"scherr_zieve family needs a not to be a {3 * e1}-th power")
        t = (1 << (2 * kk)) * ((1 << (2 * kk)) + 1)  # 4^k (4^k + 1)
        return SparsePoly.monomial(field, a, t)
    raise ValueError(f"unknown family {family!r}; expected one of {MONOMIAL_FAMILIES}")


def known_family_hits(field: GF2n) -> set[tuple[int, int]]:
    """All (coeff, exponent) pairs covered by the known monomial families
    for this field."""
    n = field.n
    hits: set[tuple[int, int]] = set()
    for a in range(1, field.order):
        for k in range(n):
            hits.add((a, 1 << k))
    if n % 2 == 0:
        half = n // 2
        for a in range(1, field.order):
            if field.in_subfield(a, half) and field.subfield_trace(a, half) == 0:
                hits.add((a, (1 << half) + 1))
    if n % 6 == 0:
        k = n // 6
        e1 = (1 << (2 * k)) - 1
        group = field.order - 1
        for a in range(1, field.order):
            if field.pow(a, group // e1) == 1 and field.pow(a, group // (3 * e1)) != 1:
                hits.add((a, (1 << (2 * k)) * ((1 << (2 * k)) + 1)))
    return hits


def known_hits_closure(field: GF2n) -> set[tuple[int, int]]:
    """known_family_hits closed under the scaling orbit.

    On some fields the known-family coefficient conditions single out one
    orbit representative per exponent rather than the full coefficient set;
    the closure is the complete prediction for an exhaustive search.

    The scaling orbit of (c, t) is the coset c*H, H the group of d-th powers
    with d = gcd(t - 2, 2^n - 1), so the closure for exponent t is every
    nonzero c whose log is congruent mod d to the log of a known c.
    """
    group = field.order - 1
    by_exp: dict[int, list[int]] = {}
    for c, t in known_family_hits(field):
        by_exp.setdefault(t, []).append(c)
    nonzero = field.elements()[1:]
    logs = field.log_vec(nonzero)
    out: set[tuple[int, int]] = set()
    for t, coeffs in by_exp.items():
        d = math.gcd(t - 2, group)
        known = np.unique(field.log_vec(np.array(coeffs, dtype=np.int64)) % d)
        out.update((int(c), t) for c in nonzero[np.isin(logs % d, known)])
    return out


# -- binomial constructions on F_{2^{3m}} ----------------------------------


def _cubic_field(field: GF2n, m: int) -> None:
    if field.n != 3 * m:
        raise ValueError(f"need a field of degree 3m = {3 * m}, got n = {field.n}")


def _nonzero_powers(field: GF2n, m: int):
    """k -> eps^k for one eps = g^u per coset of F_{2^m}* in F_{2^n}*,
    u = 0..(2^n - 1)/(2^m - 1) - 1, in that order: exp(k u), with no log
    gather and no zero mask.  F_{2^m}* is the subgroup generated by
    g^((2^n - 1)/(2^m - 1)), so these u meet every coset once."""
    group = field.order - 1
    u = np.arange(group // ((1 << m) - 1), dtype=np.int64)
    return lambda k: field.exp_vec(k * u % group)


def construct_binomial1(field: GF2n, m: int, a: int) -> SparsePoly:
    """f = a^(t^2+1) x^(t^2+1) + a^(-(t+1)) x^(t+1) with t = 2^m, m even."""
    _cubic_field(field, m)
    if m % 2 != 0:
        raise ValueError(f"this binomial family needs even m, got m={m}")
    _check_coefficient(field, a)
    t = 1 << m
    return SparsePoly.make(
        field,
        [
            (t * t + 1, field.pow(a, t * t + 1)),
            (t + 1, field.pow(a, -(t + 1))),
        ],
    )


def binomial1_criterion(field: GF2n, m: int, a: int) -> bool:
    """Exact pseudo-planarity criterion for construct_binomial1: the trace
    Tr3(expr(eps)), expr(eps) = c1 (a^(t+1) + eps^(t-1)) eps^(t+2)
    + c2 eps^3 + N3(eps), must be nonzero for every nonzero eps.

    It is tested at one eps per coset of F_{2^m}* (_nonzero_powers), so
    (2^n - 1)/(2^m - 1) values of eps, O(2^(2n/3)).  That is exact: for
    zeta in F_{2^m}*, zeta^t = zeta, so eps^(t-1) is fixed under
    eps -> zeta eps while eps^(t+2), eps^3 and N3(eps) scale by zeta^3;
    Tr3 is F_{2^m}-linear, so Tr3(expr(zeta eps)) = zeta^3 Tr3(expr(eps)),
    and its zeros are unions of cosets.
    """
    _cubic_field(field, m)
    if m % 2 != 0:
        raise ValueError(f"this binomial family needs even m, got m={m}")
    _check_coefficient(field, a)
    t = 1 << m
    c1 = field.pow(a, t * t + t) ^ field.pow(a, -(t * t + t + 2))
    c2 = field.pow(a, t - t * t)
    a_t1 = field.pow(a, t + 1)
    eps = _nonzero_powers(field, m)
    inner = a_t1 ^ eps(t - 1)
    # The last summand carries the Frobenius-stable norm exponent 1+t+t^2,
    # so inside Tr3 it contributes N3(eps); with a bare eps instead, the
    # expression stops agreeing with the difference-map determinant.
    expr = (
        field.mul_vec(field.mul_vec(np.int64(c1), inner), eps(t + 2))
        ^ field.mul_vec(np.int64(c2), eps(3))
        ^ eps(1 + t + t * t)
    )
    tr3 = expr ^ field.pow_vec(expr, t) ^ field.pow_vec(expr, t * t)
    return bool((tr3 != 0).all())


def construct_shifted_binomial(field: GF2n, m: int, variant: int) -> SparsePoly:
    """The two monic binomial families on F_{2^{3m}}, t = 2^m:

    variant 2: x^(t+1)   + x^(t^2+t)   (pseudo-planar when m != 2 mod 3)
    variant 3: x^(t^2+1) + x^(t^2+t)   (pseudo-planar when m != 1 mod 3)

    The residue conditions are warnings, not errors, so the failing cases
    can be constructed and inspected.
    """
    _cubic_field(field, m)
    t = 1 << m
    if variant == 2:
        if m % 3 == 2:
            warnings.warn(
                f"m={m} is 2 mod 3: variant 2 is not pseudo-planar", stacklevel=2
            )
        return SparsePoly.make(field, [(t + 1, 1), (t * t + t, 1)])
    if variant == 3:
        if m % 3 == 1:
            warnings.warn(
                f"m={m} is 1 mod 3: variant 3 is not pseudo-planar", stacklevel=2
            )
        return SparsePoly.make(field, [(t * t + 1, 1), (t * t + t, 1)])
    raise ValueError(f"variant must be 2 or 3, got {variant}")


def shifted_binomial_criterion(field: GF2n, m: int, variant: int) -> bool:
    """Exact pseudo-planarity criterion for construct_shifted_binomial: the
    obstruction N3(e) + Tr3(e^3 + e^(1+2t)) (variant 2) or
    N3(e) + Tr3(e^3 + e^(2+t)) (variant 3) must be nonzero for every
    nonzero e.

    Both are homogeneous of degree 3 under e -> zeta e for zeta in
    F_{2^m}* (zeta^t = zeta makes e^(1+2t), e^(2+t) and N3(e) scale by
    zeta^3 like e^3, and Tr3 is F_{2^m}-linear), so the obstruction at
    zeta e is zeta^3 times that at e.  It is tested at one e per coset of
    F_{2^m}* (_nonzero_powers): (2^n - 1)/(2^m - 1) values, O(2^(2n/3)).
    """
    _cubic_field(field, m)
    t = 1 << m
    extra = 1 + 2 * t if variant == 2 else 2 + t
    if variant not in (2, 3):
        raise ValueError(f"variant must be 2 or 3, got {variant}")
    eps = _nonzero_powers(field, m)
    inner = eps(3) ^ eps(extra)
    tr3 = inner ^ field.pow_vec(inner, t) ^ field.pow_vec(inner, t * t)
    m_eps = eps(1 + t + t * t) ^ tr3
    return bool((m_eps != 0).all())

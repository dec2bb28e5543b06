"""Exact multiset algebra over the additive group of GR(4, n).

A multiset of ring elements is a dense integer vector of length 4^n indexed
by element idx.  Signed vectors are allowed so identities like
2^n*delta_0 + (R - Z) are first-class values.  Convolution, involution, the
additive character transform and its inverse are all exact.  A GroupVec is
int64; a SpectrumVec keeps the integer dtype it is given, and the transform
returns its values in the narrowest of int16, int32 and int64 that the l1
norm of its input allows, so chi(D) of a set is int16.  The fast transform is
an n-dimensional radix-4 butterfly over the additive Z4^n coordinates, which
only the transform sees: everything else works in element indices.  It runs
in one direction; the inverse is the forward transform read at -g.  It
scatters only the support of a GroupVec, and runs its last digits on a
transposed copy so that every stage works on long contiguous runs.  The
tests anchor it, convolve and square_of_set against the naive character sums
and the O(16^n) convolution of tests/oracles.py for small n.
A GroupVec cannot change once built, so each 4^n fact about it is computed
at most once and kept on it, read-only: its support, its transform (see
_spectrum), and the verdict of verify_rds.  char_transform stays uncached
and is the oracle for the stored transform.  build_df keeps the last D_f it
built, so one (ring, f) gives one D_f and one transform.
The relative-difference-set identity is tested on chi(D); only when it
fails is |chi(D)|^2 inverted to name the elements where it fails.
square_of_set counts the pair sums of a 0/1 vector (GR4.pair_sums, one
uint32 table of element indices) into its square with no transform; it is
the test oracle of scheme.build_partition, which decides the square of D_f
from the same table without counting it.
"""

from __future__ import annotations

import functools

import numpy as np

from .exact import GaussInt
from .galois_ring import GR4
from .functions import SparsePoly


class GroupVec:
    """Integer-valued function on GR(4, n), i.e. a (signed) multiset.

    counts is read-only, and copied when it is a view of another array, so
    nothing can change it, and its stored support, transform (see _spectrum)
    and RDS verdict (see verify_rds) stay valid.
    """

    __slots__ = ("ring", "counts", "_support", "_chi", "_rds")

    def __init__(self, ring: GR4, counts: np.ndarray):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.base is not None:
            counts = counts.copy()
        if counts.shape != (ring.size,):
            raise ValueError(
                f"counts vector has shape {counts.shape}, expected ({ring.size},)"
            )
        self.ring = ring
        self.counts = counts
        self.counts.setflags(write=False)
        self._support = None
        self._chi = None
        self._rds = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ring: GR4) -> "GroupVec":
        return cls(ring, np.zeros(ring.size, dtype=np.int64))

    @classmethod
    def delta(cls, ring: GR4, x) -> "GroupVec":
        counts = np.zeros(ring.size, dtype=np.int64)
        counts[ring.idx(x)] = 1
        return cls(ring, counts)

    @classmethod
    def indicator(cls, ring: GR4, indices) -> "GroupVec":
        counts = np.zeros(ring.size, dtype=np.int64)
        counts[np.asarray(list(indices), dtype=np.int64)] = 1
        return cls(ring, counts)

    @classmethod
    def full_group(cls, ring: GR4) -> "GroupVec":
        return cls(ring, np.ones(ring.size, dtype=np.int64))

    # -- basic algebra -------------------------------------------------------

    def _check_ctx(self, other: "GroupVec") -> None:
        if self.ring != other.ring:
            raise ValueError("group ring context mismatch")

    def __add__(self, other: "GroupVec") -> "GroupVec":
        self._check_ctx(other)
        return GroupVec(self.ring, self.counts + other.counts)

    def __sub__(self, other: "GroupVec") -> "GroupVec":
        self._check_ctx(other)
        return GroupVec(self.ring, self.counts - other.counts)

    def scale(self, k: int) -> "GroupVec":
        return GroupVec(self.ring, k * self.counts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupVec)
            and self.ring == other.ring
            and bool((self.counts == other.counts).all())
        )

    def __hash__(self):
        return hash((self.ring, self.counts.tobytes()))

    def total(self) -> int:
        return int(self.counts.sum())

    def support(self) -> np.ndarray:
        """The indices of the nonzero counts, found once and kept read-only."""
        if self._support is None:
            self._support = np.flatnonzero(self.counts)
            self._support.setflags(write=False)
        return self._support

    def involute(self) -> "GroupVec":
        """Re-index by negation: the multiset {-g : g in A}."""
        neg = self.ring.neg_idx(np.arange(self.ring.size))
        return GroupVec(self.ring, self.counts[neg])

    def __repr__(self) -> str:
        nz = self.support()
        return f"GroupVec(n={self.ring.n}, support={len(nz)}, total={self.total()})"

    # -- convolution ---------------------------------------------------------

    def convolve(self, other: "GroupVec") -> "GroupVec":
        self._check_ctx(other)
        spectrum = self.char_transform().pointwise_mul(other.char_transform())
        return spectrum.inverse_transform()

    def square_of_set(self) -> "GroupVec":
        """self * self for a 0/1 vector, counted over its |self|^2 pairs.

        O(|self|^2) instead of the O(n 4^n) of convolve: for a difference
        set D_f that is 4^n pair sums, taken by GR4.pair_sums and counted
        per element.
        """
        sums = self.ring.pair_sums(self.support())
        return GroupVec(self.ring, np.bincount(sums.ravel(), minlength=self.ring.size))

    # -- character transform -------------------------------------------------

    def char_transform(self) -> "SpectrumVec":
        """chi_a(A) = sum_g A_g i^Tr(ag) for every a, as exact Gaussian ints.

        The values come in the narrowest integer dtype that holds them
        exactly (int16 for a set, see _work_dtype).  A fresh, writable vector
        on every call; _spectrum keeps one."""
        sup = self.support()
        return SpectrumVec(
            self.ring, *_transform(self.ring, self.counts[sup], None, at=sup)
        )


class SpectrumVec:
    """Character values of a multiset: entry a = chi_a(A), a Gaussian integer.

    re and im keep any signed integer dtype they are given (others become
    int64), and char_transform gives the narrowest exact one, often int16.
    Arithmetic on re and im must widen them first, as pointwise_mul does:
    the product of two int16 spectra wraps around.  _window holds the
    small value-count table that scheme keeps on the stored chi(D).
    """

    __slots__ = ("ring", "re", "im", "_window")

    def __init__(self, ring: GR4, re: np.ndarray, im: np.ndarray):
        self.ring = ring
        self.re, self.im = (
            v if v.dtype.kind == "i" else v.astype(np.int64)
            for v in (np.asarray(re), np.asarray(im))
        )
        if self.re.shape != (ring.size,) or self.im.shape != (ring.size,):
            raise ValueError("spectrum vector has wrong length")
        self._window = None

    def value(self, a_idx: int) -> GaussInt:
        return GaussInt(int(self.re[a_idx]), int(self.im[a_idx]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpectrumVec)
            and self.ring == other.ring
            and bool((self.re == other.re).all())
            and bool((self.im == other.im).all())
        )

    def __hash__(self):
        # int64 bytes, so that equal vectors of two dtypes hash alike
        re, im = (v.astype(np.int64, copy=False) for v in (self.re, self.im))
        return hash((self.ring, re.tobytes(), im.tobytes()))

    def pointwise_mul(self, other: "SpectrumVec") -> "SpectrumVec":
        if self.ring != other.ring:
            raise ValueError("group ring context mismatch")
        a, b, c, d = (
            v.astype(np.int64, copy=False)
            for v in (self.re, self.im, other.re, other.im)
        )
        return SpectrumVec(self.ring, a * c - b * d, a * d + b * c)

    def inverse_transform(self) -> GroupVec:
        """Recover the multiset: A_g = (1/4^n) sum_a chi_a(A) i^-Tr(ag).

        Raises if the input is not the transform of an integer vector.
        The sum at g is the forward transform of the labels at -g.
        """
        ring = self.ring
        re, im = _transform(ring, self.re, self.im)
        neg = ring.neg_idx(np.arange(ring.size))
        re, im = re[neg].astype(np.int64, copy=False), im[neg]
        # ring.size is 4^n: re is a multiple of it when its low 2n bits are 0
        rem = re & (ring.size - 1)
        if im.any() or rem.any():
            bad = int(np.flatnonzero((im != 0) | (rem != 0))[0])
            raise ValueError(
                f"spectrum is not the transform of an integer multiset "
                f"(first failure at element idx {bad})"
            )
        return GroupVec(ring, re >> (2 * ring.n))


# -- fast transform plumbing --------------------------------------------------
#
# The additive group of GR(4,n) is Z4^n in the coordinates with basis
# e_j = T(x^j); for the character chi_a the pairing satisfies
# Tr(a x) = u(a) . v(x) mod 4 where v(x) is the coordinate of element x and
# u(a) the label of chi_a (see _coordinates and _labels).  Both are outer
# XORs of 2^n-entry parts, v(a, b) = rows[a] ^ cols[b], and nothing outside
# this transform sees them.  The transform over Z4^n factorizes into n
# radix-4 stages with kernel i^{u_j v_j}, on a pair of integer vectors
# (re, im) with i * (r, s) = (-s, r).  It runs in one direction only: the
# labels are ring elements too and Tr(a g) = Tr(g a), so the inverse sum
# with i^-Tr(a g) at g is the forward sum at -g.
#
# Every value a stage computes is a sum of input entries times +-1 or +-i,
# so its |re| + |im| never exceeds the l1 norm sum(|re| + |im|) of the
# input.  The pair runs in int16 when that norm is below 2^15, in int32 when
# it is below 2^31, and in int64 otherwise, and the result comes back in
# that dtype: chi(D) (norm 2^n) is int16, and the inverse of |chi(D)|^2 that
# names RDS violations (norm 4^n |D| = 8^n for D_f, by Parseval) runs in
# int32 while 8^n < 2^31, i.e. n <= 10.  Only GroupVec is int64 at the
# interface; whatever multiplies or shifts a result widens it first.
#
# Stage j works on digit j of the base-4 coordinate, whose contiguous runs
# are 4^j long.  The high digits run in place; the last _tail_digits(n) run
# on a transposed copy, where they are the high digits.  That leaves the
# result with its base-4 digits rotated, and the gather that reorders the
# result by label reads through the rotated labels instead.


def _transform(ring: GR4, re, im, at=None) -> tuple[np.ndarray, np.ndarray]:
    """sum_x A_x i^Tr(a x) for every a, exactly, as (re, im) in the work
    dtype of A (see _work_dtype).

    im None means 0.  With at given, re and im are the entries of A at the
    element indices at, and A is 0 elsewhere; without it, they are all of A.
    """
    rows, cols = _coordinates(ring)
    if at is None:
        scatter = _outer_xor(rows, cols)
    else:
        scatter = rows[at >> ring.n] ^ cols[at & (len(cols) - 1)]
    parts = (re,) if im is None else (re, im)
    fre = np.zeros(ring.size, dtype=_work_dtype(parts))
    fre[scatter] = re
    fim = np.zeros_like(fre)
    if im is not None:
        fim[scatter] = im
    fre, fim = _radix4(fre, fim)
    gather = _gather(ring)
    return fre[gather], fim[gather]


def _work_dtype(parts) -> type:
    """The narrowest of int16, int32, int64 above the l1 norm of parts; the
    zero entries of a vector may be left out of its part."""
    # a float64 sum cannot wrap around, and is exact while below 2^53
    l1 = sum(float(np.abs(p, dtype=np.float64).sum()) for p in parts)
    for dtype in (np.int16, np.int32):
        if l1 <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _tail_digits(n: int) -> int:
    """How many low digits _radix4 runs on a transposed copy (none for n <= 3)."""
    return max(0, min(3, n - 3))


def _rotate(c: np.ndarray, n: int) -> np.ndarray:
    """Position in _radix4's output of coordinate c: its low _tail_digits(n)
    base-4 digits moved above the others."""
    k = _tail_digits(n)
    return ((c & ((1 << 2 * k) - 1)) << (2 * (n - k))) | (c >> (2 * k))


def _outer_xor(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The 4^n vector whose entry at idx(a, b) is rows[a] ^ cols[b]."""
    return (rows[:, None] ^ cols).ravel()


@functools.lru_cache(maxsize=1)
def _coordinates(ring: GR4) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols): the Z4^n coordinate of element (a, b), as a base-4
    integer, is rows[a] ^ cols[b].  Kept for the last ring used.

    The basis is e_j = T(x^j) = (x^j, 0).  The sum of e_j over the bits of
    a is (a, h(a)), and (a, b) = (a, h(a)) + 2*T(b ^ h(a)), so digit j of
    (a, b) is a_j + 2*(b ^ h(a))_j.
    """
    f = ring.field
    a = f.elements()
    sqrt = f.pow_vec(a, f.order >> 1)
    h = np.zeros(1, dtype=np.int64)
    spread = np.zeros_like(a)  # bit j of a moved to bit 2j
    for j in range(ring.n):
        # (a', h(a')) + (x^j, 0) = (a' ^ x^j, h(a') ^ sqrt(a' x^j))
        h = np.concatenate([h, h ^ sqrt[f.mul_vec(a[: 1 << j], 1 << j)]])
        spread |= ((a >> j) & 1) << (2 * j)
    return spread | (spread[h] << 1), spread << 1


def _labels(ring: GR4) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols): the Z4^n label u(a, b) of chi_(a, b) with respect to
    _coordinates, Tr(a x) = u(a) . v(x) mod 4 for all x, is
    rows[a] ^ cols[b].

    Digit k of u(y) is Tr(y e_k), and u(a, b) = u(T(a)) + 2 u(T(b)) with
    Tr(T(a) e_k) = Tr(T(a x^k)).
    """
    f = ring.field
    a = f.elements()
    sqrt = f.pow_vec(a, f.order >> 1)
    # Tr(T(c)) for every c: the ring sum of the pairs (c^(2^i), 0)
    ta, tb, v = np.zeros_like(a), np.zeros_like(a), a
    for _ in range(ring.n):
        tb ^= sqrt[f.mul_vec(ta, v)]
        ta ^= v
        v = f.mul_vec(v, v)
    trace = ta | (tb << 1)
    u = np.zeros_like(a)
    for k in range(ring.n):
        u |= trace[f.mul_vec(a, 1 << k)] << (2 * k)
    low_bits = (ring.size - 1) // 3  # bit 0 of every base-4 digit
    return u, (u & low_bits) << 1


@functools.lru_cache(maxsize=1)
def _gather(ring: GR4) -> np.ndarray:
    """The labels in _rotate order: the gather that reorders the output of
    _radix4 by label.  _rotate permutes bits, so it distributes over the
    XOR of the label parts.  Kept for the last ring used, as intp, the
    index type a gather needs without a cast."""
    rows, cols = _labels(ring)
    return _outer_xor(_rotate(rows, ring.n), _rotate(cols, ring.n))


def _radix4(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply the kernel i^{u v} along every Z4 digit of flat (re, im).

    Consumes two owned, contiguous 4^n vectors of one integer dtype and
    returns the pair that holds the result, in _rotate order.  It allocates
    one scratch pair: the high digits run in place on (re, im) with it as
    scratch, the transposed copy goes into it, and the tail digits run there
    with (re, im) as scratch.
    """
    n = re.size.bit_length() // 2
    k = _tail_digits(n)
    sre = np.empty_like(re)
    sim = np.empty_like(im)
    _stages(re, im, sre, sim, n - k)
    if not k:
        return re, im
    for v, t in ((re, sre), (im, sim)):
        t.reshape(4**k, 4 ** (n - k))[...] = v.reshape(4 ** (n - k), 4**k).T
    _stages(sre, sim, re, im, k)
    return sre, sim


def _stages(re, im, sre, sim, count: int) -> None:
    """The first count stages (highest digits first) of the butterfly on
    (re, im), in place, with (sre, sim) as scratch.

    Each stage copies the four sums and differences of one digit into
    scratch and writes the four outputs back through strided views.
    """
    size = re.size
    outer = 1
    for _ in range(count):
        inner = size // (4 * outer)
        vr = re.reshape(outer, 4, inner)
        vm = im.reshape(outer, 4, inner)
        tr = sre.reshape(4, outer, inner)
        tm = sim.reshape(4, outer, inner)
        for v, t in ((vr, tr), (vm, tm)):
            np.add(v[:, 0], v[:, 2], out=t[0])
            np.subtract(v[:, 0], v[:, 2], out=t[1])
            np.add(v[:, 1], v[:, 3], out=t[2])
            np.subtract(v[:, 1], v[:, 3], out=t[3])
            # rows of the kernel: u=0 -> sum; u=2 -> alternating sum
            np.add(t[0], t[2], out=v[:, 0])
            np.subtract(t[0], t[2], out=v[:, 2])
        # u=1,3 -> d02 + i*d13 and d02 - i*d13, with i * (r, s) = (-s, r)
        np.subtract(tr[1], tm[3], out=vr[:, 1])
        np.add(tr[1], tm[3], out=vr[:, 3])
        np.add(tm[1], tr[3], out=vm[:, 1])
        np.subtract(tm[1], tr[3], out=vm[:, 3])
        outer *= 4


def _spectrum(D: GroupVec) -> SpectrumVec:
    """chi(D), transformed on the first request and kept on D, read-only."""
    if D._chi is None:
        X = D.char_transform()
        X.re.setflags(write=False)
        X.im.setflags(write=False)
        D._chi = X
    return D._chi


# -- difference sets ----------------------------------------------------------


@functools.lru_cache(maxsize=1)
def build_df(ring: GR4, f: SparsePoly) -> GroupVec:
    """The graph-of-f set {x + 2*sqrt(f(x)) : x in the Teichmuller system}.

    The last D_f built is kept, so a repeated (ring, f) returns the same
    GroupVec, and with it the transform that _spectrum stored on it.
    """
    if f.field != ring.field:
        raise ValueError("polynomial field does not match the ring")
    field = ring.field
    counts = np.zeros(ring.size, dtype=np.int64)
    roots = field.pow_vec(f.value_table(), field.order >> 1)
    counts[(field.elements() << ring.n) | roots] = 1
    return GroupVec(ring, counts)


def rds_expected(ring: GR4) -> GroupVec:
    """2^n * delta_0 + (R - Z): the difference multiset of a (2^n,2^n,2^n,1)-RDS."""
    counts = np.ones(ring.size, dtype=np.int64)
    counts[: 1 << ring.n] = 0  # Z is the index prefix [0, 2^n)
    counts[0] = 1 << ring.n
    return GroupVec(ring, counts)


def _rds_check(X: SpectrumVec) -> tuple[bool, list[tuple[int, int, int]]]:
    """verify_rds on X = chi(D), as char_transform gives it.

    chi(involute(D)) = conj chi(D), chi_a(R) = 4^n [a = 0] and
    chi_a(Z) = 2^n [a in Z], so the identity reads
    |chi_a(D)|^2 == 2^n + 4^n [a = 0] - 2^n [a in Z] for every a; the
    transform is injective, so this is exact.  Only on failure is |X|^2
    inverted back to D * involute(D), to name the violations.
    """
    ring = X.ring
    # an int16 X has |re| + |im| <= 2^15 - 1 (see _work_dtype), so
    # re^2 + im^2 < 2^30 fits int32
    wide = np.int32 if X.re.dtype == np.int16 else np.int64
    norm = np.multiply(X.re, X.re, dtype=wide)
    norm += np.multiply(X.im, X.im, dtype=wide)
    # a is in Z exactly when a < 2^n
    t = 1 << ring.n
    if norm[0] == ring.size and not norm[1:t].any() and (norm[t:] == t).all():
        return True, []
    diff = SpectrumVec(ring, norm, np.zeros_like(norm)).inverse_transform()
    expected = rds_expected(ring)
    bad = np.flatnonzero(diff.counts != expected.counts)
    violations = [
        (int(g), int(diff.counts[g]), int(expected.counts[g])) for g in bad[:10]
    ]
    return False, violations


def verify_rds(D: GroupVec) -> tuple[bool, list[tuple[int, int, int]]]:
    """Check D * involute(D) == 2^n*delta_0 + (R - Z).

    Returns (ok, violations) with at most 10 violations, each a triple
    (element idx, actual multiplicity, expected multiplicity), in a fresh
    list.  The identity is tested on chi(D) once per D, and the verdict is
    kept on D.
    """
    if D._rds is None:
        ok, violations = _rds_check(_spectrum(D))
        D._rds = ok, tuple(violations)
    ok, violations = D._rds
    return ok, list(violations)

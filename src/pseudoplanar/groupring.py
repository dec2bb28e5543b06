"""Exact multiset algebra over the additive group of GR(4, n).

A multiset of ring elements is a dense integer vector of length 4^n indexed
by element idx, except D_f, which build_df holds as its 2^n points: the
dense vector is built only if something reads it.  Signed vectors are
allowed.  The additive character transform is exact and runs in one
direction.  A GroupVec is int64; a SpectrumVec keeps the integer dtype it
is given, and the transform returns its values in the narrowest of int16,
int32 and int64 that the l1 norm of its input allows, so chi(D) of a set is
int16.  The fast transform works in the Teichmuller coordinates of the
element index, idx(x + 2s) = x 2^n + s: with y = c + 2d,
chi_y(x + 2s) = i^Tr T(cx) (-1)^(tr(cs) + tr(dx)), so it is two 2^n-point
integer Walsh-Hadamard transforms, over s and over x, with a phase between
them (see the transform plumbing below).  No step exceeds the l1 norm of
the input.  It scatters only the support of a GroupVec, and for a
transversal of Z = 2R, as D_f is, not even that: there the WHT over s is a
Hadamard row per x, built in closed form.  The tests anchor it against the
naive character sums of tests/oracles.py for small n; the group-ring
product, the involution, the inverse transform and the rest of the dense
algebra that only the tests need are oracles there too.
A GroupVec cannot change once built, so each 4^n fact about it is computed
at most once and kept on it, read-only: its dense counts, its support, its
transform (see _spectrum), and the verdict of verify_rds.  char_transform
stays uncached and is the oracle for the stored transform.  build_df keeps
the last D_f it built, so one (ring, f) gives one D_f and one transform.
The relative-difference-set identity D D^(-1) = 2^n delta_0 + (R - Z) is
tested on chi(D), one block of |chi(D)|^2 at a time.  Only when it fails
are the pair differences u - v of D counted, one block of rows of their
table at a time by _pair_counts, to name the elements where it fails.
scheme.build_partition counts D^2, the pair sums u + v, with the same
counter when its own check of D^2 fails.
"""

from __future__ import annotations

import functools

import numpy as np

from .exact import GaussInt
from .galois_ring import _BLOCK, GR4
from .functions import SparsePoly


class GroupVec:
    """Integer-valued function on GR(4, n), i.e. a (signed) multiset.

    A GroupVec keeps the form it was built in: the dense int64 counts given
    to the constructor, or, for a set made by _from_support (build_df), its
    sorted support alone, with every multiplicity 1.  counts is then built
    on its first read.  Either way counts is read-only, and copied when it
    is a view of another array, so nothing can change it, and its stored
    support, transform (see _spectrum) and RDS verdict (see verify_rds) stay
    valid.  It has no arithmetic: the sums, products and involution of
    multisets that the tests check against are oracles in tests/oracles.py.
    """

    __slots__ = ("ring", "_counts", "_support", "_chi", "_rds")

    def __init__(self, ring: GR4, counts: np.ndarray):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.base is not None:
            counts = counts.copy()
        if counts.shape != (ring.size,):
            raise ValueError(
                f"counts vector has shape {counts.shape}, expected ({ring.size},)"
            )
        self.ring = ring
        self._counts = counts
        self._counts.setflags(write=False)
        self._support = None
        self._chi = None
        self._rds = None

    @classmethod
    def _from_support(cls, ring: GR4, support: np.ndarray) -> "GroupVec":
        """The set of the sorted, distinct element indices support."""
        D = cls.__new__(cls)
        D.ring, D._counts, D._chi, D._rds = ring, None, None, None
        D._support = support
        D._support.setflags(write=False)
        return D

    @property
    def counts(self) -> np.ndarray:
        if self._counts is None:
            counts = np.zeros(self.ring.size, dtype=np.int64)
            counts[self._support] = 1
            counts.setflags(write=False)
            self._counts = counts
        return self._counts

    def multiplicity(self, g_idx: int) -> int:
        """The count at element idx g_idx, read without building counts."""
        if self._counts is not None:
            return int(self._counts[g_idx])
        sup = self._support
        k = int(np.searchsorted(sup, g_idx))
        return int(k < len(sup) and sup[k] == g_idx)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupVec)
            and self.ring == other.ring
            and bool((self.counts == other.counts).all())
        )

    def __hash__(self):
        return hash((self.ring, self.counts.tobytes()))

    def total(self) -> int:
        if self._counts is None:
            return len(self._support)
        return int(self.counts.sum())

    def support(self) -> np.ndarray:
        """The indices of the nonzero counts, found once and kept read-only."""
        if self._support is None:
            self._support = np.flatnonzero(self.counts)
            self._support.setflags(write=False)
        return self._support

    def __repr__(self) -> str:
        nz = self.support()
        return f"GroupVec(n={self.ring.n}, support={len(nz)}, total={self.total()})"

    # -- character transform -------------------------------------------------

    def char_transform(self) -> "SpectrumVec":
        """chi_a(A) = sum_g A_g i^Tr(ag) for every a, as exact Gaussian ints.

        The values come in the narrowest integer dtype that holds them
        exactly (int16 for a set, see _work_dtype).  A fresh, writable vector
        on every call; _spectrum keeps one."""
        sup, values = self._sparse()
        return SpectrumVec(self.ring, *_transform(self.ring, values, sup))

    def _sparse(self) -> tuple[np.ndarray, np.ndarray]:
        """(support, the int64 counts on it), read without building counts."""
        sup = self.support()
        if self._counts is None:
            return sup, np.ones(len(sup), dtype=np.int64)
        return sup, self._counts[sup]


class SpectrumVec:
    """Character values of a multiset: entry a = chi_a(A), a Gaussian integer.

    re and im keep any signed integer dtype they are given (others become
    int64), and char_transform gives the narrowest exact one, often int16.
    Arithmetic on re and im must widen them first, as the norms of
    _rds_norms_hold do: the product of two int16 spectra wraps around.
    There is no inverse transform; _window holds the small value-count
    table that scheme keeps on the stored chi(D).
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


# -- fast transform plumbing --------------------------------------------------
#
# Write a label y = c + 2d and an element z = x + 2s with c, d, x, s in the
# Teichmuller system, so idx(y) = c 2^n + d and idx(z) = x 2^n + s.  Then
# yz = T(cx) + 2T(cs) + 2T(dx), and Tr 2T(w) = 2 tr(w) with tr the trace of
# F_{2^n}, so
#
#     chi_(c,d)(A) = sum_x i^Tr T(cx) (-1)^tr(dx) sum_s A(x, s) (-1)^tr(cs),
#
# and tr(cs) = tau(c) . s, a dot product of bit vectors (tau of _tables).
# The inner sum is row tau(c) of the Walsh-Hadamard transform (WHT) over s,
# and the outer one row tau(d) of the WHT over x.  On (2^n, 2^n) integer
# arrays, real until step 3 and (re, im) after it, _transform
#   1. puts A in [s, x] order by a scatter of its support;
#   2. runs the WHT over s along axis 0;
#   3. reads its rows at tau, which gives [c, x] order, multiplies them by
#      the phase i^Tr T(cx) = cos + i sin, two int8 tables, and transposes
#      them to [x, c] order;
#   4. runs the WHT over x along axis 0;
#   5. reads its rows at tau and transposes them, which gives [c, d] order:
#      the label index.
# The WHTs run along axis 0, so every butterfly adds runs of whole rows of
# 2^n entries.  Steps 3 and 5 go one block of rows at a time, so that a
# block stays in cache between its gather and its transposed write.
#
# A transversal of Z, A(x, s) = [s = r(x)] with unit weights (D_f, with
# r = sqrt f), takes steps 1-3 in closed form (_transversal_phase).  Since
# tr(cs) = tau(c) . s = tau(s) . c, the inner sum is (-1)^(tau(r(x)) . c),
# so row x of the WHT over s is a Hadamard row G[x, c], built in int8 by one
# doubling per bit of c.  The phase i^Tr T(cx) is symmetric in c and x, so
# cos and sin read [x, c] as well, and step 3 is fre = G cos and fim = G sin:
# no scatter, no WHT over s, no gather and no transposed write.  The data
# picks this path: a support whose high halves x are 0, 1, ..., 2^n - 1 in
# order, each with count 1.  Every other multiset takes steps 1-3 above.
#
# Every value a step computes is a sum of input entries, each at most once,
# times +-1 or +-i: a WHT stage adds or subtracts two values, the gathers
# and transposes only move them, and the phase multiplies each by one power
# of i, as exactly one of cos and sin is nonzero at each place.  So its
# |re| + |im| never exceeds the l1 norm sum |A| of the input, and neither
# do the temporaries of step 3, each one product with cos or sin.  The
# arrays are int16 when that norm is below 2^15, int32 when it is below
# 2^31, and int64 otherwise, and the result comes back in that dtype:
# chi(D) (norm 2^n) is int16.  Only GroupVec is int64 at the interface;
# whatever multiplies a result widens it first.

_COS = np.array([1, 0, -1, 0], dtype=np.int8)  # the real part of i^k
_SIN = np.array([0, 1, 0, -1], dtype=np.int8)  # the imaginary part of i^k


def _transform(ring: GR4, values, at) -> tuple[np.ndarray, np.ndarray]:
    """sum_x A_x i^Tr(a x) for every a, exactly, as (re, im) in the work
    dtype of A (see _work_dtype), where A is values at the element indices
    at and 0 elsewhere."""
    n, m = ring.n, 1 << ring.n
    tau, cos, sin = _tables(ring)
    dtype = _work_dtype(values)
    if (len(at) == m and (values == 1).all()
            and np.array_equal(at >> n, np.arange(m))):
        fre, fim = _transversal_phase(ring, at, dtype)
        spare = np.empty_like(fre)
    else:
        v = np.zeros((m, m), dtype=dtype)
        v.reshape(-1)[((at & (m - 1)) << n) | (at >> n)] = values
        walsh, fre = _wht(v, np.empty_like(v))
        fim = np.empty_like(fre)
        step = max(1, _BLOCK // m)
        for i in range(0, m, step):
            c = slice(i, i + step)
            rows = walsh[tau[c]]
            fre[:, c] = (rows * cos[c]).T
            fim[:, c] = (rows * sin[c]).T
        spare = walsh
    out = []
    for v in (fre, fim):
        v, t = _wht(v, spare)
        _transpose(v, t, tau)
        out.append(t.reshape(-1))
        spare = v
    return out[0], out[1]


def _transversal_phase(ring: GR4, at, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Steps 1-3 of _transform for the set at = {x 2^n + r(x)}: (fre, fim) =
    G (cos, sin) in [x, c] order, with the Hadamard rows
    G[x, c] = (-1)^(tau[r(x)] . c) built by one doubling per bit of c."""
    n, m = ring.n, 1 << ring.n
    tau, cos, sin = _tables(ring)
    v = tau[at & (m - 1)]
    G = np.empty((m, m), dtype=np.int8)
    G[:, 0] = 1
    for k in range(n):
        h = 1 << k
        sign = (1 - 2 * ((v >> k) & 1)).astype(np.int8)
        np.multiply(G[:, :h], sign[:, None], out=G[:, h : 2 * h])
    return np.multiply(G, cos, dtype=dtype), np.multiply(G, sin, dtype=dtype)


def _work_dtype(values) -> type:
    """The narrowest of int16, int32, int64 above the l1 norm of values; the
    zero entries of a vector may be left out of them."""
    # a float64 sum cannot wrap around, and is exact while below 2^53
    l1 = float(np.abs(values, dtype=np.float64).sum())
    for dtype in (np.int16, np.int32):
        if l1 <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _wht(v: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The WHT of square v along axis 0, with t as scratch.

    Returns (result, free): v and t in the order that the stages left them.
    """
    size = len(v)
    half = 1
    while half < size:
        a = v.reshape(size // (2 * half), 2, -1)
        b = t.reshape(a.shape)
        np.add(a[:, 0], a[:, 1], out=b[:, 0])
        np.subtract(a[:, 0], a[:, 1], out=b[:, 1])
        v, t = t, v
        half *= 2
    return v, t


def _transpose(v: np.ndarray, t: np.ndarray, order: np.ndarray) -> None:
    """t[:, k] = v[order[k]] for every k of square v and t, one block of
    _BLOCK entries at a time, which stays in cache."""
    step = max(1, _BLOCK // len(v))
    for i in range(0, len(v), step):
        k = slice(i, i + step)
        t[:, k] = v[order[k]].T


@functools.lru_cache(maxsize=1)
def _tables(ring: GR4) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tau, cos, sin) for _transform, kept for the last ring used.

    tau[c] has bit j = tr(c x^j), so tr(c s) = tau[c] . s for every s; it is
    a bijection, as the trace form is nondegenerate.  cos + i sin is
    i^Tr T(c x) as two (2^n, 2^n) int8 tables indexed [c, x], built one
    block of rows at a time.
    """
    f = ring.field
    a = f.elements()
    sqrt = f.pow_vec(a, f.order >> 1)
    # Tr(T(w)) in Z4 for every w: the ring sum of the pairs (w^(2^i), 0)
    ta, tb, v = np.zeros_like(a), np.zeros_like(a), a
    for _ in range(ring.n):
        tb ^= sqrt[f.mul_vec(ta, v)]
        ta ^= v
        v = f.mul_vec(v, v)
    trace = ta | (tb << 1)
    tau = np.zeros_like(a)
    for j in range(ring.n):
        tau |= ta[f.mul_vec(a, 1 << j)] << j
    cos = np.empty((f.order, f.order), dtype=np.int8)
    sin = np.empty_like(cos)
    rows = max(1, _BLOCK // f.order)
    for i in range(0, f.order, rows):
        t = trace[f.mul_vec(a[i : i + rows, None], a)]
        np.take(_COS, t, out=cos[i : i + rows])
        np.take(_SIN, t, out=sin[i : i + rows])
    return tau, cos, sin


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
    roots = field.pow_vec(f.value_table(), field.order >> 1)
    # sorted, as x is the high half of the element index
    return GroupVec._from_support(ring, (field.elements() << ring.n) | roots)


def _pair_counts(D: GroupVec, negate: bool) -> np.ndarray:
    """D * D, or D * D^(-1) with negate, as int64 counts: at each element
    index g, the sum of D_u D_v over the pairs (u, v) of the support of D
    with u + v = g, or u - v = g.

    The pair table comes from GR4.pair_sums one block of rows at a time,
    against the columns v or -v, and is added into the counts by one
    np.add.at per block, on raveled intp indices: about three times faster
    than on the 2-D uint32 block.
    """
    ring = D.ring
    sup, w = D._sparse()
    cols = ring.neg_idx(sup) if negate else sup
    out = np.zeros(ring.size, dtype=np.int64)
    rows = max(1, _BLOCK // max(1, len(sup)))
    for i in range(0, len(sup), rows):
        sums = ring.pair_sums(sup[i : i + rows], cols)
        np.add.at(
            out, sums.ravel().astype(np.intp), np.outer(w[i : i + rows], w).ravel()
        )
    return out


def _rds_norms_hold(X: SpectrumVec) -> bool:
    """Whether X = chi(D) satisfies the RDS identity D D^(-1) = 2^n delta_0 +
    (R - Z).

    chi(D^(-1)) = conj chi(D), chi_a(R) = 4^n [a = 0] and
    chi_a(Z) = 2^n [a in Z], so the identity reads
    |chi_a(D)|^2 == 2^n + 4^n [a = 0] - 2^n [a in Z] for every a; the
    transform is injective, so this is exact.
    """
    ring = X.ring
    # an int16 X has |re| + |im| <= 2^15 - 1 (see _work_dtype), so
    # re^2 + im^2 < 2^30 fits int32
    wide = np.int32 if X.re.dtype == np.int16 else np.int64
    # a is in Z exactly when a < 2^n; one _BLOCK of labels at a time
    t = 1 << ring.n
    for lo in range(0, ring.size, _BLOCK):
        hi = lo + _BLOCK
        block = np.multiply(X.re[lo:hi], X.re[lo:hi], dtype=wide)
        block += np.multiply(X.im[lo:hi], X.im[lo:hi], dtype=wide)
        z = min(max(t - lo, 0), len(block))  # the labels of Z in the block
        if lo == 0:
            if block[0] != ring.size:
                return False
            block[0] = 0
        if block[:z].any() or (block[z:] != t).any():
            return False
    return True


def _rds_check(D: GroupVec) -> tuple[bool, list[tuple[int, int, int]]]:
    """verify_rds on D, with no stored verdict.

    The identity is decided on X = chi(D) (see _rds_norms_hold).  Only on
    failure is D D^(-1) counted, to name the first ten elements, in index
    order, where it is not 2^n at 0, 0 on the rest of Z (the index prefix
    [0, 2^n)) and 1 elsewhere.  A D of at most 2^(n+1) points, as every D_f
    (2^n) is, has its pair differences counted: at most 4 * 4^n of them.  A
    denser D has up to 16^n, so D D^(-1) is read from one forward transform
    of |X|^2 instead: it is real and even, g -> -g, so the inverse transform
    that gives it from |X|^2 equals the forward one.
    """
    X = _spectrum(D)
    if _rds_norms_hold(X):
        return True, []
    ring = D.ring
    t = 1 << ring.n
    if len(D.support()) <= 2 * t:
        diff = _pair_counts(D, negate=True)
    else:
        re, im = (v.astype(np.int64) for v in (X.re, X.im))
        norm = re * re + im * im
        diff = _transform(ring, norm, np.arange(ring.size))[0].astype(np.int64)
        diff >>= 2 * ring.n  # an exact division by 4^n
    diff[t:] -= 1  # less the expected counts
    diff[0] -= t
    bad = []
    for lo in range(0, ring.size, _BLOCK):
        bad += (lo + np.flatnonzero(diff[lo : lo + _BLOCK])).tolist()
        if len(bad) >= 10:
            break
    violations = []
    for g in bad[:10]:
        want = t if g == 0 else int(g >= t)
        violations.append((g, int(diff[g]) + want, want))
    return False, violations


def verify_rds(D: GroupVec) -> tuple[bool, list[tuple[int, int, int]]]:
    """Check D * D^(-1) == 2^n*delta_0 + (R - Z).

    Returns (ok, violations) with at most 10 violations, each a triple
    (element idx, actual multiplicity, expected multiplicity), in a fresh
    list.  The identity is tested on chi(D) once per D, and the verdict is
    kept on D.
    """
    if D._rds is None:
        ok, violations = _rds_check(D)
        D._rds = ok, tuple(violations)
    ok, violations = D._rds
    return ok, list(violations)

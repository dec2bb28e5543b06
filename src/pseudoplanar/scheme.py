"""Association schemes from pseudo-planar difference sets in GR(4, n).

The difference set D_f of a pseudo-planar f induces a 6-part partition of
the ring (identity, D_f minus 0, its negative, the nonzero 2-torsion, the
support of D_f^2 outside those, and the rest), held as one int8 class label
per element.  The scheme is built from one transform X = chi(D): X gives the
relative-difference-set identity, and once that holds every class spectrum
and every dual class is a pointwise function of X.  D^2 is neither
transformed nor counted: once D passes the RDS check and contains 0, it is a
transversal of Z, so D^2 = 1_Z + 2 (sums of its unordered pairs), and it is
the combination S_0 + 2 S_1 + S_3 + 2 S_4 (+ 2 S_2 for n even) of the
classes exactly when the doubles are Z, the pair sums are distinct, off Z,
and cover S_1 (and S_2 for n even, and miss it for n odd).  One bool mark of
the pair sums, taken as element indices by GR4.pair_sums one block of rows
at a time, each unordered pair once, decides that, and chi(S_4) follows
from X^2.  By Zhou's theorem every relative difference set here is a D_f
with f pseudo-planar, so that check never fails on a D that reaches it;
when it does fail, the whole table of pair sums is built and counted to
name the first wrong element.  The dual partition of the character group
is one table lookup of X per character, in the pass over X's window keys
that also counts X's values on a small table, kept on the stored X for
raw_spectrum; the first
eigenmatrix P is evaluated at the least member of each dual class; the
spectra are constant on the dual classes by construction.  P is square: for
n >= 3 there are six classes and dual_partition refuses fewer than six dual
classes, and for n <= 2 every pseudo-planar f with f(0) = 0 gives the 4 x 4
or 5 x 5 P of the closed forms.  So the classes span a Schur ring
(Bridges-Mena), and the intersection numbers follow from P exactly, as
tensor contractions over the real and imaginary parts of P held as Python
ints in object arrays: their numerators pass 2^63 from n = 12 on.  The
second eigenmatrix follows from P by the orthogonality relation Q_ij = m_j
conj(P_ji) / k_i (m the dual class sizes, k the class sizes), and P Q = |R|
I is checked exactly over the Gaussian integers, on Q scaled by its least
common denominator, as one product of such matrices. build_report runs these
steps on one path, and the SchemeError of any step propagates unchanged.
The tests check the steps against the oracles in tests/oracles.py:
class_spectra (one transform per class) for eigen_P, verify_schur (every
pair of classes convolved) and intersection_numbers_gauss (the GaussInt
loops) for the intersection numbers, check_pq_gauss for the P Q check, and
partition_by_counted_square (D^2 counted by GroupVec.square_of_set),
pair_sum_marks_from_table (the marks read off the whole table of pair
sums) and s1_identities_hold for the D^2 combination.  The module also
evaluates the Fourier spectrum, which takes the pseudo-planarity of f from
the RDS verdict on D_f (Zhou), and fuses classes via the
constant-block-row-sum criterion.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .exact import GaussInt, GaussRat
from .functions import SparsePoly, pseudoplanar_witness
from .galois_ring import _BLOCK, GR4
from .groupring import GroupVec, SpectrumVec, _spectrum, build_df, verify_rds

SCHEMA_VERSION = 1

# why the scheme commands, and spectrum's closed-form check, refuse f(0) != 0
NEEDS_ZERO = "D must contain 0, which for D_f means f(0) = 0"


class SchemeError(ValueError):
    """Structural failure: the input does not produce the expected scheme."""


def _label_counts(labels: np.ndarray) -> list[int]:
    """How many of the int8 labels are 0, 1, ..., 5: one compare per label
    value, where np.bincount would first cast the labels to a 4^n intp
    array."""
    return [int(np.count_nonzero(labels == k)) for k in range(6)]


@dataclass(frozen=True)
class Partition6:
    """The ring split into S_0..S_5: labels[g] = k puts element g in S_k.

    labels is a read-only int8 vector over the elements; slots may be empty.
    The 0/1 class vectors are built on first use, for the test oracles;
    build_report never builds them.
    """

    ring: GR4
    labels: np.ndarray

    def __post_init__(self):
        labels = self.labels
        if labels.dtype != np.int8 or labels.shape != (self.ring.size,):
            raise SchemeError(
                f"partition labels are {labels.dtype} of shape {labels.shape}, "
                f"expected int8 of shape ({self.ring.size},)"
            )
        off = labels.view(np.uint8) > 5  # a negative label reads as >= 128
        if off.any():
            g = int(np.argmax(off))
            raise SchemeError(f"element {g} has class label {labels[g]}, not 0..5")
        labels.setflags(write=False)

    @cached_property
    def class_sizes(self) -> list[int]:
        return _label_counts(self.labels)

    @cached_property
    def classes(self) -> tuple[GroupVec, ...]:
        return tuple(GroupVec(self.ring, self.labels == k) for k in range(6))

    def nonempty_slots(self) -> list[int]:
        return [k for k, size in enumerate(self.class_sizes) if size > 0]


@dataclass(frozen=True)
class DualPartition:
    """Dual class index per character label, plus the sizes m_0..m_5."""

    ring: GR4
    labels: np.ndarray
    sizes: tuple[int, ...]

    def nonempty_slots(self) -> list[int]:
        return [k for k, m in enumerate(self.sizes) if m > 0]


def _square_coefficients(n: int) -> tuple[int, ...]:
    """a with D^2 = sum_k a_k S_k: D = S_0 + S_1 and the identity
    S_1^2 = S_3 + 2 S_4 (+ 2 S_2 for n even), which every pseudo-planar f
    with f(0) = 0 meets."""
    return (1, 2, 2 * (n % 2 == 0), 1, 2, 0)


def _pair_sum_marks(ring: GR4, in_d: np.ndarray):
    """(labels, ok) from the sums of D = in_d, with 0 = in_d[0].

    labels is an int8 vector over the elements: 0 at a pair sum, 1
    elsewhere.  ok tells whether D^2 = 1_Z + 2 (sum of the pair sums) is
    sum_k a_k S_k of _square_coefficients, which holds exactly when
    - the doubles are Z, once each;
    - the pair sums are distinct and lie off Z;
    - they cover S_1 = D - {0}, and cover S_2 = -S_1 for n even and miss it
      for n odd,
    provided the classes are disjoint.  The sums outside Z, D and -D are
    then S_4.

    The pairs are summed block by block, with no table of them all: a
    block of rows of D is summed by GR4.pair_sums against the columns from
    its first row on, so each unordered pair falls in one block.  The
    doubles are the diagonal of the block's own square.  Every other sum of
    the block is a pair sum, and the square's lower triangle repeats its
    upper one, so the whole block is marked once its diagonal is overwritten
    by one of its pair sums.  A scatter casts its indices to intp, so the
    cast is taken per block.
    """
    n, t = ring.n, 1 << ring.n
    doubles = np.empty(len(in_d), dtype=np.uint32)
    unmarked = np.ones(ring.size, dtype=bool)
    rows = max(1, _BLOCK // len(in_d))
    for i in range(0, len(in_d), rows):
        sums = ring.pair_sums(in_d[i : i + rows], in_d[i:])
        doubles[i : i + len(sums)] = sums.diagonal()
        if sums.shape[1] > 1:  # else the block is the last double alone
            np.fill_diagonal(sums, sums[0, 1])
            unmarked[sums.astype(np.intp)] = False
    pairs = len(in_d) * (len(in_d) - 1) // 2
    labels = unmarked.view(np.int8)
    s1 = in_d[1:]
    s2 = labels[ring.neg_idx(s1)]
    ok = (
        np.array_equal(np.sort(doubles), np.arange(t))
        and ring.size - np.count_nonzero(unmarked) == pairs
        and bool(labels[:t].all())  # Z is the index prefix [0, 2^n)
        and not labels[s1].any()
        and bool(not s2.any() if n % 2 == 0 else s2.all())
    )
    return labels, ok


def build_partition(D: GroupVec) -> Partition6:
    """Partition the ring by the difference-set structure of D.

    D must be a (2^n, 2^n, 2^n, 1) difference set relative to the 2-torsion
    subgroup (i.e. come from a pseudo-planar function); otherwise the class
    sizes would not be well defined and a SchemeError is raised.  D must also
    contain 0, or S_1 = D - {0} is not a set; for D = D_f that is f(0) = 0,
    and a D without 0 raises a plain ValueError.  D^2 must be the class
    combination sum_k a_k S_k of _square_coefficients, which is decided
    from the pair sums of D (see _pair_sum_marks) without counting them or
    holding their table; only when it fails is the table built and counted,
    and a SchemeError names the first element where D^2 is not that
    combination.  The RDS check is verify_rds, whose verdict is kept on D.
    """
    ring = D.ring
    ok, violations = verify_rds(D)
    if not ok:
        raise SchemeError(
            f"input is not a relative difference set; first violations "
            f"(idx, got, want): {violations}"
        )
    zero = ring.idx(ring.zero)
    if D.multiplicity(zero) != 1:
        raise ValueError(NEEDS_ZERO)
    # D is now a 0/1 vector: the RDS identity at 0 gives sum D_g^2 = 2^n =
    # |sum D_g|, so every D_g is 0 or 1, or every one 0 or -1.  It is 0 on
    # Z - {0}, so D is a transversal of Z, and
    # D^2 = sum_u 2u + 2 (the sums u + v of its unordered pairs).  Each
    # class is written over the ones before it: S_4 / S_5 by the pair sums,
    # then the 2-torsion Z, -D, D and 0, which leaves S_1 = D - {0} and
    # S_2 = -S_1.
    in_d = D.support()
    labels, square_ok = _pair_sum_marks(ring, in_d)
    labels += 4
    labels[: 1 << ring.n] = 3  # Z is the index prefix [0, 2^n)
    labels[ring.neg_idx(in_d)] = 2
    labels[in_d] = 1
    labels[zero] = 0
    part = Partition6(ring, labels)
    # a later class hides an earlier one where they meet
    if part.class_sizes[1:4] != [(1 << ring.n) - 1] * 3:
        raise SchemeError("partition classes are not disjoint")
    if not square_ok:
        a = _square_coefficients(ring.n)
        dsq = np.bincount(ring.pair_sums(in_d).ravel(), minlength=ring.size)
        want = np.take(np.array(a, dtype=np.int8), labels)
        g = int(np.argmax(dsq != want))
        raise SchemeError(
            f"D^2 is not sum_k a_k S_k with a = {a}: element {g} has "
            f"multiplicity {dsq[g]}, expected {want[g]}"
        )
    return part


def _dual_signatures(n: int) -> list[GaussInt]:
    """Expected chi(S_1) value for dual classes E_2..E_5, in slot order:
    column 1 of the closed-form P."""
    return [row[1] for row in _closed_form_P(n)[2:]]


def _window(n: int) -> tuple[int, int]:
    """(B, W): B = 2^floor(n/2) and W = 2B + 3, the side of the window
    [-B-1, B+1]^2 of _window_keys."""
    B = 1 << (n // 2)
    return B, 2 * B + 3


def _window_keys(X: SpectrumVec) -> np.ndarray:
    """key = (re + B + 1) W + (im + B + 1) for each value re + im i of X,
    with (B, W) = _window(n), so that key indexes a W x W table over
    [-B-1, B+1]^2.  re and im are clipped into that square, so every value
    outside [-B, B]^2 lands on its border.

    The clip runs in X's own dtype, where it cannot wrap.  Every key is
    below W^2, so the key stays in X's dtype, or in int16 if X is narrower
    and W^2 fits in it (n <= 13), else in int32.
    """
    B, W = _window(X.ring.n)
    key = np.clip(X.re, -(B + 1), B + 1)
    least = np.int16 if W * W <= np.iinfo(np.int16).max else np.int32
    key = key.astype(np.promote_types(key.dtype, least), copy=False)
    key += B + 1
    key *= W
    key += np.clip(X.im, -(B + 1), B + 1)
    key += B + 1
    return key


def _count_window(X: SpectrumVec, table: np.ndarray | None = None):
    """Count the values of X on the window of _window_keys, and keep the
    (W, W) table of counts on X: the one pass over the stored chi(D) that
    dual_partition makes also serves raw_spectrum.  With an int8 table of
    W^2 entries given, return it looked up at every key as well.

    bincount and take cast their keys to intp, so both run on one cast
    block of keys at a time, and no 4^n intp copy is made.
    """
    key = _window_keys(X)
    W = _window(X.ring.n)[1]
    counts = np.zeros(W * W, dtype=np.int64)
    out = None if table is None else np.empty(key.size, dtype=np.int8)
    for i in range(0, key.size, _BLOCK):
        block = key[i : i + _BLOCK].astype(np.intp)
        counts += np.bincount(block, minlength=W * W)
        if out is not None:
            np.take(table, block, out=out[i : i + _BLOCK])
    X._window = counts.reshape(W, W)
    return out


def dual_partition(X: SpectrumVec) -> DualPartition:
    """Group characters chi_a by the value chi_a(S_1) = X_a - 1, X = chi(D).

    Slot order is pinned: E_0 = {chi_0}, E_1 = characters trivial outside
    the 2-torsion (value -1), E_2..E_5 by the four +-b +-bi (n odd) or
    +-2^{n/2}, +-2^{n/2} i (n even) branches.  A character whose value
    matches no slot is a structure error; after the RDS check none can,
    since X_a is then 0 or of norm 2^n, and the Gaussian integers of norm
    2^n are the four slot values plus 1.  For n >= 3 all six classes must
    be nonempty.
    """
    ring = X.ring
    n = ring.n
    # Every slot value v has |v.re + 1|, |v.im| <= B.  A table over the
    # window of _window_keys, at (v.re + 1, v.im) = (X.re, X.im), holds the
    # slot of each value, and -1 on its border.
    # The class sizes are read off the counts on that window, with
    # character 0 moved to E_0.
    B, W = _window(n)
    cells = [
        (v.re + 1 + B + 1) * W + v.im + B + 1
        for v in [GaussInt(-1, 0)] + _dual_signatures(n)
    ]
    table = np.full(W * W, -1, dtype=np.int8)
    table[cells] = range(1, 6)
    labels = _count_window(X, table)
    counts = X._window.ravel()
    first = int(labels[0])  # the slot of character 0's value, or -1
    labels[0] = 0
    sizes = (1, *(int(counts[c]) - (first == k) for k, c in enumerate(cells, 1)))
    if sum(sizes) < ring.size:
        a = int(np.argmin(labels))
        raise SchemeError(
            f"character {a} has unexpected class sum "
            f"chi(S1) = {X.value(a) - 1}"
        )
    if n >= 3 and min(sizes) == 0:
        raise SchemeError(f"expected 6 dual classes for n={n}, sizes {sizes}")
    if sizes[1] != (1 << n) - 1:
        raise SchemeError(f"m_1 = {sizes[1]} != 2^n - 1")
    if n % 2 == 0:
        if sizes[2] - sizes[3] != (1 << (3 * n // 2)) - (1 << (n // 2)):
            raise SchemeError("m_2 - m_3 mismatch")
        if sizes[4] != sizes[5]:
            raise SchemeError("m_4 != m_5")
    return DualPartition(ring, labels, sizes)


def _least_members(labels: np.ndarray, slots: list[int]) -> list[int]:
    """The least g with labels[g] = j, for each j in slots, or 0 where there
    is none (as np.argmax(labels == j) gives).

    Prefixes of labels are searched, each twice as long as the one before,
    from 2^(n+1) on: E_1 = Z - {0} is the prefix [1, 2^n), and the other
    dual classes of a D_f have met their least members before 2^(n+1) at
    every n tried.
    """
    least: dict[int, int] = {}
    start, end = 0, 2 * math.isqrt(labels.size)
    while start < labels.size and not least.keys() >= set(slots):
        values, first = np.unique(labels[start:end], return_index=True)
        for j, g in zip(values.tolist(), first.tolist()):
            least.setdefault(j, start + g)
        start, end = end, 2 * end
    return [least.get(j, 0) for j in slots]


def eigen_P(part: Partition6, dual: DualPartition, X: SpectrumVec):
    """First eigenmatrix over the nonempty slots, from X = chi(D).

    Returns (P, row_slots, col_slots): P[j][i] = chi_g(S_{col_slots[i]}) at
    g the least member of E_{row_slots[j]}.  part and dual must come from X
    (as build_report makes them); the class spectra are then functions of X,
    and constant on each dual class:
    chi(S_0) = 1, chi(S_1) = X - 1, chi(S_2) = conj(X) - 1,
    chi(S_3) = chi(Z) - 1 = 2^n [g in Z] - 1, chi(S_4) from
    X^2 = sum_k a_k chi(S_k) (a SchemeError if it is not a Gaussian
    integer), and chi(S_5) from the spectrum 4^n delta_0 of the whole ring.
    """
    ring = part.ring
    a = _square_coefficients(ring.n)
    row_slots = dual.nonempty_slots()
    col_slots = part.nonempty_slots()
    P = []
    for g in _least_members(dual.labels, row_slots):
        x = X.value(g)
        chi = [
            GaussInt(1),
            x - 1,
            x.conj() - 1,
            GaussInt((1 << ring.n) * (g < 1 << ring.n) - 1),  # Z is g < 2^n
        ]
        twice = x * x - sum((a_k * c for a_k, c in zip(a, chi)), GaussInt())
        if twice.re % a[4] or twice.im % a[4]:
            raise SchemeError(f"chi(S_4) is not a Gaussian integer at character {g}")
        chi.append(GaussInt(twice.re // a[4], twice.im // a[4]))
        chi.append(ring.size * (g == 0) - sum(chi, GaussInt()))
        P.append([chi[i] for i in col_slots])
    return P, row_slots, col_slots


def eigen_Q(
    P: list[list[GaussInt]], class_sizes: list[int], dual_sizes: list[int]
) -> list[list[GaussRat]]:
    """Second eigenmatrix Q_ij = m_j conj(P_ji) / k_i, exact.

    k are the sizes of P's column classes and m of its row (dual) classes.
    This is the orthogonality relation of a commutative scheme (Delsarte;
    Bannai-Ito), so for square P it equals |R| P^{-1}; _check_pq confirms
    P Q = |R| I.
    """
    return [
        [
            GaussRat(Fraction(m * P[j][i].re, k), Fraction(-m * P[j][i].im, k))
            for j, m in enumerate(dual_sizes)
        ]
        for i, k in enumerate(class_sizes)
    ]


def closed_form_P(n: int) -> list[list[GaussInt]]:
    """The first eigenmatrix predicted for every pseudo-planar f on F_{2^n}.

    Rows follow the dual slot order E_0..E_5, columns the class order
    S_0..S_5 (including empty slots for n < 3).  The matrix is computed once
    per n; each call returns fresh lists of its entries.
    """
    return [list(row) for row in _closed_form_P(n)]


def closed_form_Q(n: int) -> list[list[GaussRat]]:
    """The second eigenmatrix: rows S_0..S_5, columns E_0..E_5.  Cached and
    copied like closed_form_P."""
    return [list(row) for row in _closed_form_Q(n)]


# The cached matrices; only copies of them leave the module.
@lru_cache(maxsize=None)
def _closed_form_P(n: int) -> list[list[GaussInt]]:
    g = GaussInt
    if n % 2 == 1:
        b = 1 << ((n - 1) // 2)
        k = 2 * b * b - 1
        v45 = 2 * b**4 - 3 * b * b + 1
        return [
            [g(1), g(k), g(k), g(k), g(v45), g(v45)],
            [g(1), g(-1), g(-1), g(k), g(1 - b * b), g(1 - b * b)],
            [g(1), g(-1 + b, b), g(-1 + b, -b), g(-1),
             g(1 - b) * g(1, -b), g(1 - b) * g(1, b)],
            [g(1), g(-1 + b, -b), g(-1 + b, b), g(-1),
             g(1 - b) * g(1, b), g(1 - b) * g(1, -b)],
            [g(1), g(-1 - b, b), g(-1 - b, -b), g(-1),
             g(1 + b) * g(1, -b), g(1 + b) * g(1, b)],
            [g(1), g(-1 - b, -b), g(-1 - b, b), g(-1),
             g(1 + b) * g(1, b), g(1 + b) * g(1, -b)],
        ]
    b = 1 << ((n - 2) // 2)
    k = 4 * b * b - 1
    return [
        [g(1), g(k), g(k), g(k), g(8 * b**4 - 10 * b * b + 2), g(8 * b**4 - 2 * b * b)],
        [g(1), g(-1), g(-1), g(k), g(2 - 2 * b * b), g(-2 * b * b)],
        [g(1), g(2 * b - 1), g(2 * b - 1), g(-1),
         g(2 * b * b - 4 * b + 2), g(-2 * b * b)],
        [g(1), g(-2 * b - 1), g(-2 * b - 1), g(-1),
         g(2 * b * b + 4 * b + 2), g(-2 * b * b)],
        [g(1), g(-1, 2 * b), g(-1, -2 * b), g(-1), g(2 - 2 * b * b), g(2 * b * b)],
        [g(1), g(-1, -2 * b), g(-1, 2 * b), g(-1), g(2 - 2 * b * b), g(2 * b * b)],
    ]


@lru_cache(maxsize=None)
def _closed_form_Q(n: int) -> list[list[GaussRat]]:
    def q(re, im=0):
        return GaussRat(Fraction(re), Fraction(im))

    if n % 2 == 1:
        b = 1 << ((n - 1) // 2)
        h = Fraction(b, 2)
        f23 = h * (2 * b**3 + 2 * b * b - b - 1)
        f45 = h * (2 * b**3 - 2 * b * b - b + 1)
        return [
            [q(1), q(2 * b * b - 1), q(f23), q(f23), q(f45), q(f45)],
            [q(1), q(-1),
             q(h * (b * b - 1), -h * (b * b + b)),
             q(h * (b * b - 1), h * (b * b + b)),
             q(h * (1 - b * b), -h * (b * b - b)),
             q(h * (1 - b * b), h * (b * b - b))],
            [q(1), q(-1),
             q(h * (b * b - 1), h * (b * b + b)),
             q(h * (b * b - 1), -h * (b * b + b)),
             q(h * (1 - b * b), h * (b * b - b)),
             q(h * (1 - b * b), -h * (b * b - b))],
            [q(1), q(2 * b * b - 1), q(-h * (1 + b)), q(-h * (1 + b)),
             q(h * (1 - b)), q(h * (1 - b))],
            [q(1), q(-1), q(-h, -h * b), q(-h, h * b), q(h, h * b), q(h, -h * b)],
            # the last entry rationalizes b(b^2+1)/(2(1-bi)) to b(1+bi)/2
            [q(1), q(-1), q(-h, h * b), q(-h, -h * b), q(h, -h * b), q(h, h * b)],
        ]
    b = 1 << ((n - 2) // 2)
    return [
        [q(1), q(4 * b * b - 1),
         q(b * (4 * b**3 + 4 * b * b - b - 1)),
         q(b * (4 * b**3 - 4 * b * b - b + 1)),
         q(b * b * (4 * b * b - 1)), q(b * b * (4 * b * b - 1))],
        [q(1), q(-1),
         q(b * (2 * b * b + b - 1)), q(-b * (2 * b * b - b - 1)),
         q(-b * b, -2 * b**3), q(-b * b, 2 * b**3)],
        [q(1), q(-1),
         q(b * (2 * b * b + b - 1)), q(-b * (2 * b * b - b - 1)),
         q(-b * b, 2 * b**3), q(-b * b, -2 * b**3)],
        [q(1), q(4 * b * b - 1), q(-b * (1 + b)), q(-b * (b - 1)),
         q(-b * b), q(-b * b)],
        [q(1), q(-1), q(b * (b - 1)), q(b * (1 + b)), q(-b * b), q(-b * b)],
        [q(1), q(-1), q(-b * (1 + b)), q(-b * (b - 1)), q(b * b), q(b * b)],
    ]


def spectrum_closed_form(n: int) -> list[tuple[GaussInt, int]]:
    """Predicted Fourier spectrum of any pseudo-planar f on F_{2^n} with
    f(0) = 0, sorted by (re, im): chi(D) = chi(S_1) + 1 = P_j1 + 1 on the
    m_j = Q_0j characters of each nonempty dual class E_j.  A constant term
    c translates D_f by the 2-torsion element 2*sqrt(c), which flips the
    sign of some values."""
    P, Q = _closed_form_P(n), _closed_form_Q(n)
    rows = [(P[j][1] + 1, int(Q[0][j].re)) for j in range(6) if Q[0][j].re > 0]
    return sorted(rows, key=lambda vf: vf[0].sort_key())


def fourier_spectrum(ring: GR4, f: SparsePoly) -> list[tuple[GaussInt, int]]:
    """Distinct character-sum values of D_f with frequencies, sorted by
    (re, im).  Requires f pseudo-planar; use raw_spectrum otherwise.  It
    equals spectrum_closed_form(n) when also f(0) = 0.

    By Zhou's theorem D_f is a relative difference set exactly when f is
    pseudo-planar, so the pseudo-planarity of f is read from verify_rds on
    the D_f that build_df keeps: a verdict stored by an earlier verify_rds or
    build_report, or else one check of the chi(D_f) that the spectrum reads
    anyway.  Only when that check fails is pseudoplanar_witness run, to name
    the eps in the error.
    """
    if not verify_rds(build_df(ring, f))[0]:
        raise SchemeError(
            f"{f.literal} is not pseudo-planar (witness eps = "
            f"{pseudoplanar_witness(f):#x}); use raw_spectrum for arbitrary "
            "functions"
        )
    return raw_spectrum(ring, f)


def raw_spectrum(ring: GR4, f: SparsePoly) -> list[tuple[GaussInt, int]]:
    """Distinct character-sum values of D_f with frequencies, sorted by
    (re, im), for any f.  build_df returns the D_f last built for the same
    (ring, f), so a chi(D_f) that verify_rds or build_report stored on it is
    read, not transformed again."""
    sp = _spectrum(build_df(ring, f))
    # The values in the window of _window_keys, which holds every value but
    # chi_0(D_f) = 2^n of a pseudo-planar f, are counted in its table, in
    # (re, im) order; the few on its border are sorted out exactly.  The
    # table of a D_f that build_report has partitioned is counted already.
    if sp._window is None:
        _count_window(sp)
    freq = sp._window
    B = _window(ring.n)[0]
    inner = freq[1:-1, 1:-1]
    rows = [
        (GaussInt(int(r) - B, int(m) - B), int(inner[r, m]))
        for r, m in zip(*np.nonzero(inner))
    ]
    border = ring.size - int(inner.sum())
    chi0 = sp.value(0)
    if border == 1 and max(abs(chi0.re), abs(chi0.im)) > B:
        # the one value off the window is chi_0: so for every pseudo-planar f
        rows.append((chi0, 1))
    elif border:
        rows += _far_values(sp, B)
    return sorted(rows, key=lambda vc: vc[0].sort_key())


def _far_values(sp: SpectrumVec, B: int) -> list[tuple[GaussInt, int]]:
    """The values of sp = chi(D_f) with |re| or |im| above B, with their
    frequencies, found by a scan of all of sp."""
    re, im = sp.re, sp.im
    far = np.flatnonzero((re < -B) | (re > B) | (im < -B) | (im > B))
    # |chi_a(D_f)| <= |D_f| = 2^n, so one int key per value orders the
    # values by (re, im)
    off = 1 << sp.ring.n
    width = 2 * off + 1
    re, im = (v[far].astype(np.int64) + off for v in (re, im))
    keys, counts = np.unique(re * width + im, return_counts=True)
    re, im = np.divmod(keys, width)
    return [
        (GaussInt(int(r) - off, int(m) - off), int(c))
        for r, m, c in zip(re, im, counts)
    ]


# -- fusion -------------------------------------------------------------------


class FusionError(ValueError):
    """The column partition admits no matching constant-block-row-sum fusion."""


def bm_fuse(P: list[list[GaussInt]], col_partition: list[list[int]]):
    """Fuse scheme classes via the constant-block-row-sum criterion.

    Given an eigenmatrix P and a partition of its columns (cell 0 must be
    {0}), searches for a row partition with cell {0} first such that every
    (row cell, column cell) block of P has a constant row sum.  Rows are
    grouped by their block-row-sum signature, which is the only possible
    row partition.  Returns (fused matrix, row_partition); raises
    FusionError with a witness otherwise, and a plain ValueError when
    col_partition is not such a partition.
    """
    m = len(P)
    width = len(P[0])
    cols = sorted(c for cell in col_partition for c in cell)
    if cols != list(range(width)):
        raise ValueError(
            f"column partition does not partition the columns 0..{width - 1} "
            f"of P ({width} columns)"
        )
    if col_partition[0] != [0]:
        raise ValueError("column cell 0 must be {0}")
    signatures = []
    for r in range(m):
        signatures.append(
            tuple(
                sum((P[r][c] for c in cell), GaussInt()) for cell in col_partition
            )
        )
    order: list[tuple] = []
    groups: dict[tuple, list[int]] = {}
    for r, sig in enumerate(signatures):
        if sig not in groups:
            groups[sig] = []
            order.append(sig)
        groups[sig].append(r)
    if groups[signatures[0]] != [0]:
        other = next(r for r in groups[signatures[0]] if r != 0)
        raise FusionError(
            f"row 0 shares its block-row-sum signature with row {other}"
        )
    if len(order) != len(col_partition):
        raise FusionError(
            f"{len(order)} distinct row signatures for "
            f"{len(col_partition)} column cells"
        )
    fused = [list(sig) for sig in order]
    row_partition = [groups[sig] for sig in order]
    return fused, row_partition


# -- reports ------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeReport:
    partition: Partition6
    dual: DualPartition
    p_tensor: np.ndarray
    P: list[list[GaussInt]]
    Q: list[list[GaussRat]]
    row_slots: list[int]
    col_slots: list[int]

    @property
    def class_count(self) -> int:
        return len(self.col_slots) - 1

    def matches_closed_forms(self) -> bool:
        n = self.partition.ring.n
        cp = _closed_form_P(n)
        if any(
            self.P[j][i] != cp[rj][ci]
            for j, rj in enumerate(self.row_slots)
            for i, ci in enumerate(self.col_slots)
        ):
            return False
        cq = _closed_form_Q(n)
        return all(
            self.Q[i][j] == cq[ci][rj]
            for i, ci in enumerate(self.col_slots)
            for j, rj in enumerate(self.row_slots)
        )

    def to_dict(self) -> dict:
        """The report as plain JSON values.

        A Q entry re + im*i is written as [re*L, im*L, L], L the least common
        denominator of re and im.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.partition.ring.n,
            "class_sizes": list(self.partition.class_sizes),
            "dual_sizes": list(self.dual.sizes),
            "class_count": self.class_count,
            "row_slots": self.row_slots,
            "col_slots": self.col_slots,
            "p_tensor": [
                [int(i), int(j), int(k), int(v)]
                for (i, j, k), v in np.ndenumerate(self.p_tensor)
                if v
            ],
            "P": [[[e.re, e.im] for e in row] for row in self.P],
            "Q": [[_encode_rat(e) for e in row] for row in self.Q],
            "pq_identity": _check_pq(self.P, self.Q, self.partition.ring.size),
            "matches_closed_forms": self.matches_closed_forms(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _encode_rat(e: GaussRat) -> list[int]:
    L = math.lcm(e.re.denominator, e.im.denominator)
    return [int(e.re * L), int(e.im * L), L]


def _gauss_parts(M) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts of a matrix of GaussInt, as object
    arrays of Python ints, so that products of them never wrap."""
    return (
        np.array([[e.re for e in row] for row in M], dtype=object),
        np.array([[e.im for e in row] for row in M], dtype=object),
    )


def _check_pq(P, Q, size: int) -> bool:
    """P Q == |R| I, exactly: P (L Q) == |R| L I over the Gaussian integers,
    L the least common denominator of the entries of Q, as one product of
    object-int matrices."""
    L = math.lcm(*(x.denominator for row in Q for e in row for x in (e.re, e.im)))

    def scaled(x: Fraction) -> int:
        return x.numerator * (L // x.denominator)

    q_re = np.array([[scaled(e.re) for e in row] for row in Q], dtype=object)
    q_im = np.array([[scaled(e.im) for e in row] for row in Q], dtype=object)
    p_re, p_im = _gauss_parts(P)
    product_re = p_re @ q_re - p_im @ q_im
    product_im = p_re @ q_im + p_im @ q_re
    want = np.diag(np.full(len(P), size * L, dtype=object))
    return bool((product_re == want).all() and (product_im == 0).all())


def _intersection_numbers(
    P, class_sizes: list[int], dual_sizes: list[int], col_slots: list[int]
) -> np.ndarray:
    """p_{ij}^k = sum_l m_l P_li P_lj conj(P_lk) / (|R| k_k), exactly.

    The (6,6,6) tensor p[i, j, k], the multiplicity of any S_k element in
    S_i * S_j, from the first eigenmatrix.  class_sizes are the sizes k of
    P's column classes, dual_sizes the sizes m of its row (dual) classes,
    and |R| = sum k.  Valid because P is square: the class spectra are
    constant on as many dual classes as there are classes, so the classes
    span every function constant on the dual classes, and that span is
    closed under convolution (Bridges-Mena).

    The numerators are a few tensor contractions over the real and
    imaginary parts of P, held as Python ints: the largest has 6n - 3 bits,
    past 2^63 from n = 12 on.  Raises SchemeError unless every value is a
    non-negative integer, naming the first (i <= j, then k) that is not.
    """
    re, im = _gauss_parts(P)
    m = np.array(dual_sizes, dtype=object)[:, None, None]
    # w_lij = m_l P_li P_lj, symmetric in i and j
    w_re = m * (re[:, :, None] * re[:, None, :] - im[:, :, None] * im[:, None, :])
    w_im = m * (re[:, :, None] * im[:, None, :] + im[:, :, None] * re[:, None, :])
    # v_ijk = sum_l w_lij conj(P_lk)
    v_re = np.einsum("lij,lk->ijk", w_re, re) + np.einsum("lij,lk->ijk", w_im, im)
    v_im = np.einsum("lij,lk->ijk", w_im, re) - np.einsum("lij,lk->ijk", w_re, im)
    den = sum(class_sizes) * np.array(class_sizes, dtype=object)
    bad = (v_im != 0) | (v_re < 0) | (v_re % den != 0)
    if bad.any():
        # v is symmetric in i and j, so the first bad (a, b, c) in index
        # order has a <= b
        a, b, c = (int(t) for t in np.argwhere(bad)[0])
        i, j, k = col_slots[a], col_slots[b], col_slots[c]
        v = GaussInt(v_re[a, b, c], v_im[a, b, c])
        raise SchemeError(
            f"p_{i}{j}^{k} = ({v})/{den[c]} is not a non-negative integer"
        )
    p = np.zeros((6, 6, 6), dtype=np.int64)
    p[np.ix_(col_slots, col_slots, col_slots)] = (v_re // den).astype(np.int64)
    return p


def build_report(D: GroupVec) -> SchemeReport:
    """The scheme of D, checked in the character domain from one chi(D):
    the transform stored on D, made here only if verify_rds has not made it.

    One path: build_partition, dual_partition, eigen_P, the intersection
    numbers and eigen_Q.  The SchemeError (or, for a D without 0, the
    ValueError) of the first step that fails propagates unchanged.
    """
    X = _spectrum(D)
    part = build_partition(D)
    dual = dual_partition(X)
    P, row_slots, col_slots = eigen_P(part, dual, X)
    k = [part.class_sizes[i] for i in col_slots]
    m = [dual.sizes[j] for j in row_slots]
    p_tensor = _intersection_numbers(P, k, m, col_slots)
    Q = eigen_Q(P, k, m)
    return SchemeReport(part, dual, p_tensor, P, Q, row_slots, col_slots)


def spectrum_csv(rows: list[tuple[GaussInt, int]]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["value_re", "value_im", "frequency"])
    for v, freq in rows:
        w.writerow([v.re, v.im, freq])
    return buf.getvalue()

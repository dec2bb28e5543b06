"""Test oracles: slow, independent reference implementations.

Each fast path of the package is checked against one of these.  They share
no code with the paths they check, and the package itself never calls them.

- Z4Model, trace and character: GR(4, n) as Z4[y]/(h(y)), and the naive
  additive characters, for the Teichmuller-pair arithmetic (the scalar
  add, neg and mul, and their index forms GR4.pair_sums and GR4.neg_idx),
  the trace-dual map and phase tables of the transform, and the
  Teichmuller-coordinate character transform and its conjugate inverse.
- convolve_naive: the O(16^n) convolution, for GroupVec.convolve and
  GroupVec.square_of_set.
- partition_by_counted_square: build_partition with D^2 counted by
  GroupVec.square_of_set from GR4.pair_sums and compared with the class
  combination element by element, for the pair-sum check of
  build_partition, which decides the same identity from the same sums
  without counting.
- pair_sum_marks_from_table: the pair-sum marks and verdict read off the
  whole symmetric GR4.pair_sums table of D, for scheme._pair_sum_marks,
  which walks each unordered pair once, one block of rows at a time.
- moore_det, linearized_is_bijection and binomial1_criterion_det: the
  Moore-determinant criterion, for binomial1_criterion.
- binomial1_criterion_full and shifted_binomial_criterion_full: both trace
  criteria vectorized over every nonzero eps, for the package's criteria,
  which test one eps per coset of F_{2^m}*.
- binomial1_trace_value, shifted_binomial_obstruction, scaling_orbit,
  mult_order and field_trace: scalar versions of the two criteria's per-eps
  values, the scaling closure, the multiplicative order and the absolute
  trace of F_{2^n}.
- candidate_value_tables, _rank_witnesses and value_table_rank_hits: bulk
  value tables of search candidates, the rank test at every eps built from
  value tables, and the search's hits from the two, for the package's eps = 1
  orbit kernel functions._orbit_witnesses (pp-test and the binomial search)
  and for the monomial search's coset kernel on quadratic exponents.  The
  rank test eliminates with last_axis_singular, the basis-last form of
  functions._singular, so it shares no step with the orbit kernel; the
  exhaustive eps-loop is the independent check of both.
- split_monomial_hits: the monomial hits by the rank test for exponents of
  binary weight <= 2 and the eps-loop for the rest, the path the coset
  kernel search._good_cosets replaced, for that kernel.
- class_spectra, s1_identities_hold and verify_schur: one transform per
  class, the S_1 multiset identities and the pairwise convolutions of the
  classes, for eigen_P, build_partition and the intersection numbers.
- intersection_numbers_gauss and check_pq_gauss: the intersection numbers
  from P and the P Q = |R| I check as loops over GaussInt products, for the
  object-int tensor contractions of scheme._intersection_numbers and
  scheme._check_pq.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from pseudoplanar.exact import GaussInt
from pseudoplanar.field import GF2n, _prime_factors
from pseudoplanar.functions import _RANK_BUDGET, _cubic_field, exhaustive_witness
from pseudoplanar.galois_ring import GR4, Pair
from pseudoplanar.groupring import GroupVec, verify_rds
from pseudoplanar.scheme import NEEDS_ZERO, Partition6, SchemeError
from pseudoplanar.search import SearchSpace, quad_exponents

# -- GR(4, n) -----------------------------------------------------------------


class Z4Model:
    """Brute-force model of GR(4, n): Z4-coefficient vectors modulo h(y).

    Test oracle for the Teichmuller-pair formulas of GR4.  No package code
    uses these Z4 coordinates: the transform works on Teichmuller pairs.

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

    def trace(self, v: tuple) -> int:
        """Tr(v) in Z4: the sum of the n Galois conjugates of v.  The
        Frobenius fixes Z4 and maps y, a Teichmuller element, to y^2."""
        n = self.n
        y = tuple(int(j == 1) for j in range(n))
        images = [self.pow(self.mul(y, y), j) if n > 1 else self.one() for j in range(n)]
        t = self.zero()
        for _ in range(n):
            t = self.add(t, v)
            w = self.zero()
            for c, image in zip(v, images):
                w = self.add(w, tuple(c * e % 4 for e in image))
            v = w
        if any(t[1:]):
            raise AssertionError(f"oracle trace {t} is not in Z4")
        return t[0]

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


_Z4_OF_PAIR = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}

# i^k for k mod 4
I_POWERS = (GaussInt(1, 0), GaussInt(0, 1), GaussInt(-1, 0), GaussInt(0, -1))


def trace(ring: GR4, x: Pair) -> int:
    """Trace to Z4: the ring sum of all n Frobenius iterates."""
    t = ring.zero
    v = x
    for _ in range(ring.n):
        t = ring.add(t, v)
        v = ring.frobenius(v)
    return _Z4_OF_PAIR[t]


def character(ring: GR4, a: Pair, x: Pair) -> GaussInt:
    """Additive character value chi_a(x) = i^Tr(ax): the naive character
    sum that the transform is checked against."""
    return I_POWERS[trace(ring, ring.mul(a, x))]


# -- group ring ---------------------------------------------------------------

NAIVE_MAX_DEGREE = 3


def convolve_naive(A: GroupVec, B: GroupVec) -> GroupVec:
    """O(16^n) reference convolution A * B, by ring addition pair by pair."""
    A._check_ctx(B)
    ring = A.ring
    if ring.n > NAIVE_MAX_DEGREE:
        raise ValueError(
            f"naive convolution is capped at n <= {NAIVE_MAX_DEGREE}"
        )
    out = np.zeros(ring.size, dtype=np.int64)
    for i in A.support():
        ci = A.counts[i]
        xi = ring.pair(int(i))
        for j in B.support():
            out[ring.idx(ring.add(xi, ring.pair(int(j))))] += ci * B.counts[j]
    return GroupVec(ring, out)


# -- functions ----------------------------------------------------------------


def linearized_eval(field: GF2n, coeffs, d: int, x: int) -> int:
    """Evaluate L(x) = sum c_i x^(q^i) with q = 2^d."""
    out = 0
    for i, c in enumerate(coeffs):
        out ^= field.mul(c, field.pow(x, 1 << (d * i)))
    return out


def moore_det(field: GF2n, coeffs, d: int) -> int:
    """Determinant of the twisted circulant deciding bijectivity of a
    linearized polynomial over F_{q^r}, q = 2^d, r = len(coeffs).

    Entry (j, k) is c_((j-k) mod r) raised to the q^k power; L permutes the
    field exactly when the determinant is nonzero.
    """
    r = len(coeffs)
    if field.n % (d * r) != 0 or field.n != d * r:
        raise ValueError(f"need n == d*r, got n={field.n}, d={d}, r={r}")
    M = [
        [field.pow(coeffs[(j - k) % r], 1 << (d * k)) for k in range(r)]
        for j in range(r)
    ]
    det = 1
    for col in range(r):
        piv = next((row for row in range(col, r) if M[row][col]), None)
        if piv is None:
            return 0
        M[col], M[piv] = M[piv], M[col]  # char 2: swaps do not change the determinant
        det = field.mul(det, M[col][col])
        inv = field.inv(M[col][col])
        M[col] = [field.mul(inv, v) for v in M[col]]
        for row in range(col + 1, r):
            fac = M[row][col]
            if fac:
                M[row] = [a ^ field.mul(fac, b) for a, b in zip(M[row], M[col])]
    return det


def linearized_is_bijection(field: GF2n, coeffs, d: int) -> bool:
    """Brute-force bijectivity check; the oracle for moore_det."""
    seen = set()
    for x in range(field.order):
        seen.add(linearized_eval(field, coeffs, d, x))
    return len(seen) == field.order


def binomial1_criterion_det(field: GF2n, m: int, a: int) -> bool:
    """binomial1_criterion via the Moore determinant of the per-eps
    linearized difference map, which must agree with it everywhere."""
    _cubic_field(field, m)
    t = 1 << m
    ca = field.pow(a, t * t + 1)
    cb = field.pow(a, -(t + 1))
    for eps in range(1, field.order):
        c0 = (
            field.mul(ca, field.pow(eps, t * t))
            ^ field.mul(cb, field.pow(eps, t))
            ^ eps
        )
        c1 = field.mul(cb, eps)
        c2 = field.mul(ca, eps)
        if moore_det(field, [c0, c1, c2], m) == 0:
            return False
    return True


def shifted_binomial_obstruction(field: GF2n, m: int, variant: int, e: int) -> int:
    """The per-eps obstruction value for the shifted binomials:
    N3(e) + Tr3(e^3 + e^(1+2t)) for variant 2, N3(e) + Tr3(e^3 + e^(2+t))
    for variant 3.  The binomial is pseudo-planar iff this is nonzero for
    every nonzero e.  Scalar oracle for shifted_binomial_criterion."""
    _cubic_field(field, m)
    t = 1 << m
    if variant == 2:
        extra = 1 + 2 * t
    elif variant == 3:
        extra = 2 + t
    else:
        raise ValueError(f"variant must be 2 or 3, got {variant}")
    inner = field.pow(e, 3) ^ field.pow(e, extra)
    return field.rel_norm(e, m) ^ field.rel_trace(inner, m)


def _every_nonzero_power(field: GF2n):
    """k -> eps^k for every nonzero eps = g^u, u = 0..2^n - 2, in that order."""
    group = field.order - 1
    u = np.arange(group, dtype=np.int64)
    return lambda k: field.exp_vec(k * u % group)


def binomial1_criterion_full(field: GF2n, m: int, a: int) -> bool:
    """binomial1_criterion with the trace expression evaluated at every
    nonzero eps, vectorized over eps."""
    _cubic_field(field, m)
    t = 1 << m
    c1 = field.pow(a, t * t + t) ^ field.pow(a, -(t * t + t + 2))
    c2 = field.pow(a, t - t * t)
    a_t1 = field.pow(a, t + 1)
    eps = _every_nonzero_power(field)
    inner = a_t1 ^ eps(t - 1)
    expr = (
        field.mul_vec(field.mul_vec(np.int64(c1), inner), eps(t + 2))
        ^ field.mul_vec(np.int64(c2), eps(3))
        ^ eps(1 + t + t * t)
    )
    tr3 = expr ^ field.pow_vec(expr, t) ^ field.pow_vec(expr, t * t)
    return bool((tr3 != 0).all())


def binomial1_trace_value(field: GF2n, m: int, a: int, e: int) -> int:
    """The per-eps value of binomial1_criterion at eps = e:
    Tr3(c1 (a^(t+1) + e^(t-1)) e^(t+2) + c2 e^3 + N3(e)), with
    c1 = a^(t^2+t) + a^-(t^2+t+2) and c2 = a^(t-t^2).  Scalar."""
    _cubic_field(field, m)
    t = 1 << m
    c1 = field.pow(a, t * t + t) ^ field.pow(a, -(t * t + t + 2))
    c2 = field.pow(a, t - t * t)
    inner = field.pow(a, t + 1) ^ field.pow(e, t - 1)
    expr = (
        field.mul(field.mul(c1, inner), field.pow(e, t + 2))
        ^ field.mul(c2, field.pow(e, 3))
        ^ field.rel_norm(e, m)
    )
    return field.rel_trace(expr, m)


def shifted_binomial_criterion_full(field: GF2n, m: int, variant: int) -> bool:
    """shifted_binomial_criterion with the obstruction evaluated at every
    nonzero e, vectorized over e."""
    _cubic_field(field, m)
    t = 1 << m
    if variant not in (2, 3):
        raise ValueError(f"variant must be 2 or 3, got {variant}")
    extra = 1 + 2 * t if variant == 2 else 2 + t
    eps = _every_nonzero_power(field)
    inner = eps(3) ^ eps(extra)
    tr3 = inner ^ field.pow_vec(inner, t) ^ field.pow_vec(inner, t * t)
    m_eps = eps(1 + t + t * t) ^ tr3
    return bool((m_eps != 0).all())


def scaling_orbit(field: GF2n, c: int, t: int) -> set[tuple[int, int]]:
    """Orbit of the monomial c*x^t under f(x) -> u^(-2) f(u x).

    That substitution preserves pseudo-planarity (the difference map of the
    image is the original difference map composed with x -> u x and scaled
    by u^(-2)) and sends c*x^t to (c*u^(t-2))*x^t.  Oracle for
    known_hits_closure.
    """
    return {(field.mul(c, field.pow(u, t - 2)), t) for u in range(1, field.order)}


def mult_order(field: GF2n, a: int) -> int:
    """The multiplicative order of a nonzero field element."""
    if a == 0:
        raise ValueError("0 has no multiplicative order")
    group = field.order - 1
    t = group
    for p in _prime_factors(group):
        while t % p == 0 and field.pow(a, t // p) == 1:
            t //= p
    return t


def field_trace(field: GF2n, a: int) -> int:
    """Absolute trace of a to F_2: the sum of its n Frobenius iterates."""
    t = 0
    for _ in range(field.n):
        t ^= a
        a = field.square(a)
    return t


# -- searches -----------------------------------------------------------------


def candidate_value_tables(space: SearchSpace, indices) -> np.ndarray:
    """Value tables of candidates, one row per index: the bulk form of
    space.candidate(i).value_table().  Products are taken as sums of logs in
    place, so a chunk makes few temporaries."""
    fld = space.field
    nc = space.coeff_count
    indices = np.asarray(indices, dtype=np.int64)
    if space.kind == "monomial":
        t, c = np.divmod(indices, nc)
        exps, row = np.unique(t + 1, return_inverse=True)
        out = fld.log_vec(np.stack([fld.power_table(int(e)) for e in exps]))[row]
        out += fld.log_vec(c + 1)[:, None]
        return fld.exp_vec(out)
    p, rem = np.divmod(indices, nc * nc)
    c1, c2 = np.divmod(rem, nc)
    # log x^e for every quadratic exponent e, and the rows of each pair's two
    exps = quad_exponents(fld.n)
    logs = fld.log_vec(np.stack([fld.power_table(e) for e in exps]))
    row = {e: r for r, e in enumerate(exps)}
    first, second = np.array([[row[e1], row[e2]] for e1, e2 in space.exponent_pairs]).T
    out = logs[first[p]]
    out += fld.log_vec(c1 + 1)[:, None]
    out = fld.exp_vec(out)
    second_logs = logs[second[p]]
    second_logs += fld.log_vec(c2 + 1)[:, None]
    out ^= fld.exp_vec(second_logs)
    return out


def last_axis_singular(rows: np.ndarray) -> np.ndarray:
    """Whether each stack of n vectors along the last axis of rows (GF(2)
    vectors as ints) is linearly dependent; rows is reduced in place.

    The lowest-set-bit elimination of functions._singular with the basis on
    the last axis: the value-table oracle keeps its own copy, so that it
    shares no step with the kernel it checks.
    """
    n = rows.shape[-1]
    for j in range(n - 1):
        piv = rows[..., j, None]
        rest = rows[..., j + 1:]
        rest ^= piv * ((rest & (piv & -piv)) != 0)
    return (rows == 0).any(axis=-1)


def _rank_witnesses(field: GF2n, tables: np.ndarray) -> np.ndarray:
    """Smallest failing eps of each row of a (k, 2^n) stack of value tables of
    quadratic-type functions, or 0 where a row has none.

    For such f, L(x) = f(x+eps) + f(x) + f(eps) + f(0) + eps*x is GF(2)-linear
    in x, and the difference map at eps is L plus a constant; so it permutes
    the field exactly when the n images L(2^j) are independent
    (last_axis_singular).

    eps runs in blocks of 64, 256, 1024, ... values, each cut (to one value at
    least) so that the undecided rows times the block times n stays within
    _RANK_BUDGET, which callers keep k * n within; a row leaves at the first
    block holding its witness.
    """
    n, N = field.n, field.order
    # field elements have n <= field.MAX_DEGREE = 16 bits
    T = np.asarray(tables).astype(np.uint16)
    out = np.zeros(len(T), dtype=np.int64)
    basis = np.int64(1) << np.arange(n, dtype=np.int64)
    alive = np.arange(len(T))
    start, size = 1, 64
    while start < N and alive.size:
        block = min(size, max(1, _RANK_BUDGET // (alive.size * n)), N - start)
        eps = np.arange(start, start + block, dtype=np.int64)
        a = alive[:, None]
        rows = T[a[:, :, None], eps[:, None] ^ basis]  # f(2^j + eps): (alive, block, n)
        rows ^= T[a, basis][:, None, :]
        rows ^= (T[a, eps] ^ T[alive, :1])[:, :, None]
        rows ^= field.mul_vec(eps[:, None], basis).astype(np.uint16)
        fails = last_axis_singular(rows)
        hit = fails.any(axis=1)
        out[alive[hit]] = eps[fails[hit].argmax(axis=1)]
        alive = alive[~hit]
        start += block
        size *= 4
    return out


def value_table_rank_hits(space: SearchSpace, indices) -> list[int]:
    """Hits among candidates of quadratic type: the rank test at every eps on
    their value tables, in chunks inside _RANK_BUDGET."""
    indices = list(indices)
    chunk = max(1, _RANK_BUDGET // space.field.order)
    hits = []
    for lo in range(0, len(indices), chunk):
        part = indices[lo:lo + chunk]
        eps = _rank_witnesses(space.field, candidate_value_tables(space, part))
        hits += [i for i, e in zip(part, eps.tolist()) if e == 0]
    return hits


def split_monomial_hits(space: SearchSpace, indices) -> list[int]:
    """Hits among monomial candidates by the split the search made before
    its coset kernel: the value-table rank test for the exponents of binary
    weight <= 2, and the eps-loop of exhaustive_witness, one candidate at a
    time, for every other exponent."""
    nc = space.coeff_count
    quad = [i for i in indices if (i // nc + 1).bit_count() <= 2]
    rest = [i for i in indices if (i // nc + 1).bit_count() > 2]
    pp = [i for i in rest if exhaustive_witness(space.candidate(i)) is None]
    return sorted(value_table_rank_hits(space, quad) + pp)


# -- schemes ------------------------------------------------------------------


def class_spectra(part: Partition6) -> tuple[np.ndarray, np.ndarray]:
    """Character sums chi_a(S_k), one transform per class: two (6, 4^n)
    integer arrays (re, im).  The oracle for eigen_P, which evaluates them
    from chi(D) at one character per dual class."""
    spectra = [S.char_transform() for S in part.classes]
    return np.array([sp.re for sp in spectra]), np.array([sp.im for sp in spectra])


def verify_schur(part: Partition6):
    """Intersection numbers p_{ij}^k, or a witness that they don't exist.

    Convolves every pair of classes: the oracle for the intersection numbers
    that build_report derives from P.  Returns (p_tensor, None) on success —
    a (6,6,6) array with p_tensor[i][j][k] = multiplicity of any S_k element
    in S_i * S_j — or (None, (i, j, k, g, g_prime)) naming two elements of
    the same class with different multiplicities.
    """
    p = np.zeros((6, 6, 6), dtype=np.int64)
    for i in range(6):
        for j in range(i, 6):
            conv = part.classes[i].convolve(part.classes[j])
            for k in range(6):
                sup = part.classes[k].support()
                if len(sup) == 0:
                    continue
                vals = conv.counts[sup]
                vmin, vmax = int(vals.min()), int(vals.max())
                if vmin != vmax:
                    g = int(sup[int(np.argmin(vals))])
                    g2 = int(sup[int(np.argmax(vals))])
                    return None, (i, j, k, g, g2)
                p[i, j, k] = p[j, i, k] = vmin
    return p, None


def pair_sum_marks_from_table(ring: GR4, in_d: np.ndarray, sums: np.ndarray):
    """scheme._pair_sum_marks(ring, in_d) read off sums, the symmetric
    GR4.pair_sums table of D = in_d, rows in the order of in_d: the doubles
    2u on its diagonal and every unordered pair sum twice off it.  The same
    (labels, ok): labels is 0 at a pair sum and 1 elsewhere, and ok tells
    whether the doubles are Z once each, the pair sums are distinct and off
    Z, and they cover S_1 = D - {0}, and S_2 = -S_1 exactly when n is even.
    """
    n, t = ring.n, 1 << ring.n
    doubles = sums.diagonal()
    unmarked = np.ones(ring.size, dtype=bool)
    unmarked[sums[~np.eye(len(in_d), dtype=bool)]] = False
    pairs = len(in_d) * (len(in_d) - 1) // 2
    labels = unmarked.view(np.int8)
    s1 = in_d[1:]
    s2 = labels[ring.neg_idx(s1)]
    ok = (
        np.array_equal(np.sort(doubles), np.arange(t))
        and ring.size - np.count_nonzero(unmarked) == pairs
        and bool(labels[:t].all())
        and not labels[s1].any()
        and bool(not s2.any() if n % 2 == 0 else s2.all())
    )
    return labels, ok


def partition_by_counted_square(D: GroupVec) -> Partition6:
    """build_partition(D), with D^2 counted pair by pair by
    GroupVec.square_of_set and compared with sum_k a_k S_k at every element;
    the same checks in the same order, and the same errors."""
    ring = D.ring
    ok, violations = verify_rds(D)
    if not ok:
        raise SchemeError(
            f"input is not a relative difference set; first violations "
            f"(idx, got, want): {violations}"
        )
    zero = ring.idx(ring.zero)
    if D.counts[zero] != 1:
        raise ValueError(NEEDS_ZERO)
    dsq = D.square_of_set().counts
    labels = np.where(dsq == 0, 5, 4).astype(np.int8)
    labels[: 1 << ring.n] = 3
    in_d = D.support()
    labels[ring.neg_idx(in_d)] = 2
    labels[in_d] = 1
    labels[zero] = 0
    part = Partition6(ring, labels)
    if part.class_sizes[1:4] != [(1 << ring.n) - 1] * 3:
        raise SchemeError("partition classes are not disjoint")
    a = (1, 2, 2 * (ring.n % 2 == 0), 1, 2, 0)
    want = np.array(a)[labels]
    if not np.array_equal(dsq, want):
        g = int(np.argmax(dsq != want))
        raise SchemeError(
            f"D^2 is not sum_k a_k S_k with a = {a}: element {g} has "
            f"multiplicity {dsq[g]}, expected {want[g]}"
        )
    return part


def s1_identities_hold(part: Partition6) -> bool:
    """The two exact multiset identities satisfied by S_1.

    S_1 * involute(S_1) = (2^n - 1) delta_0 + S_4 + S_5, and
    S_1^2 = S_3 + 2 S_4 (n odd) or S_3 + 2 S_2 + 2 S_4 (n even).
    """
    ring = part.ring
    s0, s1, s2, s3, s4, s5 = part.classes
    lhs = s1.convolve(s1.involute())
    if lhs != s0.scale((1 << ring.n) - 1) + s4 + s5:
        return False
    sq = s1.convolve(s1)
    if ring.n % 2 == 1:
        return sq == s3 + s4.scale(2)
    return sq == s3 + s2.scale(2) + s4.scale(2)


def intersection_numbers_gauss(P, class_sizes, dual_sizes, col_slots) -> np.ndarray:
    """p_{ij}^k = sum_l m_l P_li P_lj conj(P_lk) / (|R| k_k), one GaussInt
    product at a time, with the same checks and SchemeError text as
    scheme._intersection_numbers; |R| = sum k."""
    size = sum(class_sizes)
    sizes = class_sizes
    m = dual_sizes
    rows = range(len(dual_sizes))
    p = np.zeros((6, 6, 6), dtype=np.int64)
    for a, i in enumerate(col_slots):
        for b in range(a, len(col_slots)):
            j = col_slots[b]
            w = [m[l] * P[l][a] * P[l][b] for l in rows]
            for c, k in enumerate(col_slots):
                v = sum((w[l] * P[l][c].conj() for l in rows), GaussInt())
                den = size * sizes[c]
                if v.im != 0 or v.re < 0 or v.re % den != 0:
                    raise SchemeError(
                        f"p_{i}{j}^{k} = ({v})/{den} is not a non-negative integer"
                    )
                p[i, j, k] = p[j, i, k] = v.re // den
    return p


def check_pq_gauss(P, Q, size: int) -> bool:
    """P Q == |R| I over the Gaussian integers, on Q scaled by the least
    common denominator L of its entries, as GaussInt sums of products."""
    L = math.lcm(*(x.denominator for row in Q for e in row for x in (e.re, e.im)))

    def scaled(x: Fraction) -> int:
        return x.numerator * (L // x.denominator)

    LQ = [[GaussInt(scaled(e.re), scaled(e.im)) for e in row] for row in Q]
    product = [
        [sum((p * q[c] for p, q in zip(row, LQ)), GaussInt()) for c in range(len(Q[0]))]
        for row in P
    ]
    m = len(P)
    return product == [
        [GaussInt(size * L if j == k else 0) for k in range(m)] for j in range(m)
    ]

"""Group-ring vectors over GR(4,n): exact transform, RDS, and the dense
oracle algebra (convolution, involution, inverse transform)."""

import functools
import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudoplanar.exact import GaussInt
from pseudoplanar.field import GF2n
from pseudoplanar.functions import (
    SparsePoly,
    construct_shifted_binomial,
    is_pseudoplanar,
)
from pseudoplanar import groupring, scheme
from pseudoplanar.galois_ring import _BLOCK, GR4
from pseudoplanar.groupring import (
    GroupVec,
    SpectrumVec,
    _pair_counts,
    _rds_check,
    _rds_norms_hold,
    _spectrum,
    _tables,
    _transform,
    _work_dtype,
    build_df,
    verify_rds,
)

from oracles import (
    add,
    character,
    convolve,
    convolve_naive,
    delta,
    full_group,
    indicator,
    inverse_transform,
    involute,
    pointwise_mul,
    rds_expected,
    rds_violations_by_inverse,
    scale,
    square_of_set,
    zero,
)


@functools.lru_cache(maxsize=None)
def _ring(n):
    return GR4(GF2n(n))


def _signed_vec(ring, seed, bound):
    rng = np.random.default_rng(seed)
    return GroupVec(ring, rng.integers(-bound, bound + 1, ring.size))


def _random_vec(ring, rng, bound=3):
    counts = np.array(
        [rng.randrange(bound + 1) for _ in range(ring.size)], dtype=np.int64
    )
    return GroupVec(ring, counts)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transform_matches_direct_character_sums(n):
    ring = GR4(GF2n(n))
    rng = random.Random(n)
    A = _random_vec(ring, rng)
    sp = A.char_transform()
    for a_idx in range(ring.size):
        a = ring.pair(a_idx)
        direct = GaussInt()
        for x_idx in A.support():
            x = ring.pair(int(x_idx))
            direct = direct + character(ring, a, x) * int(A.counts[x_idx])
        assert sp.value(a_idx) == direct


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fast_convolution_matches_naive(n):
    ring = GR4(GF2n(n))
    rng = random.Random(10 + n)
    for _ in range(5):
        A = _random_vec(ring, rng)
        B = _random_vec(ring, rng)
        assert convolve(A, B) == convolve_naive(A, B)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_square_of_set_matches_naive_convolution(n):
    ring = _ring(n)
    rng = random.Random(20 + n)
    e = min(3, ring.field.order - 1)
    sets = [
        build_df(ring, SparsePoly.parse(ring.field, lit))
        for lit in ("0:0", f"{e}:1", f"0:1,{e}:1")
    ]
    sets += [
        GroupVec(ring, [rng.randrange(2) for _ in range(ring.size)]) for _ in range(3)
    ]
    sets += [zero(ring), full_group(ring)]
    for A in sets:
        assert square_of_set(A) == convolve_naive(A, A)


@pytest.mark.parametrize("n", range(1, 9))
def test_square_of_set_matches_the_inverse_of_the_squared_spectrum(n):
    ring = _ring(n)
    fld = ring.field
    polys = [SparsePoly.zero(fld), SparsePoly.monomial(fld, 1, min(3, fld.order - 1))]
    polys.append(SparsePoly.make(fld, [(1 << (n // 2), fld.order - 1), (0, 1)]))
    if n % 3 == 0:
        m = n // 3  # variant 2 is pseudo-planar for m = 1 mod 3, variant 3 for m = 2
        polys.append(construct_shifted_binomial(fld, m, 2 if m % 3 == 1 else 3))
    for f in polys:
        D = build_df(ring, f)
        X = D.char_transform()
        assert square_of_set(D) == inverse_transform(pointwise_mul(X, X))


def test_inverse_transform_roundtrip():
    ring = GR4(GF2n(4))
    rng = random.Random(2)
    A = _random_vec(ring, rng)
    assert inverse_transform(A.char_transform()) == A


def test_convolution_algebra_identities():
    ring = GR4(GF2n(3))
    rng = random.Random(9)
    A, B = _random_vec(ring, rng), _random_vec(ring, rng)
    delta0 = delta(ring, ring.zero)
    # identity element
    assert convolve(A, delta0) == A
    # commutativity (the group is abelian)
    assert convolve(A, B) == convolve(B, A)
    # total multiplicativity
    assert convolve(A, B).total() == A.total() * B.total()
    # full group absorbs: G * A = |A| G
    G = full_group(ring)
    assert convolve(G, A) == scale(G, A.total())


def test_involution_is_anti_automorphism():
    ring = GR4(GF2n(3))
    rng = random.Random(4)
    A, B = _random_vec(ring, rng), _random_vec(ring, rng)
    assert involute(involute(A)) == A
    assert involute(convolve(A, B)) == convolve(involute(A), involute(B))


def test_vectors_of_two_rings_do_not_mix():
    ring = GR4(GF2n(2))
    A = indicator(ring, [0, 3, 7])
    other = GR4(GF2n(3))
    with pytest.raises(ValueError):
        add(A, zero(other))


def test_inverse_transform_rejects_non_integer():
    ring = GR4(GF2n(2))
    sp = delta(ring, ring.zero).char_transform()
    bad = pointwise_mul(sp, sp)  # still fine
    bad.re[0] += 1  # no longer a transform of an integer vector
    with pytest.raises(ValueError):
        inverse_transform(bad)


def test_build_df_shape():
    ring = GR4(GF2n(4))
    f = SparsePoly.monomial(ring.field, 1, 5)
    D = build_df(ring, f)
    assert D.total() == 16
    assert np.all((D.counts == 0) | (D.counts == 1))
    # exactly one element of D in each coset of the 2-torsion
    a_parts = {int(idx) >> ring.n for idx in D.support()}
    assert len(a_parts) == 16


def _scalar_df(ring, f):
    field = ring.field
    want = np.zeros(ring.size, dtype=np.int64)
    for x in range(field.order):
        want[ring.idx((x, field.sqrt(f.eval(x))))] = 1
    return want


@pytest.mark.parametrize(
    "n, literal, pp",
    [
        (1, "0:0", True), (1, "1:1", True), (2, "0:0", True), (2, "3:1", False),
        (3, "3:1,6:1", True), (3, "3:1", False), (4, "5:1", True),
        (4, "3:1", False), (5, "2:1", True), (5, "7:1", False),
        (6, "0:0", True), (6, "5:1,20:1", False),
    ],
)
def test_build_df_matches_scalar_loop(n, literal, pp):
    ring = _ring(n)
    field = ring.field
    f = SparsePoly.parse(field, literal)
    assert is_pseudoplanar(f) == pp
    assert np.array_equal(build_df(ring, f).counts, _scalar_df(ring, f))


@pytest.mark.parametrize(
    "n, literal, good",
    [
        (4, "5:1", True),
        (3, "3:1,6:1", True),
        (5, "0:0", True),
        (6, "5:1,20:1", False),
        (4, "3:1", False),
    ],
)
def test_verify_rds(n, literal, good):
    ring = GR4(GF2n(n))
    f = SparsePoly.parse(ring.field, literal)
    D = build_df(ring, f)
    ok, violations = verify_rds(D)
    assert ok == good
    if good:
        assert violations == []
        assert convolve(D, involute(D)) == rds_expected(ring)
    else:
        assert 0 < len(violations) <= 10
        idx, got, want = violations[0]
        conv = convolve(D, involute(D))
        assert int(conv.counts[idx]) == got
        assert int(rds_expected(ring).counts[idx]) == want


def test_a_groupvec_does_not_follow_writes_to_the_array_it_came_from():
    ring = _ring(3)
    arr = np.zeros(ring.size + 2, dtype=np.int64)
    arr[[1, 5, 9]] = [1, 2, -3]
    G = GroupVec(ring, arr[:-2])
    X = _spectrum(G)
    counts, re, im = G.counts.copy(), X.re.copy(), X.im.copy()
    arr[3] = 7
    arr[5] = 0
    assert np.array_equal(G.counts, counts)
    assert _spectrum(G) is X
    assert np.array_equal(X.re, re) and np.array_equal(X.im, im)
    assert X == G.char_transform()


def _spectrum_cases(n):
    """D_f for pseudo-planar and other f, some with f(0) != 0, and random
    0/1 and signed vectors."""
    ring = _ring(n)
    field = ring.field
    rng = random.Random(n)
    polys = [SparsePoly.zero(field), SparsePoly.parse(field, "0:1")]
    polys += [
        SparsePoly.make(
            field,
            [(rng.randrange(field.order), rng.randrange(1, field.order))
             for _ in range(3)],
        )
        for _ in range(2)
    ]
    if n >= 2:
        polys += [SparsePoly.parse(field, "3:1"), SparsePoly.parse(field, "0:1,3:1")]
    if n % 3 == 0:
        m = n // 3
        polys.append(construct_shifted_binomial(field, m, 3 if m % 3 == 2 else 2))
    vecs = [build_df(ring, f) for f in polys]
    nrng = np.random.default_rng(n)
    vecs.append(GroupVec(ring, nrng.integers(0, 2, ring.size)))
    vecs.append(GroupVec(ring, nrng.integers(-5, 6, ring.size)))
    return polys, vecs


@pytest.mark.parametrize("n", range(1, 9))
def test_stored_spectrum_is_the_fresh_transform_and_read_only(n):
    polys, vecs = _spectrum_cases(n)
    if n >= 2:
        assert not all(is_pseudoplanar(f) for f in polys)
    assert any(f.eval(0) for f in polys)
    for D in vecs:
        X = _spectrum(D)
        fresh = D.char_transform()
        assert X == fresh
        assert _spectrum(D) is X
        assert not X.re.flags.writeable and not X.im.flags.writeable
        with pytest.raises(ValueError):
            X.re[0] = 0
        # char_transform stays uncached and writable
        assert fresh is not X and fresh.re.flags.writeable


def test_build_df_returns_the_same_d_for_an_equal_ring_and_f():
    f = SparsePoly.parse(GF2n(4), "5:1")
    D = build_df(GR4(GF2n(4)), f)
    assert build_df(GR4(GF2n(4)), SparsePoly.parse(GF2n(4), "5:1")) is D
    X = _spectrum(D)
    assert _spectrum(build_df(GR4(GF2n(4)), f)) is X


def test_build_df_rebuilds_for_another_f_or_modulus():
    ring_b, ring_d = GR4(GF2n(3, 0xB)), GR4(GF2n(3, 0xD))
    f = SparsePoly.parse(ring_b.field, "3:1,6:1")
    g = SparsePoly.parse(ring_b.field, "3:1")
    f_d = SparsePoly.parse(ring_d.field, "3:1,6:1")
    D = build_df(ring_b, f)
    E = build_df(ring_b, g)
    F = build_df(ring_d, f_d)
    assert E is not D and F is not D
    assert F.ring == ring_d != ring_b
    for vec, ring, poly in ((D, ring_b, f), (E, ring_b, g), (F, ring_d, f_d)):
        assert np.array_equal(vec.counts, _scalar_df(ring, poly))
    assert not np.array_equal(D.counts, F.counts)


def test_build_df_field_mismatch_raises_every_time_and_is_not_cached():
    ring_b, ring_d = GR4(GF2n(3, 0xB)), GR4(GF2n(3, 0xD))
    f = SparsePoly.parse(ring_b.field, "3:1,6:1")
    D = build_df(ring_b, f)
    for _ in range(2):
        with pytest.raises(ValueError, match="polynomial field does not match"):
            build_df(ring_d, f)
    assert build_df(ring_b, f) is D


def test_rds_expected_structure():
    ring = GR4(GF2n(3))
    E = rds_expected(ring)
    # 2^n at 0, 1 off the 2-torsion, 0 on the rest of the 2-torsion
    assert int(E.counts[0]) == 8
    tt = np.arange(ring.size) < 1 << ring.n  # Z, the index prefix
    assert np.all(E.counts[tt & (np.arange(ring.size) != 0)] == 0)
    assert np.all(E.counts[~tt] == 1)


@given(st.integers(5, 7), st.integers(0, 2**32 - 1), st.integers(1, 9))
@settings(max_examples=15, deadline=None)
def test_inverse_transform_inverts_char_transform(n, seed, bound):
    A = _signed_vec(_ring(n), seed, bound)
    assert inverse_transform(A.char_transform()) == A


@given(st.integers(5, 7), st.integers(0, 2**32 - 1), st.integers(1, 9))
@settings(max_examples=15, deadline=None)
def test_pointwise_product_of_transforms_is_convolution(n, seed, bound):
    ring = _ring(n)
    A = _signed_vec(ring, seed, bound)
    B = _signed_vec(ring, seed + 1, bound)
    spectrum = pointwise_mul(A.char_transform(), B.char_transform())
    assert inverse_transform(spectrum) == convolve(A, B)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_two_torsion_spectrum(n):
    # chi_a(Z) = 2^n when a is in Z = 2R and 0 otherwise; Z is the index
    # prefix [0, 2^n), for elements and character labels alike
    ring = _ring(n)
    in_z = np.arange(ring.size) < 1 << n
    sp = indicator(ring, np.flatnonzero(in_z)).char_transform()
    want = SpectrumVec(ring, (1 << n) * in_z, np.zeros(ring.size, dtype=np.int64))
    assert sp == want


@pytest.mark.parametrize(
    "n, literal",
    [
        (2, "0:0"), (2, "3:1"), (3, "3:1,6:1"), (3, "3:1"), (4, "5:1"),
        (4, "3:1"), (4, "0:1"), (5, "2:1"), (5, "7:1"), (6, "0:0"),
        (6, "5:1,20:1"),
    ],
)
def test_spectral_verify_rds_matches_convolution(n, literal):
    ring = _ring(n)
    D = build_df(ring, SparsePoly.parse(ring.field, literal))
    diff = convolve(D, involute(D)).counts
    want = rds_expected(ring).counts
    bad = np.flatnonzero(diff != want)
    expected = (
        len(bad) == 0,
        [(int(g), int(diff[g]), int(want[g])) for g in bad[:10]],
    )
    assert verify_rds(D) == expected


def _non_pp_polys(ring):
    """f that are not pseudo-planar, with f(0) = 0 and f(0) != 0, where the
    field has them (every f on F_2 is pseudo-planar)."""
    field = ring.field
    rng = random.Random(ring.n)
    polys = [
        SparsePoly.make(field, terms)
        for e in (3, 7) if e < field.order
        for terms in ([(e, 1)], [(0, 1), (e, 1)])
    ]
    polys += [
        SparsePoly.make(
            field,
            [(rng.randrange(field.order), rng.randrange(1, field.order))
             for _ in range(3)],
        )
        for _ in range(2)
    ]
    return [f for f in polys if not is_pseudoplanar(f)]


def _signed_weighted_vecs(ring):
    """Signed multisets with weights other than 1: three of at most
    2^(n+1) points, whose pair differences verify_rds counts, and two dense
    ones, which it reads off one transform."""
    rng = np.random.default_rng(100 + ring.n)
    t = 1 << ring.n
    out = []
    for k in (t - 1, t, 2 * t):
        counts = np.zeros(ring.size, dtype=np.int64)
        counts[rng.choice(ring.size, min(k, ring.size), replace=False)] = (
            rng.choice([-3, -2, -1, 1, 2, 3], min(k, ring.size))
        )
        out.append(GroupVec(ring, counts))
    out += [_signed_vec(ring, 7 * ring.n + s, 4) for s in range(2)]
    return out


@pytest.mark.parametrize("n", range(1, 11))
def test_verify_rds_names_the_violations_of_the_inverse_oracle(n):
    # the counted pair differences give the triples that the inverse of
    # |chi(D)|^2 gives, in the same order and number
    ring = _ring(n)
    polys = _non_pp_polys(ring)
    if n >= 2:
        assert any(f.eval(0) for f in polys) and any(not f.eval(0) for f in polys)
    vecs = [build_df(ring, f) for f in polys]
    if n <= 6:
        vecs += _signed_weighted_vecs(ring)
    for D in vecs:
        with mock.patch.object(
            groupring, "_pair_counts", wraps=groupring._pair_counts
        ) as counter:
            ok, violations = _rds_check(D)
        assert counter.call_count == (len(D.support()) <= 2 << n)
        want = rds_violations_by_inverse(D)
        assert not ok and violations == want
        assert verify_rds(D) == (False, want)
        assert len(want) == 10 or (n <= 2 and 0 < len(want) < 10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("block", [1, 7, 64])
def test_small_blocks_give_the_same_violations(monkeypatch, n, block):
    # blocks of one row, and violation slices that end inside a run of them
    ring = _ring(n)
    vecs = [build_df(ring, f) for f in _non_pp_polys(ring)] + _signed_weighted_vecs(ring)
    want = [rds_violations_by_inverse(D) for D in vecs]
    monkeypatch.setattr(groupring, "_BLOCK", block)
    assert [_rds_check(D)[1] for D in vecs] == want


@pytest.mark.parametrize("n", range(1, 8))
def test_pair_counts_are_the_square_and_the_difference_multiset(monkeypatch, n):
    ring = _ring(n)
    field = ring.field
    e = min(3, field.order - 1)
    sets = [build_df(ring, SparsePoly.parse(field, lit)) for lit in ("0:0", "0:1", f"{e}:1")]
    vecs = sets + _signed_weighted_vecs(ring)[:3]
    for block in (groupring._BLOCK, 1 << n, 3 << n):
        monkeypatch.setattr(groupring, "_BLOCK", block)
        for D in sets:
            assert np.array_equal(_pair_counts(D, negate=False), square_of_set(D).counts)
        for D in vecs:
            diff = _pair_counts(D, negate=True)
            assert np.array_equal(diff, convolve(D, involute(D)).counts)


def test_the_rds_failure_path_at_n10_holds_one_count_vector():
    # an int64 count per element, and blocks of _BLOCK entries
    ring = _ring(10)
    D = build_df(ring, SparsePoly.parse(ring.field, "7:1"))
    _spectrum(D)  # chi(D) is made and kept before tracing
    D.support()
    tracemalloc.start()
    try:
        ok, violations = _rds_check(D)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not ok and len(violations) == 10
    assert peak <= 12 * ring.size


# l1 norms at the dtype thresholds of the transform, and the dtype each takes
L1_DTYPES = [
    (2**15 - 1, np.int16),
    (2**15, np.int32),
    (2**31 - 1, np.int32),
    (2**31, np.int64),
    (2**40 + 3, np.int64),
]


def _split_l1(rng, l1, parts):
    """parts signed integers whose absolute values sum to l1."""
    cuts = sorted(rng.sample(range(1, l1), parts - 1)) if parts > 1 else []
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [l1])]
    return [rng.choice((1, -1)) * v for v in sizes]


def _sparse(ring, rng, entries):
    """A 4^n int64 vector with the given entries at distinct random indices."""
    out = np.zeros(ring.size, dtype=np.int64)
    out[rng.sample(range(ring.size), len(entries))] = entries
    return out


def _naive_sum(ring, re, im, sign):
    """sum_x (re + i im)_x i^(sign Tr(a x)) for every a, by the naive
    characters of the oracle."""
    out_re = np.zeros(ring.size, dtype=np.int64)
    out_im = np.zeros(ring.size, dtype=np.int64)
    for x in np.flatnonzero((re != 0) | (im != 0)):
        v = GaussInt(int(re[x]), int(im[x]))
        xp = ring.pair(int(x))
        for a in range(ring.size):
            chi = character(ring, ring.pair(a), xp)
            w = v * (chi if sign > 0 else chi.conj())
            out_re[a] += w.re
            out_im[a] += w.im
    return out_re, out_im


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize(
    "l1, dtype", L1_DTYPES, ids=[f"l1={v}" for v, _ in L1_DTYPES]
)
@given(seed=st.integers(0, 2**32 - 1), parts=st.integers(1, 6))
@settings(max_examples=3, deadline=None)
def test_transforms_at_dtype_thresholds_match_naive_character_sums(
    n, l1, dtype, seed, parts
):
    ring = _ring(n)
    rng = random.Random(seed)
    parts = min(parts, ring.size)
    # forward: an integer multiset with l1 norm exactly l1
    counts = _sparse(ring, rng, _split_l1(rng, l1, parts))
    zeros = np.zeros_like(counts)
    assert _work_dtype(counts) == dtype
    A = GroupVec(ring, counts)
    sp = A.char_transform()
    assert sp.re.dtype == sp.im.dtype == dtype
    want = _naive_sum(ring, counts, zeros, +1)
    assert np.array_equal(sp.re, want[0]) and np.array_equal(sp.im, want[1])
    assert inverse_transform(sp) == A
    # inverse: a Gaussian spectrum with l1 norm exactly l1, over re and im
    values = _split_l1(rng, l1, 2 * parts)
    re = _sparse(ring, rng, values[:parts])
    im = np.zeros_like(re)
    im[np.flatnonzero(re)] = values[parts:]
    assert _work_dtype(np.concatenate([re, im])) == dtype
    calls = []

    def recorded(*args, **kwargs):
        calls.append(_transform(*args, **kwargs))
        return calls[-1]

    want = _naive_sum(ring, re, im, -1)
    # the oracle's inverse divides by 4^n, or names the first element it
    # cannot
    bad = np.flatnonzero((want[1] != 0) | (want[0] % ring.size != 0))
    with mock.patch.object(groupring, "_transform", recorded):
        if len(bad):
            with pytest.raises(ValueError, match=f"element idx {bad[0]}\\)"):
                inverse_transform(SpectrumVec(ring, re, im))
        else:
            want_counts = want[0] // ring.size
            got = inverse_transform(SpectrumVec(ring, re, im))
            assert got.counts.tolist() == want_counts.tolist()
    # its two forward transforms, of re and of im, ran in their work dtypes,
    # and conj(chi(re) - i chi(im)) is the sum
    (p, q), (r, s) = calls
    assert p.dtype == q.dtype == _work_dtype(re)
    assert r.dtype == s.dtype == _work_dtype(im)
    assert np.array_equal(p.astype(np.int64) + s, want[0])
    assert np.array_equal(r.astype(np.int64) - q, want[1])


@pytest.mark.parametrize("n", range(1, 11))
def test_char_transform_returns_the_work_dtype_and_the_character_sums(n):
    ring = _ring(n)
    field = ring.field
    rng = random.Random(n)
    f = SparsePoly.make(
        field,
        [(rng.randrange(field.order), rng.randrange(1, field.order))
         for _ in range(2)],
    )
    cases = [(build_df(ring, f), np.int16)]
    for l1, dtype in L1_DTYPES:
        counts = _sparse(ring, rng, _split_l1(rng, l1, min(4, ring.size)))
        cases.append((GroupVec(ring, counts), dtype))
    labels = range(ring.size) if n <= 3 else rng.sample(range(ring.size), 24)
    for A, dtype in cases:
        sp = A.char_transform()
        assert sp.re.dtype == sp.im.dtype == dtype == _work_dtype(A.counts)
        for a in labels:
            want = GaussInt()
            for x in A.support():
                chi = character(ring, ring.pair(a), ring.pair(int(x)))
                want = want + chi * int(A.counts[x])
            assert sp.value(a) == want


@pytest.mark.parametrize("n", [2, 3])
def test_pointwise_mul_of_int16_spectra_widens_before_it_multiplies(n):
    ring = _ring(n)
    rng = random.Random(n)
    A, B = (
        GroupVec(ring, _sparse(ring, rng, [abs(v) for v in _split_l1(rng, l1, 3)]))
        for l1 in (2**15 - 1, 2**15 - 1)
    )
    X, Y = A.char_transform(), B.char_transform()
    assert X.re.dtype == Y.re.dtype == np.int16
    xr, xi, yr, yi = (v.astype(np.int64) for v in (X.re, X.im, Y.re, Y.im))
    got = pointwise_mul(X, Y)
    assert np.array_equal(got.re, xr * yr - xi * yi)
    assert np.array_equal(got.im, xr * yi + xi * yr)
    # in int16 the product wraps: chi_0(A) chi_0(B) = (2^15 - 1)^2
    assert int((X.re * Y.re)[0]) != int(xr[0] * yr[0])
    assert inverse_transform(got) == convolve_naive(A, B)


@pytest.mark.parametrize("n", range(1, 11))
def test_rds_check_of_an_int16_x_equals_that_of_its_int64_copy(n):
    ring = _ring(n)
    # _rds_norms_hold compares slices: Z is the labels below 2^n
    assert ring.pair((1 << n) - 1)[0] == 0 and ring.pair(1 << n)[0] == 1
    polys, vecs = _spectrum_cases(n)
    verdicts = []
    for i, D in enumerate(vecs):
        X = D.char_transform()
        if i < len(polys):  # D_f, a set of l1 norm 2^n
            assert X.re.dtype == np.int16
        X64 = SpectrumVec(ring, X.re.astype(np.int64), X.im.astype(np.int64))
        got = _rds_norms_hold(X)
        assert got == _rds_norms_hold(X64) == _rds_check(D)[0]
        verdicts.append(got)
    assert True in verdicts
    if n >= 2:
        assert False in verdicts[: len(polys)]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rds_check_refuses_one_wrong_norm_at_each_end_of_z_and_its_complement(n):
    ring = _ring(n)
    X = build_df(ring, SparsePoly.zero(ring.field)).char_transform()
    assert _rds_norms_hold(X)
    t = 1 << n
    for a in (0, 1, t - 1, t, ring.size - 1):
        re = X.re.copy()
        re[a] += 1 if a else -1
        assert not _rds_norms_hold(SpectrumVec(ring, re, X.im)), a


def test_spectrum_equality_and_hash_do_not_depend_on_the_dtype():
    ring = _ring(3)
    X = build_df(ring, SparsePoly.parse(ring.field, "3:1,6:1")).char_transform()
    assert X.re.dtype == np.int16
    for dtype in (np.int8, np.int32, np.int64):
        Y = SpectrumVec(ring, X.re.astype(dtype), X.im.astype(dtype))
        assert Y.re.dtype == Y.im.dtype == dtype
        assert Y == X and X == Y and hash(Y) == hash(X)
    # values that wrap to X in int16 are still different
    Z = SpectrumVec(ring, X.re.astype(np.int64) + (1 << 16), X.im)
    assert Z != X and X != Z
    # dtypes that are not signed integers become int64
    W = SpectrumVec(ring, np.arange(ring.size) < 8, np.zeros(ring.size, dtype=np.uint8))
    assert W.re.dtype == W.im.dtype == np.int64


@pytest.mark.parametrize("n", range(1, 9))
def test_stored_support_is_the_nonzero_indices_and_read_only(n):
    _, vecs = _spectrum_cases(n)
    for D in vecs + [zero(_ring(n))]:
        sup = D.support()
        assert D.support() is sup
        assert np.array_equal(sup, np.flatnonzero(D.counts))
        with pytest.raises(ValueError):
            sup[...] = 0


# -- chi of a transversal of Z, from its 2^n points ---------------------------


def _transversals(n):
    """Sorted supports of transversals {x + 2 r(x)} of Z: every one at
    n <= 2; else random ones, and translates of D_f for f(0) = 0 and
    f(0) != 0."""
    ring = _ring(n)
    field = ring.field
    m, x = 1 << n, np.arange(1 << n)
    if n <= 2:
        for r in itertools.product(range(m), repeat=m):
            yield (x << n) | np.array(r)
        return
    rng = np.random.default_rng(n)
    for _ in range(2):
        yield (x << n) | rng.integers(0, m, m)
    for literal in ("0:0", "0:1", "3:1", "0:1,3:1"):
        sup = build_df(ring, SparsePoly.parse(field, literal)).support()
        yield sup
        for g in rng.integers(0, ring.size, 2):
            g = ring.pair(int(g))
            moved = [ring.idx(ring.add(ring.pair(int(i)), g)) for i in sup]
            yield np.sort(np.array(moved))


def _naive_transform(ring, at, weights):
    out = [GaussInt()] * ring.size
    for a_idx in range(ring.size):
        a = ring.pair(a_idx)
        for i, w in zip(at, weights):
            out[a_idx] = out[a_idx] + character(ring, a, ring.pair(int(i))) * int(w)
    return (
        np.array([v.re for v in out], dtype=np.int64),
        np.array([v.im for v in out], dtype=np.int64),
    )


@pytest.mark.parametrize("n", range(1, 11))
def test_the_transversal_path_equals_the_scatter_path_and_the_naive_sums(n):
    ring = _ring(n)
    ones = np.ones(1 << n, dtype=np.int64)
    with mock.patch.object(
        groupring, "_transversal_phase", wraps=groupring._transversal_phase
    ) as closed_form:
        for at in _transversals(n):
            assert np.array_equal(at >> n, np.arange(1 << n))
            fast = _transform(ring, ones, at)
            assert closed_form.call_count == 1
            # the same set, its points in another order: the scatter path
            slow = _transform(ring, ones[::-1], at[::-1])
            assert closed_form.call_count == 1
            closed_form.reset_mock()
            for got, want in zip(fast, slow):
                assert got.dtype == want.dtype == np.int16
                assert np.array_equal(got, want)
            if n <= 3 and (n <= 1 or at[1] % 3 == 0):  # a sample at n = 2
                naive = _naive_transform(ring, at, ones)
                assert all(np.array_equal(g, w) for g, w in zip(fast, naive))


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_other_multisets_keep_the_scatter_path(n):
    ring = _ring(n)
    m = 1 << n
    D = build_df(ring, SparsePoly.parse(ring.field, "0:1,3:1" if n > 1 else "0:1,1:1"))
    sup = np.array(D.support())
    two_in_a_coset = sup.copy()
    two_in_a_coset[-1] = sup[0] ^ 1  # beside the point of coset 0
    flip = np.where(np.arange(m) == m // 2, -1, 1)
    cases = [
        (np.sort(two_in_a_coset), np.ones(m, dtype=np.int64)),
        (sup, flip),  # a +-1 multiset
        (sup, -np.ones(m, dtype=np.int64)),
        (sup[:-1], np.ones(m - 1, dtype=np.int64)),  # a coset left out
    ]
    got = []
    for at, weights in cases:
        with mock.patch.object(
            groupring, "_transversal_phase", wraps=groupring._transversal_phase
        ) as closed_form:
            got.append(_transform(ring, weights, at))
            assert closed_form.call_count == 0
        if n <= 3:
            naive = _naive_transform(ring, at, weights)
            assert all(np.array_equal(g, w) for g, w in zip(got[-1], naive))
    # the +-1 multiset is D less twice the negated point
    X = D.char_transform()
    point = delta(ring, ring.pair(int(sup[m // 2]))).char_transform()
    assert np.array_equal(got[1][0], X.re - 2 * point.re)
    assert np.array_equal(got[1][1], X.im - 2 * point.im)
    assert np.array_equal(got[2][0], -X.re) and np.array_equal(got[2][1], -X.im)


@pytest.mark.parametrize("n", range(1, 9))
def test_the_phase_tables_are_symmetric(n):
    # i^Tr T(cx) is symmetric in c and x, which the transversal path uses
    _, cos, sin = _tables(_ring(n))
    assert np.array_equal(cos, cos.T) and np.array_equal(sin, sin.T)


@pytest.mark.parametrize("n", range(1, 9))
def test_build_df_keeps_its_points_and_builds_the_dense_vector_on_demand(n):
    ring = _ring(n)
    field = ring.field
    rng = random.Random(n)
    polys = [SparsePoly.zero(field), SparsePoly.parse(field, "0:1")]
    polys += [
        SparsePoly.make(
            field,
            [(rng.randrange(field.order), rng.randrange(1, field.order))
             for _ in range(3)],
        )
        for _ in range(3)
    ]
    for f in polys:
        build_df.cache_clear()
        D = build_df(ring, f)
        assert D._counts is None
        sup = D.support()
        assert np.array_equal(sup >> n, np.arange(1 << n))
        with pytest.raises(ValueError):
            sup[...] = 0
        want = _scalar_df(ring, f)
        assert [D.multiplicity(g) for g in range(ring.size)] == want.tolist()
        assert D.total() == 1 << n and repr(D) == repr(GroupVec(ring, want))
        assert D._counts is None
        counts = D.counts
        assert counts.dtype == np.int64 and np.array_equal(counts, want)
        assert D.counts is counts and D.support() is sup
        with pytest.raises(ValueError):
            counts[0] = 1
        dense = GroupVec(ring, want)
        assert D == dense and hash(D) == hash(dense)
        assert [dense.multiplicity(g) for g in range(ring.size)] == want.tolist()


@pytest.mark.parametrize("n, literal", [(3, "3:1,6:1"), (4, "5:1"), (6, "0:0"), (7, "2:1")])
def test_a_scheme_op_never_builds_the_dense_d_f(n, literal):
    ring = _ring(n)
    f = SparsePoly.parse(ring.field, literal)
    build_df.cache_clear()
    D = build_df(ring, f)
    assert verify_rds(D)[0]
    report = scheme.build_report(D)
    report.to_json()
    scheme.fourier_spectrum(ring, f)
    assert report.matches_closed_forms()
    assert build_df(ring, f) is D and D._counts is None


@pytest.mark.parametrize("n", [8, 9])
def test_rds_check_refuses_a_wrong_norm_at_the_edges_of_its_blocks(n):
    ring = _ring(n)
    X = build_df(ring, SparsePoly.zero(ring.field)).char_transform()
    assert ring.size > _BLOCK and _rds_norms_hold(X)
    t = 1 << n
    for a in (0, 1, t - 1, t, _BLOCK - 1, _BLOCK, ring.size - _BLOCK, ring.size - 1):
        im = X.im.copy()
        im[a] += 1
        assert not _rds_norms_hold(SpectrumVec(ring, X.re, im)), a

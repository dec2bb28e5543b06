"""Group-ring vectors over GR(4,n): exact transform, convolution, RDS."""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudoplanar.exact import GaussInt
from pseudoplanar.field import GF2n
from pseudoplanar.functions import SparsePoly, is_pseudoplanar
from pseudoplanar.galois_ring import GR4
from pseudoplanar.groupring import (
    GroupVec,
    SpectrumVec,
    build_df,
    rds_expected,
    verify_rds,
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
            direct = direct + ring.character(a, x) * int(A.counts[x_idx])
        assert sp.value(a_idx) == direct


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fast_convolution_matches_naive(n):
    ring = GR4(GF2n(n))
    rng = random.Random(10 + n)
    for _ in range(5):
        A = _random_vec(ring, rng)
        B = _random_vec(ring, rng)
        assert A.convolve(B) == A.convolve_naive(B)


def test_inverse_transform_roundtrip():
    ring = GR4(GF2n(4))
    rng = random.Random(2)
    A = _random_vec(ring, rng)
    assert A.char_transform().inverse_transform() == A


def test_convolution_algebra_identities():
    ring = GR4(GF2n(3))
    rng = random.Random(9)
    A, B = _random_vec(ring, rng), _random_vec(ring, rng)
    delta0 = GroupVec.delta(ring, ring.zero)
    # identity element
    assert A.convolve(delta0) == A
    # commutativity (the group is abelian)
    assert A.convolve(B) == B.convolve(A)
    # total multiplicativity
    assert A.convolve(B).total() == A.total() * B.total()
    # full group absorbs: G * A = |A| G
    G = GroupVec.full_group(ring)
    assert G.convolve(A) == G.scale(A.total())


def test_involution_is_anti_automorphism():
    ring = GR4(GF2n(3))
    rng = random.Random(4)
    A, B = _random_vec(ring, rng), _random_vec(ring, rng)
    assert A.involute().involute() == A
    assert A.convolve(B).involute() == A.involute().convolve(B.involute())


def test_sparse_roundtrip_and_context_guard():
    ring = GR4(GF2n(2))
    A = GroupVec.indicator(ring, [0, 3, 7])
    assert GroupVec.from_sparse(ring, A.to_sparse()) == A
    other = GR4(GF2n(3))
    with pytest.raises(ValueError):
        A + GroupVec.zero(other)


def test_inverse_transform_rejects_non_integer():
    ring = GR4(GF2n(2))
    sp = GroupVec.delta(ring, ring.zero).char_transform()
    bad = sp.pointwise_mul(sp)  # still fine
    bad.re[0] += 1  # no longer a transform of an integer vector
    with pytest.raises(ValueError):
        bad.inverse_transform()


def test_build_df_shape():
    ring = GR4(GF2n(4))
    f = SparsePoly.monomial(ring.field, 1, 5)
    D = build_df(ring, f)
    assert D.total() == 16
    assert np.all((D.counts == 0) | (D.counts == 1))
    # exactly one element of D in each coset of the 2-torsion
    a_parts = {int(idx) >> ring.n for idx in D.support()}
    assert len(a_parts) == 16


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
    want = np.zeros(ring.size, dtype=np.int64)
    for x in range(field.order):
        want[ring.idx((x, field.sqrt(f.eval(x))))] = 1
    assert np.array_equal(build_df(ring, f).counts, want)


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
        assert D.convolve(D.involute()) == rds_expected(ring)
    else:
        assert 0 < len(violations) <= 10
        idx, got, want = violations[0]
        conv = D.convolve(D.involute())
        assert int(conv.counts[idx]) == got
        assert int(rds_expected(ring).counts[idx]) == want


def test_rds_expected_structure():
    ring = GR4(GF2n(3))
    E = rds_expected(ring)
    # 2^n at 0, 1 off the 2-torsion, 0 on the rest of the 2-torsion
    assert int(E.counts[0]) == 8
    tt = GroupVec.two_torsion(ring).counts.astype(bool)
    assert np.all(E.counts[tt & (np.arange(ring.size) != 0)] == 0)
    assert np.all(E.counts[~tt] == 1)


@given(st.integers(5, 7), st.integers(0, 2**32 - 1), st.integers(1, 9))
@settings(max_examples=15, deadline=None)
def test_inverse_transform_inverts_char_transform(n, seed, bound):
    A = _signed_vec(_ring(n), seed, bound)
    assert A.char_transform().inverse_transform() == A


@given(st.integers(5, 7), st.integers(0, 2**32 - 1), st.integers(1, 9))
@settings(max_examples=15, deadline=None)
def test_pointwise_product_of_transforms_is_convolution(n, seed, bound):
    ring = _ring(n)
    A = _signed_vec(ring, seed, bound)
    B = _signed_vec(ring, seed + 1, bound)
    spectrum = A.char_transform().pointwise_mul(B.char_transform())
    assert spectrum.inverse_transform() == A.convolve(B)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_two_torsion_spectrum(n):
    # chi_a(Z) = 2^n when a is in Z = 2R and 0 otherwise
    ring = _ring(n)
    sp = GroupVec.two_torsion(ring).char_transform()
    want = SpectrumVec(
        ring, (1 << n) * ring.two_torsion_mask, np.zeros(ring.size, dtype=np.int64)
    )
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
    diff = D.convolve(D.involute()).counts
    want = rds_expected(ring).counts
    bad = np.flatnonzero(diff != want)
    expected = (
        len(bad) == 0,
        [(int(g), int(diff[g]), int(want[g])) for g in bad[:10]],
    )
    assert verify_rds(D) == expected

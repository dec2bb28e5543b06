"""Binary field arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudoplanar.field import (
    GF2n,
    default_modulus,
    reducible_factor_degree,
)


def test_default_moduli():
    assert default_modulus(3) == 0xB
    assert default_modulus(4) == 0x13
    assert default_modulus(6) == 0x43
    assert default_modulus(8) == 0x11B


def test_irreducibility_detection():
    assert reducible_factor_degree(0xB) is None
    # x^2 is reducible (factor x)
    assert reducible_factor_degree(0b100) == 1
    # (x+1)^2 = x^2 + 1
    assert reducible_factor_degree(0b101) == 1
    with pytest.raises(ValueError):
        GF2n(4, 0b10101)  # (x^2+x+1)^2


@pytest.mark.parametrize("n, modulus", [(3, -0xB), (1, -0x3), (3, 0), (3, 0x13)])
def test_modulus_must_be_a_positive_int(n, modulus):
    # a negative modulus has the bit length of a degree-n one, so the degree
    # check alone would let it reach the irreducibility sieve
    with pytest.raises(ValueError, match=f"positive int of degree {n}"):
        GF2n(n, modulus)


def test_spec_roundtrip():
    fld = GF2n.from_spec("6:43")
    assert fld.n == 6 and fld.modulus == 0x43
    assert fld.spec_string == "6:43"
    with pytest.raises(ValueError):
        GF2n.from_spec("6")
    with pytest.raises(ValueError):
        GF2n.from_spec("x:43")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_field_axioms_exhaustive_small(n):
    fld = GF2n(n)
    N = fld.order
    rng = np.random.default_rng(7)
    pairs = rng.integers(0, N, size=(200, 3))
    for a, b, c in pairs:
        a, b, c = int(a), int(b), int(c)
        assert fld.mul(a, b) == fld.mul(b, a)
        assert fld.mul(a, fld.mul(b, c)) == fld.mul(fld.mul(a, b), c)
        assert fld.mul(a, b ^ c) == fld.mul(a, b) ^ fld.mul(a, c)
        assert fld.mul(a, 1) == a
        if a:
            assert fld.mul(a, fld.inv(a)) == 1


def test_square_sqrt_frobenius():
    fld = GF2n(5)
    for a in range(fld.order):
        assert fld.sqrt(fld.square(a)) == a
        assert fld.square(fld.sqrt(a)) == a
        assert fld.square(a) == fld.mul(a, a)


def test_pow_negative_and_zero():
    fld = GF2n(4)
    assert fld.pow(0, 0) == 1
    assert fld.pow(0, 5) == 0
    a = 7
    assert fld.mul(fld.pow(a, -3), fld.pow(a, 3)) == 1
    with pytest.raises(ZeroDivisionError):
        fld.pow(0, -1)


def test_trace_balance():
    for n in (3, 4, 6):
        fld = GF2n(n)
        traces = [fld.trace(a) for a in range(fld.order)]
        assert sum(traces) == fld.order // 2
        assert fld.trace(0) == 0
        # trace is additive and Frobenius-invariant
        for a, b in [(3, 5), (1, 2)]:
            assert fld.trace(a ^ b) == fld.trace(a) ^ fld.trace(b)
            assert fld.trace(fld.square(a)) == fld.trace(a)


def test_generator_and_orders():
    for n in (1, 2, 3, 4, 6):
        fld = GF2n(n)
        g = fld.generator()
        assert fld.mult_order(g) == fld.order - 1
        seen = {1}
        x = g
        while x != 1:
            seen.add(x)
            x = fld.mul(x, g)
        assert len(seen) == fld.order - 1


def test_subfield_membership_and_trace():
    fld = GF2n(6)
    sub2 = [a for a in range(fld.order) if fld.in_subfield(a, 2)]
    sub3 = [a for a in range(fld.order) if fld.in_subfield(a, 3)]
    assert len(sub2) == 4 and len(sub3) == 8
    assert set(sub2) & set(sub3) == {0, 1}
    for a in sub3:
        assert fld.subfield_trace(a, 3) in (0, 1)


def test_cubic_tower_maps():
    fld = GF2n(6)
    m = 2
    sub = [a for a in range(fld.order) if fld.in_subfield(a, m)]
    for e in range(fld.order):
        tr = fld.rel_trace(e, m)
        nm = fld.rel_norm(e, m)
        assert tr in sub and nm in sub
    # norm is multiplicative
    assert fld.rel_norm(fld.mul(5, 9), m) == fld.mul(
        fld.rel_norm(5, m), fld.rel_norm(9, m)
    )


@given(st.integers(1, 10), st.data())
@settings(max_examples=60, deadline=None)
def test_vectorized_matches_scalar(n, data):
    fld = GF2n(n)
    N = fld.order
    a = data.draw(st.integers(0, N - 1))
    b = data.draw(st.integers(0, N - 1))
    k = data.draw(st.integers(0, 3 * N))
    xs = fld.elements()
    assert int(fld.mul_vec(a, xs)[b]) == fld.mul(a, b)
    assert int(fld.pow_vec(np.int64(a), k)) == fld.pow(a, k)


def test_capacity_guard():
    with pytest.raises(ValueError):
        GF2n(25)

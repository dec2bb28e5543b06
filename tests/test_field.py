"""Binary field arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudoplanar import field
from pseudoplanar.field import (
    MAX_DEGREE,
    GF2n,
    _poly_mulmod,
    default_modulus,
    reducible_factor_degree,
)

from oracles import field_trace, mult_order


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
        traces = [field_trace(fld, a) for a in range(fld.order)]
        assert sum(traces) == fld.order // 2
        assert field_trace(fld, 0) == 0
        # trace is additive and Frobenius-invariant
        for a, b in [(3, 5), (1, 2)]:
            assert field_trace(fld, a ^ b) == field_trace(fld, a) ^ field_trace(fld, b)
            assert field_trace(fld, fld.square(a)) == field_trace(fld, a)


def test_generator_and_orders():
    for n in (1, 2, 3, 4, 6):
        fld = GF2n(n)
        g = fld.generator()
        assert mult_order(fld, g) == fld.order - 1
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
    # every field has its tables, so the cap is where they stop
    assert MAX_DEGREE == 16
    for n in (0, 17, 24):
        with pytest.raises(ValueError, match=rf"must be in \[1, 16\], got {n}$"):
            GF2n(n)


def _pow_oracle(a: int, k: int, modulus: int) -> int:
    r = 1
    while k:
        if k & 1:
            r = _poly_mulmod(r, a, modulus)
        a = _poly_mulmod(a, a, modulus)
        k >>= 1
    return r


# every degree above the exhaustive tests, and two moduli whose x is not a
# generator (x has order 5 in 4:1f and 51 in 8:11b)
TABLE_FIELDS = [(n, None) for n in range(11, MAX_DEGREE + 1)] + [(4, 0x1F), (8, 0x11B)]


@pytest.mark.parametrize("n, modulus", TABLE_FIELDS)
def test_table_path_matches_polynomial_oracle(n, modulus):
    fld = GF2n(n, modulus)
    m, N = fld.modulus, fld.order
    rng = np.random.default_rng(n * 31 + m)
    a = rng.integers(0, N, size=300)
    b = rng.integers(0, N, size=300)
    a[:3] = b[-3:] = (0, 1, N - 1)
    want = [_poly_mulmod(int(x), int(y), m) for x, y in zip(a, b)]
    assert [fld.mul(int(x), int(y)) for x, y in zip(a, b)] == want
    assert fld.mul_vec(a, b).tolist() == want
    for x in a[a > 0].tolist():
        assert _poly_mulmod(x, fld.inv(x), m) == 1
    for x, k in zip(a.tolist(), rng.integers(-2 * N, 2 * N, size=300).tolist()):
        if x == 0:
            continue
        # a^k for k < 0 is (a^-1)^|k|
        base, e = (x, k) if k >= 0 else (fld.inv(x), -k)
        assert fld.pow(x, k) == _pow_oracle(base, e, m)


def _order_by_walk(g: int, modulus: int) -> int:
    t, v = 1, g
    while v != 1:
        v = _poly_mulmod(v, g, modulus)
        t += 1
    return t


@pytest.mark.parametrize(
    "n, modulus", [(n, None) for n in range(1, 9)] + [(4, 0x1F), (8, 0x11B)]
)
def test_generator_is_the_smallest_primitive_element(n, modulus):
    fld = GF2n(n, modulus)
    group = fld.order - 1
    orders = {g: _order_by_walk(g, fld.modulus) for g in range(1, fld.order)}
    brute = min(g for g, t in orders.items() if t == group)
    assert fld.generator() == brute
    assert mult_order(fld, brute) == group


def test_generator_search_walks_one_cycle(monkeypatch):
    # x has order 21845 modulo the default 0x1002b: the order test rejects
    # it, and only the cycle of the generator 3 is walked
    fld = GF2n(16)
    assert fld.modulus == 0x1002B and mult_order(fld, 2) == 21845
    calls = 0
    mulmod = field._poly_mulmod

    def counted(a, b, m):
        nonlocal calls
        calls += 1
        return mulmod(a, b, m)

    monkeypatch.setattr(field, "_poly_mulmod", counted)
    assert fld._generator_powers() == fld._exp
    assert fld.generator() == 3
    assert 65534 <= calls < 65534 + 1000


@given(
    st.integers(1, MAX_DEGREE),
    st.text(alphabet="0123456789abcdefgz", min_size=1, max_size=5).filter(
        lambda t: set(t) & set("gz")
    ),
)
@settings(max_examples=60, deadline=None)
def test_from_spec_refuses_bad_hex(n, poly):
    with pytest.raises(ValueError, match=r"bad field spec .*; expected 'n:POLYHEX'"):
        GF2n.from_spec(f"{n}:{poly}")


SPEC_ERRORS = (
    "expected 'n:POLYHEX'",
    "must be in [1, 16]",
    "is not a positive int of degree",
    "is reducible",
)


@given(st.text(alphabet="0123456789abcdefxz:-", max_size=7))
@settings(max_examples=150, deadline=None)
def test_from_spec_accepts_a_field_or_names_the_rule(spec):
    try:
        fld = GF2n.from_spec(spec)
    except ValueError as exc:
        assert any(rule in str(exc) for rule in SPEC_ERRORS), str(exc)
    else:
        n, poly = spec.split(":")
        assert (fld.n, fld.modulus) == (int(n), int(poly, 16))


@given(
    st.one_of(st.integers(-40, 0), st.integers(MAX_DEGREE + 1, 200)),
    st.integers(0, 2**210),
)
@settings(max_examples=60, deadline=None)
def test_from_spec_refuses_degrees_outside_the_cap(n, modulus):
    with pytest.raises(ValueError, match=rf"must be in \[1, 16\], got {n}$"):
        GF2n.from_spec(f"{n}:{modulus:x}")

"""Exact Gaussian-integer and Gaussian-rational arithmetic."""

from fractions import Fraction

from pseudoplanar.exact import GaussInt, GaussRat

from oracles import I_POWERS


def test_gauss_int_arithmetic():
    a = GaussInt(3, -2)
    b = GaussInt(-1, 5)
    assert a + b == GaussInt(2, 3)
    assert a - b == GaussInt(4, -7)
    assert a * b == GaussInt(3 * -1 - (-2) * 5, 3 * 5 + (-2) * -1)
    assert -a == GaussInt(-3, 2)
    assert a.conj() == GaussInt(3, 2)
    assert a * a.conj() == GaussInt(13)
    i = GaussInt(0, 1)
    assert i * i == GaussInt(-1)
    # i^k cycle
    x = GaussInt(1)
    for k in range(8):
        assert x == I_POWERS[k % 4]
        x = x * i


def test_gauss_int_int_interop():
    assert GaussInt(2, 1) * 3 == GaussInt(6, 3)
    assert 5 - GaussInt(2, 1) == GaussInt(3, -1)
    assert str(GaussInt(0)) == "0"
    assert GaussInt(1, 2).sort_key() == (1, 2)


def test_gauss_rat_field_ops():
    a = GaussRat(Fraction(1, 2), Fraction(3, 4))
    b = GaussRat.of(GaussInt(2, -1))
    assert a + b - b == a
    assert (-a) + a == GaussRat()
    assert a * b == GaussRat(Fraction(7, 4), Fraction(1))


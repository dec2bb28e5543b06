"""Pseudo-planarity tests, criteria, and the known constructions."""

import random
import warnings

import pytest

from pseudoplanar.field import GF2n
from pseudoplanar.functions import (
    SparsePoly,
    binomial1_criterion,
    binomial1_criterion_det,
    construct_binomial1,
    construct_known_monomial,
    construct_shifted_binomial,
    is_pseudoplanar,
    known_family_hits,
    known_hits_closure,
    linearized_is_bijection,
    moore_det,
    pseudoplanar_witness,
    scaling_orbit,
    shifted_binomial_criterion,
    shifted_binomial_obstruction,
)


def test_sparse_poly_canonical():
    fld = GF2n(4)
    f = SparsePoly.make(fld, [(5, 3), (1, 2), (5, 3)])  # duplicate cancels
    assert f.terms == ((1, 2),)
    assert SparsePoly.parse(fld, "5:1,3:2").literal == "3:2,5:1"
    assert SparsePoly.parse(fld, "0:0").terms == ()
    with pytest.raises(ValueError):
        SparsePoly.parse(fld, "5:")
    with pytest.raises(ValueError):
        SparsePoly.make(fld, [(20, 1)])  # exponent out of range


def test_direct_test_known_cases():
    assert is_pseudoplanar(SparsePoly.monomial(GF2n(4), 1, 5))
    assert is_pseudoplanar(SparsePoly.make(GF2n(3), [(3, 1), (6, 1)]))
    assert is_pseudoplanar(SparsePoly.zero(GF2n(5)))
    # a linearized term never disturbs pseudo-planarity
    assert is_pseudoplanar(SparsePoly.make(GF2n(4), [(5, 1), (2, 7)]))


def test_witness_is_smallest():
    f = SparsePoly.make(GF2n(6), [(5, 1), (20, 1)])
    eps = pseudoplanar_witness(f)
    assert eps == 3
    fld = f.field
    # confirm eps=3 really fails and all smaller eps pass
    for e in range(1, eps + 1):
        seen = set()
        for x in range(fld.order):
            seen.add(f.eval(x ^ e) ^ f.eval(x) ^ fld.mul(e, x))
        assert (len(seen) == fld.order) == (e < eps)


def test_moore_det_matches_bijectivity():
    rng = random.Random(5)
    for q_exp, r in [(2, 3), (1, 3)]:
        fld = GF2n(q_exp * r)
        for _ in range(100):
            coeffs = [rng.randrange(fld.order) for _ in range(r)]
            det = moore_det(fld, coeffs, q_exp)
            assert (det != 0) == linearized_is_bijection(fld, coeffs, q_exp)


def test_known_monomial_conditions():
    fld = GF2n(6)
    with pytest.raises(ValueError):
        construct_known_monomial(fld, "gold_half", 2, None)  # 2 not in F_8
    with pytest.raises(ValueError):
        construct_known_monomial(GF2n(5), "gold_half", 1, None)  # odd n
    with pytest.raises(ValueError):
        construct_known_monomial(fld, "scherr_zieve", 2, None)  # not a cube
    with pytest.raises(ValueError):
        construct_known_monomial(fld, "scherr_zieve", 1, None)  # a 9th power
    g = construct_known_monomial(fld, "linear", 5, 2)
    assert g.terms == ((4, 5),)
    assert is_pseudoplanar(g)


def test_known_families_are_pseudoplanar():
    for n in (3, 4, 6):
        fld = GF2n(n)
        for c, t in sorted(known_family_hits(fld))[::7]:
            assert is_pseudoplanar(SparsePoly.monomial(fld, c, t))


@pytest.mark.parametrize("n", range(2, 9))
def test_known_hits_closure_is_the_union_of_scaling_orbits(n):
    fld = GF2n(n)
    want = set()
    for c, t in known_family_hits(fld):
        want |= scaling_orbit(fld, c, t)
    assert known_hits_closure(fld) == want


def test_scaling_orbit_preserves_pseudoplanarity():
    fld = GF2n(4)
    orbit = scaling_orbit(fld, 1, 5)
    assert len(orbit) == 5  # the cubes of F_16*
    for c, t in orbit:
        assert is_pseudoplanar(SparsePoly.monomial(fld, c, t))
    assert orbit <= known_hits_closure(fld)


def test_binomial1_example_field_64():
    fld = GF2n(6)
    hits = set()
    for a in range(1, 64):
        crit = binomial1_criterion(fld, 2, a)
        det = binomial1_criterion_det(fld, 2, a)
        direct = is_pseudoplanar(construct_binomial1(fld, 2, a))
        assert crit == det == direct
        if crit:
            hits.add(a)
    assert {fld.mult_order(a) for a in hits} == {9, 63}
    assert len(hits) == 42


def test_binomial1_rejects_wrong_tower():
    with pytest.raises(ValueError):
        construct_binomial1(GF2n(4), 2, 1)


def test_shifted_binomials_small():
    # variant 2 is pseudo-planar for m = 1, not for m = 2
    f1 = construct_shifted_binomial(GF2n(3), 1, 2)
    assert f1.literal == "3:1,6:1"
    assert is_pseudoplanar(f1)
    assert shifted_binomial_criterion(GF2n(3), 1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f2 = construct_shifted_binomial(GF2n(6), 2, 2)
    assert not is_pseudoplanar(f2)
    assert not shifted_binomial_criterion(GF2n(6), 2, 2)
    # variant 3 works at m = 2
    f3 = construct_shifted_binomial(GF2n(6), 2, 3)
    assert is_pseudoplanar(f3)
    assert shifted_binomial_criterion(GF2n(6), 2, 3)


def test_shifted_binomial_failure_witnesses():
    # for variant 2 at m = 2 the obstruction vanishes exactly at the eps
    # where the difference map fails to be a bijection
    fld = GF2n(6)
    zero_set = {
        e for e in range(1, 64) if shifted_binomial_obstruction(fld, 2, 2, e) == 0
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f = construct_shifted_binomial(fld, 2, 2)
    direct_fail = set()
    for e in range(1, 64):
        seen = {f.eval(x ^ e) ^ f.eval(x) ^ fld.mul(e, x) for x in range(64)}
        if len(seen) != 64:
            direct_fail.add(e)
    assert zero_set == direct_fail
    assert len(zero_set) == 36
    # the roots of e^3 + e^2 + 1 (the F_64 elements of order 7 with trace
    # pattern fixed by that minimal polynomial) are among the failures
    roots = {e for e in range(1, 64) if fld.pow(e, 3) ^ fld.square(e) ^ 1 == 0}
    assert len(roots) == 3 and roots <= zero_set
    eps = pseudoplanar_witness(f)
    assert eps in zero_set


def test_obstruction_matches_direct_for_variant3():
    # variant 3 on F_8 (m=1, 1 mod 3) must fail
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f = construct_shifted_binomial(GF2n(3), 1, 3)
    assert not is_pseudoplanar(f)
    assert not shifted_binomial_criterion(GF2n(3), 1, 3)

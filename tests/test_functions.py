"""Pseudo-planarity tests, criteria, and the known constructions."""

import itertools
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudoplanar.field import MAX_DEGREE, GF2n
from pseudoplanar.functions import (
    SparsePoly,
    _orbit_table,
    _orbit_witnesses,
    _singular,
    binomial1_criterion,
    construct_binomial1,
    construct_known_monomial,
    construct_shifted_binomial,
    exhaustive_witness,
    is_pseudoplanar,
    known_family_hits,
    known_hits_closure,
    pseudoplanar_witness,
    shifted_binomial_criterion,
)

from oracles import (
    _rank_witnesses,
    binomial1_criterion_det,
    binomial1_criterion_full,
    binomial1_trace_value,
    last_axis_singular,
    linearized_is_bijection,
    moore_det,
    mult_order,
    scaling_orbit,
    shifted_binomial_criterion_full,
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


def test_parse_refuses_a_repeated_exponent():
    fld = GF2n(4)
    # the library constructor merges repeated exponents by XOR ...
    assert SparsePoly.make(fld, [(5, 1), (5, 1)]) == SparsePoly.zero(fld)
    assert SparsePoly.make(fld, [(5, 1), (3, 2), (5, 3)]).literal == "3:2,5:2"
    # ... but a literal names each exponent once
    for literal in ("5:1,5:1", "5:1,3:2,5:3", "0:1,0:1"):
        with pytest.raises(ValueError, match=f"exponent {literal[0]} is repeated"):
            SparsePoly.parse(fld, literal)


def test_is_quadratic_type():
    fld = GF2n(6)
    assert SparsePoly.zero(fld).is_quadratic_type()
    assert SparsePoly.monomial(fld, 3, 0).is_quadratic_type()  # constant
    for k in range(6):
        assert SparsePoly.monomial(fld, 1, 1 << k).is_quadratic_type()
    for i, j in itertools.combinations(range(6), 2):
        assert SparsePoly.monomial(fld, 1, (1 << i) + (1 << j)).is_quadratic_type()
    assert not SparsePoly.monomial(fld, 1, 7).is_quadratic_type()
    assert not SparsePoly.make(fld, [(0, 1), (5, 1), (11, 1)]).is_quadratic_type()


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


@pytest.mark.parametrize("a", [-1, 0, 64, 1 << 70])
def test_family_parameter_must_be_a_nonzero_field_element(a):
    fld = GF2n(6)
    calls = [
        lambda: construct_binomial1(fld, 2, a),
        lambda: binomial1_criterion(fld, 2, a),
    ] + [
        lambda fam=fam: construct_known_monomial(fld, fam, a)
        for fam in ("linear", "gold_half", "scherr_zieve")
    ]
    for call in calls:
        with pytest.raises(ValueError, match="nonzero field element, 0 < a < 0x40"):
            call()


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
    assert {mult_order(fld, a) for a in hits} == {9, 63}
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


_LITERAL_FIELDS = [GF2n(n) for n in (1, 3, 4, 6, 8)]


@given(st.sampled_from(_LITERAL_FIELDS), st.data())
@settings(max_examples=80, deadline=None)
def test_parse_refuses_out_of_range_exponents(fld, data):
    top = fld.order - 1
    exp = data.draw(
        st.one_of(st.integers(-3 * top - 3, -1), st.integers(top + 1, 4 * top))
    )
    with pytest.raises(ValueError, match=rf"exponent {exp} out of range \[0, {top}\]$"):
        SparsePoly.parse(fld, f"1:1,{exp}:1")


@given(st.sampled_from(_LITERAL_FIELDS), st.data())
@settings(max_examples=80, deadline=None)
def test_parse_refuses_coefficients_outside_the_field(fld, data):
    N = fld.order
    c = data.draw(st.one_of(st.integers(-N, -1), st.integers(N, 1 << 20)))
    literal = f"{data.draw(st.integers(0, N - 1))}:{c:x}"
    with pytest.raises(ValueError, match=rf"is not a field element, 0 <= c < {N:#x}$"):
        SparsePoly.parse(fld, literal)


@given(
    st.sampled_from(_LITERAL_FIELDS),
    st.text(alphabet="0123456789abcdefgz:,-", min_size=1, max_size=8).filter(
        lambda t: t != "0:0"
    ),
)
@settings(max_examples=150, deadline=None)
def test_parse_accepts_a_function_or_names_the_rule(fld, literal):
    try:
        f = SparsePoly.parse(fld, literal)
    except ValueError as exc:
        msg = str(exc)
        assert any(
            rule in msg
            for rule in ("bad polynomial term", "out of range [0, ", "is repeated",
                         "is not a field element, 0 <= c < ")
        ), msg
    else:
        terms = [part.split(":") for part in literal.split(",")]
        want = {int(e): int(c, 16) for e, c in terms}
        assert f.terms == tuple(sorted((e, c) for e, c in want.items() if c))


# -- the rank test against the exhaustive eps-loop ---------------------------


def _quadratic_exponents(fld):
    return [e for e in range(fld.order) if e.bit_count() <= 2]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank_witness_equals_exhaustive_on_every_quadratic_binomial(n):
    fld = GF2n(n)
    exps = _quadratic_exponents(fld)
    coeffs = range(1, fld.order)
    polys = [SparsePoly.monomial(fld, c, e) for e in exps for c in coeffs]
    polys += [
        SparsePoly.make(fld, [(e1, c1), (e2, c2)])
        for e1, e2 in itertools.combinations(exps, 2)
        for c1 in coeffs
        for c2 in coeffs
    ]
    want = [exhaustive_witness(f) for f in polys]
    assert [pseudoplanar_witness(f) for f in polys] == want
    assert None in want and (any(want) or n == 1)  # on F_2 every f passes
    # the same witnesses from one stacked call of the kernel per term count
    shifts, logs = _orbit_table(fld, exps)
    row = {e: r for r, e in enumerate(exps)}
    stacked = []
    for k in (1, 2):
        terms = np.array([f.terms for f in polys if len(f.terms) == k]).transpose(2, 1, 0)
        rows = np.vectorize(row.get)(terms[0])
        stacked += _orbit_witnesses(fld, shifts, logs, rows, fld.log_vec(terms[1])).tolist()
    assert [e or None for e in stacked] == want
    # and from the value-table oracle
    oracle = _rank_witnesses(fld, np.stack([f.value_table() for f in polys]))
    assert [int(e) or None for e in oracle] == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank_witness_of_term_less_and_constant_f(n):
    fld = GF2n(n)
    for f in (SparsePoly.zero(fld), SparsePoly.make(fld, [(0, fld.order - 1)])):
        assert f.is_quadratic_type()
        assert pseudoplanar_witness(f) is exhaustive_witness(f) is None
    # a constant adds nothing to D_1: B_0 = 0 is the all-sentinel row
    shifts, logs = _orbit_table(fld, [0])
    assert (fld.exp_vec(logs) == 0).all()
    no_terms = np.zeros((0, 3), dtype=np.int64)
    assert _orbit_witnesses(fld, shifts, logs, no_terms, no_terms).tolist() == [0, 0, 0]


def _dependent_by_span(rows):
    """Whether some nonzero subset of the n vectors on the first axis of rows
    XORs to 0, from the XOR of every subset."""
    n = rows.shape[0]
    sums = np.zeros((1 << n,) + rows.shape[1:], dtype=np.int64)
    for s in range(1, 1 << n):
        sums[s] = sums[s & (s - 1)] ^ rows[(s & -s).bit_length() - 1]
    return (sums[1:] == 0).any(axis=0)


@pytest.mark.parametrize("n", range(1, 9))
def test_singular_equals_the_oracle_elimination_and_the_span_count(n):
    rng = np.random.default_rng(n)
    stacks = rng.integers(0, 1 << n, size=(n, 5, 7), dtype=np.uint16)
    stacks[:, 0, 1] = 1 << np.arange(n)  # the basis
    stacks[-1, 1, :3] = 0  # a zero vector
    stacks[:, 2, 0] = 0  # all vectors zero
    if n > 1:
        stacks[-1, 3, :3] = stacks[0, 3, :3]  # a repeated vector
    want = _dependent_by_span(stacks)
    assert not want[0, 1] and want[1, :3].all() and want[2, 0]
    assert want.any() and (not want.all())
    oracle = last_axis_singular(np.moveaxis(stacks, 0, -1).copy())
    assert (oracle == want).all()
    assert (_singular(stacks.copy()) == want).all()
    # a single stack, as (n, 1, 1) and as a 1-D (n,) array
    for k in range(stacks.shape[2]):
        assert _singular(stacks[:, :1, k:k + 1].copy()).tolist() == [[want[0, k]]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bool(_singular(stacks[:, 0, k].copy())) == want[0, k]


def test_uint16_holds_every_field_element():
    # _orbit_witnesses casts the images L(2^k) to uint16 for the elimination
    assert 2**MAX_DEGREE - 1 <= np.iinfo(np.uint16).max


def test_quadratic_f_is_decided_without_a_value_table(monkeypatch):
    def refuse(self):
        raise AssertionError("the rank test built a value table")

    fld = GF2n(12)
    f = construct_binomial1(fld, 4, 2)
    monkeypatch.setattr(SparsePoly, "value_table", refuse)
    assert f.is_quadratic_type()
    assert pseudoplanar_witness(f) is not None
    assert pseudoplanar_witness(construct_shifted_binomial(GF2n(6), 2, 3)) is None


@st.composite
def _quadratic_polys(draw):
    """Quadratic-type f on F_2^5 .. F_2^8: an optional known pseudo-planar
    monomial plus constant, linear and Dembowski-Ostrom terms."""
    fld = GF2n(draw(st.integers(5, 8)))
    coeff = st.integers(1, fld.order - 1)
    terms = []
    if draw(st.booleans()):
        known = sorted(h for h in known_family_hits(fld) if h[1].bit_count() <= 2)
        terms.append(draw(st.sampled_from(known))[::-1])
    if draw(st.booleans()):
        terms.append((0, draw(coeff)))
    for _ in range(draw(st.integers(0, 2))):
        terms.append((1 << draw(st.integers(0, fld.n - 1)), draw(coeff)))
    quadratic = [e for e in _quadratic_exponents(fld) if e.bit_count() == 2]
    for _ in range(draw(st.integers(0, 2))):
        terms.append((draw(st.sampled_from(quadratic)), draw(coeff)))
    return SparsePoly.make(fld, terms)


@given(_quadratic_polys())
@settings(max_examples=60, deadline=None)
def test_rank_witness_equals_exhaustive_on_mixed_terms(f):
    assert f.is_quadratic_type()
    assert pseudoplanar_witness(f) == exhaustive_witness(f)


def test_rank_witness_equals_exhaustive_on_the_F4096_binomials():
    # a seeded subsample of the set of acceptance criterion 4
    fld = GF2n(12)
    good_orders = {9, 63, 117, 819}
    rng = random.Random(44)
    positives, negatives = [], []
    for a in range(1, fld.order):
        (positives if mult_order(fld, a) in good_orders else negatives).append(a)
    for a in rng.sample(positives, 25) + rng.sample(negatives, 200):
        f = construct_binomial1(fld, 4, a)
        eps = pseudoplanar_witness(f)
        assert eps == exhaustive_witness(f)
        assert (eps is None) == (a in positives)


def test_non_quadratic_f_takes_the_exhaustive_loop(monkeypatch):
    import pseudoplanar.functions as functions

    def refuse(*args):
        raise AssertionError("the rank test ran on a non-quadratic f")

    monkeypatch.setattr(functions, "_orbit_witnesses", refuse)
    f = SparsePoly.make(GF2n(6), [(7, 1), (20, 1)])
    assert not f.is_quadratic_type()
    assert pseudoplanar_witness(f) == exhaustive_witness(f) is not None


def test_rank_test_memory_stays_bounded():
    fld = GF2n(12)  # builds the field's own tables before tracing starts
    a = next(a for a in range(1, fld.order) if mult_order(fld, a) == 63)
    f = construct_binomial1(fld, 4, a)
    tracemalloc.start()
    try:
        assert pseudoplanar_witness(f) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


# -- the orbit schedule: one eps per class of log eps mod the period ---------


def _rank_tested_eps(monkeypatch, f):
    """How many eps _orbit_witnesses rank-tests to pass the pseudo-planar f."""
    import pseudoplanar.functions as functions

    blocks = []
    singular = functions._singular

    def spy(rows):
        assert rows.shape[0] == f.field.n  # rows is (n, eps, f)
        blocks.append(rows.shape[1])
        return singular(rows)

    monkeypatch.setattr(functions, "_singular", spy)
    assert pseudoplanar_witness(f) is None
    return sum(blocks)


def test_a_positive_F4096_binomial_is_rank_tested_at_its_period(monkeypatch):
    # shifts t^2 + 1 - 2 = 255 and t + 1 - 2 = 15: P = 4095 / 15 = 273
    fld = GF2n(12)
    a = next(a for a in range(1, fld.order) if mult_order(fld, a) == 63)
    assert _rank_tested_eps(monkeypatch, construct_binomial1(fld, 4, a)) == 273


@pytest.mark.parametrize("n", [1, 2, 3, 6, 8])
def test_f_without_a_quadratic_term_is_rank_tested_at_eps_1_only(monkeypatch, n):
    fld = GF2n(n)
    top = fld.order - 1
    for terms in ([], [(0, top)], [(1, top)], [(1 << (n - 1), 1), (1, top), (0, 1)]):
        f = SparsePoly.make(fld, terms)
        assert _rank_tested_eps(monkeypatch, f) == 1, terms


def test_f_with_an_x3_term_is_rank_tested_at_every_eps(monkeypatch):
    # the shift of x^3 is 1, so the period is the whole group of F_8
    fld = GF2n(3)
    for terms in ([(3, 1), (6, 1)], [(3, 2), (6, 6), (1, 5), (0, 7)]):
        assert _rank_tested_eps(monkeypatch, SparsePoly.make(fld, terms)) == 7


@pytest.mark.parametrize("n", [1, 2])
def test_orbit_table_of_the_smallest_fields(n):
    # group = 1 and 3: every exponent of weight <= 2 below 2^n has B_t = 0
    # except x^3 on F_4, whose shift is 1
    fld = GF2n(n)
    exps = _quadratic_exponents(fld)
    shifts, logs = _orbit_table(fld, exps)
    b_zero = (fld.exp_vec(logs) == 0).all(axis=1)
    assert [e for e, z in zip(exps, b_zero) if not z] == ([3] if n == 2 else [])
    assert shifts.tolist() == [1 if e == 3 else 0 for e in exps]


@pytest.mark.parametrize("n", [6, 8])
def test_stacked_call_of_mixed_periods_equals_one_call_per_candidate(n):
    fld = GF2n(n)
    half = (1 << (n // 2)) + 1  # the Gold exponent of gold_half, period 2^(n/2) + 1
    exps = [0, 1, 2, 3, half, 1 << (n - 1)]
    shifts, logs = _orbit_table(fld, exps)
    rng = random.Random(n)
    gold = sorted(c for c, t in known_hits_closure(fld) if t == half)
    short = (
        # a Gold monomial (a pseudo-planar one or any), padded by a constant
        [((half, c), (0, rng.randrange(1, fld.order))) for c in gold[:6]]
        + [((half, rng.randrange(1, fld.order)), (0, 1)) for _ in range(6)]
        # linear terms only: period 1
        + [((1, rng.randrange(1, fld.order)), (1 << (n - 1), rng.randrange(1, fld.order)))
           for _ in range(4)]
    )
    # an x^3 term: period 2^n - 1
    cands = short + [
        ((3, rng.randrange(1, fld.order)), (e, rng.randrange(1, fld.order)))
        for e in (2, half, 1 << (n - 1))
        for _ in range(4)
    ]
    rows = np.array([[exps.index(e) for e, _ in cand] for cand in cands]).T
    coeff_logs = fld.log_vec(np.array([[c for _, c in cand] for cand in cands])).T
    want = [exhaustive_witness(SparsePoly.make(fld, cand)) or 0 for cand in cands]
    assert 0 in want and any(want)
    single = [
        int(_orbit_witnesses(fld, shifts, logs, rows[:, [i]], coeff_logs[:, [i]])[0])
        for i in range(len(cands))
    ]
    assert single == want
    # the whole stack (shared period 2^n - 1), and the Gold and linear
    # candidates alone (shared period 2^(n/2) + 1)
    assert _orbit_witnesses(fld, shifts, logs, rows, coeff_logs).tolist() == want
    k = len(short)
    assert _orbit_witnesses(fld, shifts, logs, rows[:, :k], coeff_logs[:, :k]).tolist() == want[:k]


def test_rank_test_equals_binomial1_criterion_on_every_a_of_F4096():
    fld = GF2n(12)
    verdicts = [
        (is_pseudoplanar(construct_binomial1(fld, 4, a)), binomial1_criterion(fld, 4, a))
        for a in range(1, fld.order)
    ]
    assert [a for a, (test, crit) in enumerate(verdicts, 1) if test != crit] == []
    assert sum(test for test, _ in verdicts) == 546


@pytest.mark.parametrize("m", [4, 5])
@pytest.mark.parametrize("variant", [2, 3])
def test_rank_test_equals_shifted_binomial_criterion(m, variant):
    fld = GF2n(3 * m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f = construct_shifted_binomial(fld, m, variant)
    crit = shifted_binomial_criterion(fld, m, variant)
    assert is_pseudoplanar(f) == crit
    # variant 2 fails for m = 2 mod 3, variant 3 for m = 1 mod 3
    assert crit == (m % 3 != (2 if variant == 2 else 1))


# -- the trace criteria: one eps per coset of F_{2^m}* ------------------------


@pytest.mark.parametrize("n", [6, 12])
def test_binomial1_criterion_equals_the_full_eps_oracle_on_every_a(n):
    fld = GF2n(n)
    m = n // 3
    diff = [
        a for a in range(1, fld.order)
        if binomial1_criterion(fld, m, a) != binomial1_criterion_full(fld, m, a)
    ]
    assert diff == []


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("variant", [2, 3])
def test_shifted_binomial_criterion_equals_the_full_eps_oracle(m, variant):
    fld = GF2n(3 * m)
    assert shifted_binomial_criterion(fld, m, variant) == shifted_binomial_criterion_full(
        fld, m, variant
    )


def test_binomial1_trace_value_has_a_zero_exactly_where_the_full_oracle_fails():
    fld = GF2n(6)
    for a in range(1, fld.order):
        values = [binomial1_trace_value(fld, 2, a, e) for e in range(1, fld.order)]
        assert all(values) == binomial1_criterion_full(fld, 2, a), a


@pytest.mark.parametrize("m", [2, 4])
def test_criterion_values_scale_by_the_cube_of_a_subfield_factor(m):
    fld = GF2n(3 * m)
    subfield = [z for z in range(1, fld.order) if fld.in_subfield(z, m)]
    assert len(subfield) == (1 << m) - 1
    rng = random.Random(m)
    eps = rng.sample(range(1, fld.order), 12)
    coeffs = rng.sample(range(1, fld.order), 3)
    for z, e in itertools.product(subfield, eps):
        ze, z3 = fld.mul(z, e), fld.pow(z, 3)
        for variant in (2, 3):
            assert shifted_binomial_obstruction(fld, m, variant, ze) == fld.mul(
                z3, shifted_binomial_obstruction(fld, m, variant, e)
            )
        for a in coeffs:
            assert binomial1_trace_value(fld, m, a, ze) == fld.mul(
                z3, binomial1_trace_value(fld, m, a, e)
            )


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_criteria_evaluate_one_eps_per_coset_of_the_subfield(monkeypatch, m):
    import pseudoplanar.functions as functions

    lengths, cosets_met = [], []
    nonzero_powers = functions._nonzero_powers

    def spy(field, sub):
        power = nonzero_powers(field, sub)
        u = field.log_vec(power(1))
        cosets_met.append(np.unique(u % u.size).size)

        def recorded(k):
            out = power(k)
            lengths.append(out.size)
            return out

        return recorded

    monkeypatch.setattr(functions, "_nonzero_powers", spy)
    fld = GF2n(3 * m)
    cosets = {1: 7, 2: 21, 3: 73, 4: 273}[m]
    assert cosets == (fld.order - 1) // ((1 << m) - 1)
    for variant in (2, 3):
        shifted_binomial_criterion(fld, m, variant)
    if m % 2 == 0:
        binomial1_criterion(fld, m, fld.generator())
    assert lengths and set(lengths) == {cosets}
    # the eps are g^u for u in distinct classes mod (2^n - 1)/(2^m - 1)
    assert set(cosets_met) == {cosets}

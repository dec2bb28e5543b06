"""GR(4, n) pair arithmetic against the independent Z4 polynomial model."""

import random
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudoplanar.exact import GaussInt
from pseudoplanar.field import GF2n
from pseudoplanar.functions import SparsePoly
from pseudoplanar.galois_ring import GR4, MAX_RING_DEGREE
from pseudoplanar.groupring import GroupVec, _tables, build_df

from oracles import I_POWERS, Z4Model, character, trace


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_agreement_exhaustive(n):
    ring = GR4(GF2n(n))
    model = Z4Model(ring.field)
    elems = [ring.pair(i) for i in range(ring.size)]
    vecs = {x: model.from_pair(x) for x in elems}
    for x in elems:
        assert model.to_pair(vecs[x]) == x
        assert vecs[ring.neg(x)] == model.neg(vecs[x])
        assert vecs[ring.pair(ring.neg_idx(ring.idx(x)))] == model.neg(vecs[x])
    sums = ring.pair_sums(np.arange(ring.size))
    for x in elems:
        for y in elems:
            assert vecs[ring.add(x, y)] == model.add(vecs[x], vecs[y])
            s = int(sums[ring.idx(x), ring.idx(y)])
            assert vecs[ring.pair(s)] == model.add(vecs[x], vecs[y])
            assert vecs[ring.mul(x, y)] == model.mul(vecs[x], vecs[y])


def test_oracle_agreement_random_n4():
    ring = GR4(GF2n(4))
    model = Z4Model(ring.field)
    rng = random.Random(11)
    for _ in range(2000):
        x = ring.pair(rng.randrange(ring.size))
        y = ring.pair(rng.randrange(ring.size))
        assert model.from_pair(ring.add(x, y)) == model.add(
            model.from_pair(x), model.from_pair(y)
        )
        assert model.from_pair(ring.mul(x, y)) == model.mul(
            model.from_pair(x), model.from_pair(y)
        )
        assert model.from_pair(ring.neg(x)) == model.neg(model.from_pair(x))


@lru_cache(maxsize=None)
def _ring(n, modulus):
    return GR4(GF2n(n, modulus))


@lru_cache(maxsize=None)
def _model(n, modulus):
    return Z4Model(_ring(n, modulus).field)


# the default modulus and one other irreducible per degree (0x1f is not
# primitive: x has order 5)
RING_FIELDS = [(4, None), (4, 0x1F), (5, None), (5, 0x3D), (6, None), (6, 0x49)]


@given(st.sampled_from(RING_FIELDS), st.data())
@settings(max_examples=150, deadline=None)
def test_ring_ops_match_z4model(spec, data):
    ring = _ring(*spec)
    model = _model(*spec)
    x, y = (ring.pair(data.draw(st.integers(0, ring.size - 1))) for _ in range(2))
    u, v = model.from_pair(x), model.from_pair(y)
    assert model.to_pair(u) == x
    assert model.from_pair(ring.add(x, y)) == model.add(u, v)
    assert model.from_pair(ring.mul(x, y)) == model.mul(u, v)
    assert model.from_pair(ring.neg(x)) == model.neg(u)


def test_oracle_lift_is_unit_root():
    for n in (2, 3, 4, 6):
        model = Z4Model(GF2n(n))
        group = (1 << n) - 1
        y = tuple(1 if j == 1 else 0 for j in range(n))
        assert model.pow(y, group) == model.one()


def test_frobenius_generates_galois_group():
    ring = GR4(GF2n(4))
    for i in range(ring.size):
        x = ring.pair(i)
        v = x
        for _ in range(ring.n):
            v = ring.frobenius(v)
        assert v == x
    # Frobenius is a ring homomorphism
    rng = random.Random(3)
    for _ in range(200):
        x = ring.pair(rng.randrange(ring.size))
        y = ring.pair(rng.randrange(ring.size))
        assert ring.frobenius(ring.add(x, y)) == ring.add(
            ring.frobenius(x), ring.frobenius(y)
        )
        assert ring.frobenius(ring.mul(x, y)) == ring.mul(
            ring.frobenius(x), ring.frobenius(y)
        )


def test_trace_properties():
    ring = GR4(GF2n(3))
    for i in range(ring.size):
        x = ring.pair(i)
        assert trace(ring, ring.frobenius(x)) == trace(ring, x)
    # trace is additive into Z4
    for i in range(0, ring.size, 7):
        for j in range(0, ring.size, 5):
            x, y = ring.pair(i), ring.pair(j)
            want = (trace(ring, x) + trace(ring, y)) % 4
            assert trace(ring, ring.add(x, y)) == want


def test_trace_balance_small():
    ring = GR4(GF2n(2))
    counts = [0, 0, 0, 0]
    for i in range(ring.size):
        counts[trace(ring, ring.pair(i))] += 1
    assert counts == [4, 4, 4, 4]


def test_character_orthogonality():
    ring = GR4(GF2n(2))
    for a_idx in range(ring.size):
        a = ring.pair(a_idx)
        total = GaussInt()
        for x_idx in range(ring.size):
            total = total + character(ring, a, ring.pair(x_idx))
        assert total == (GaussInt(ring.size) if a_idx == 0 else GaussInt())


def test_negation_and_two_torsion():
    ring = GR4(GF2n(4))
    for i in range(ring.size):
        x = ring.pair(i)
        assert ring.add(x, ring.neg(x)) == ring.zero
        # 2x lies in Z = 2R, the pairs (0, b)
        assert ring.add(x, x)[0] == 0
    neg = [ring.idx(ring.neg(ring.pair(i))) for i in range(ring.size)]
    assert ring.neg_idx(np.arange(ring.size)).tolist() == neg


@given(st.sampled_from([1, 2, 3, 5, 8, 10]), st.data())
@settings(max_examples=60, deadline=None)
def test_pair_sums_are_ring_addition(n, data):
    ring = GR4(GF2n(n))
    idx = data.draw(st.lists(st.integers(0, ring.size - 1), min_size=1, max_size=6))
    other = data.draw(st.lists(st.integers(0, ring.size - 1), min_size=1, max_size=6))
    # one set with itself, and the rows of one with the columns of another
    for rows, cols, sums in (
        (idx, idx, ring.pair_sums(np.array(idx))),
        (idx, other, ring.pair_sums(np.array(idx), np.array(other))),
    ):
        assert sums.dtype == np.uint32 and sums.shape == (len(rows), len(cols))
        for i, g in enumerate(rows):
            for j, h in enumerate(cols):
                total = ring.idx(ring.add(ring.pair(g), ring.pair(h)))
                assert int(sums[i, j]) == total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_two_torsion_is_the_index_prefix(n):
    # Z = 2R is the pairs (0, b), which are exactly the indices below 2^n;
    # build_partition, eigen_P, rds_expected and _rds_check rely on it
    ring = GR4(GF2n(n))
    for i in range(ring.size):
        assert (ring.pair(i)[0] == 0) == (i < 1 << n)
    doubles = {ring.idx(ring.add(x, x)) for x in map(ring.pair, range(ring.size))}
    assert doubles == set(range(1 << n))


def test_dual_pairing():
    # tau is the trace-dual basis map: Tr(2T(c) T(s)) = 2 tr(cs) =
    # 2 (tau[c] . s); and i^Tr(T(c) T(x)) = cos[c, x] + i sin[c, x]
    for n in range(1, 7):
        ring = GR4(GF2n(n))
        tau, cos, sin = _tables(ring)
        m = 1 << n
        assert sorted(tau) == list(range(m))
        assert cos.shape == sin.shape == (m, m)
        assert cos.dtype == sin.dtype == np.int8
        for c in range(m):
            for x in range(m):
                dot = bin(int(tau[c]) & x).count("1") % 2
                assert trace(ring, ring.mul((0, c), (x, 0))) == 2 * dot
                phase = I_POWERS[trace(ring, ring.mul((c, 0), (x, 0)))]
                assert GaussInt(int(cos[c, x]), int(sin[c, x])) == phase


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_tables_match_z4model_oracle(n):
    # the same tables from Tr(T(c) T(x)), taken wholly in Z4[y]/(h(y)):
    # its parity is tau[c] . x, and i to its power is cos + i sin
    ring = GR4(GF2n(n))
    model = Z4Model(ring.field)
    tau, cos, sin = _tables(ring)
    m = 1 << n
    teich = [model.teich(c) for c in range(m)]
    for c in range(m):
        for x in range(m):
            t = model.trace(model.mul(teich[c], teich[x]))
            assert bin(int(tau[c]) & x).count("1") % 2 == t % 2
            assert GaussInt(int(cos[c, x]), int(sin[c, x])) == I_POWERS[t]


def test_tables_build_without_z4model(monkeypatch):
    def refuse(self, field):
        raise AssertionError("GR4 built its tables through Z4Model")

    monkeypatch.setattr(Z4Model, "__init__", refuse)
    _tables.cache_clear()
    ring = GR4(GF2n(5))
    tau, cos, sin = _tables(ring)
    assert sorted(tau) == list(range(1 << ring.n))
    assert np.all(np.abs(cos) + np.abs(sin) == 1)
    assert sorted(ring.neg_idx(np.arange(ring.size))) == list(range(ring.size))
    sp = GroupVec.delta(ring, ring.zero).char_transform()
    assert np.all(sp.re == 1) and np.all(sp.im == 0)


def test_table_build_memory_n10():
    # the transform keeps two 4^n int8 phase tables and the 2^n-entry tau,
    # builds them one block of rows at a time, and keeps nothing else
    field = GF2n(10)
    _tables.cache_clear()
    tracemalloc.start()
    try:
        ring = GR4(field)
        tau, cos, sin = _tables(ring)
        _, build_peak = tracemalloc.get_traced_memory()
        D = build_df(ring, SparsePoly.zero(field))
        before, _ = tracemalloc.get_traced_memory()
        X = D.char_transform()
        del X
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cos.dtype == sin.dtype == np.int8
    assert cos.nbytes == sin.nbytes == 2**20
    assert tau.size == 2**10
    assert build_peak < 3 * 2**20
    assert after - before < 2**16


def test_elem_literals():
    ring = GR4(GF2n(4))
    assert ring.elem_string((3, 10)) == "3+2*a"


def test_capacity_guard():
    with pytest.raises(ValueError, match=f"capped at n <= {MAX_RING_DEGREE}"):
        GR4(GF2n(MAX_RING_DEGREE + 1))

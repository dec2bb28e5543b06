"""GR(4, n) pair arithmetic against the independent Z4 polynomial model."""

import random
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudoplanar.exact import GaussInt
from pseudoplanar.field import GF2n
from pseudoplanar.galois_ring import GR4, MAX_RING_DEGREE
from pseudoplanar.groupring import (
    GroupVec,
    _coordinates,
    _gather,
    _labels,
    _outer_xor,
)

from oracles import Z4Model, character, trace


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
    sums = ring.pair_sums(np.array(idx))
    assert sums.dtype == np.uint32
    for i, g in enumerate(idx):
        for j, h in enumerate(idx):
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
    for n in (2, 3):
        ring = GR4(GF2n(n))
        coord = _outer_xor(*_coordinates(ring))
        dual = _outer_xor(*_labels(ring))
        for a_idx in range(ring.size):
            u = int(dual[a_idx])
            a = ring.pair(a_idx)
            for x_idx in range(0, ring.size, 3):
                x = ring.pair(x_idx)
                v = int(coord[x_idx])
                dot = sum(
                    ((u >> (2 * j)) & 3) * ((v >> (2 * j)) & 3) for j in range(n)
                ) % 4
                assert dot == trace(ring, ring.mul(a, x))


def _oracle_tables(ring):
    """The Z4^n coordinates and labels rebuilt from Z4Model digits and the
    trace pairing, as 4^n tables.

    Coordinate digit j of x is the coefficient of y^j in the model; digit k
    of the label of chi_a is Tr(a e_k), with e_k the element whose model
    vector is y^k.
    """
    model = Z4Model(ring.field)
    n = ring.n
    pow4 = [4**j for j in range(n)]
    coord = [
        sum(d * p for d, p in zip(model.from_pair(ring.pair(i)), pow4))
        for i in range(ring.size)
    ]
    basis = [model.to_pair(tuple(int(j == k) for j in range(n))) for k in range(n)]
    dual = [
        sum(trace(ring, ring.mul(ring.pair(i), e)) * p for e, p in zip(basis, pow4))
        for i in range(ring.size)
    ]
    return np.array(coord, dtype=np.int64), np.array(dual, dtype=np.int64)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_tables_match_z4model_oracle(n):
    ring = GR4(GF2n(n))
    coord, dual = _oracle_tables(ring)
    assert np.array_equal(_outer_xor(*_coordinates(ring)), coord)
    assert np.array_equal(_outer_xor(*_labels(ring)), dual)


def test_tables_build_without_z4model(monkeypatch):
    def refuse(self, field):
        raise AssertionError("GR4 built its tables through Z4Model")

    monkeypatch.setattr(Z4Model, "__init__", refuse)
    _coordinates.cache_clear()
    _gather.cache_clear()
    ring = GR4(GF2n(5))
    tables = [_outer_xor(*_coordinates(ring)), _outer_xor(*_labels(ring))]
    tables += [_gather(ring), ring.neg_idx(np.arange(ring.size))]
    for table in tables:
        assert sorted(table) == list(range(ring.size))
    sp = GroupVec.delta(ring, ring.zero).char_transform()
    assert np.all(sp.re == 1) and np.all(sp.im == 0)


def test_table_build_memory_n10():
    # GR4 and the 2^n-entry parts of the coordinates and labels stay small;
    # the one 4^n table is the transform's intp gather
    field = GF2n(10)
    _coordinates.cache_clear()
    _gather.cache_clear()
    tracemalloc.start()
    try:
        ring = GR4(field)
        _coordinates(ring)
        _labels(ring)
        _, parts_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        gather = _gather(ring)
        _, gather_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parts_peak < 2**20
    assert gather.dtype == np.intp and gather.nbytes == 8 * 2**20
    assert gather_peak < 9 * 2**20


def test_elem_literals():
    ring = GR4(GF2n(4))
    assert ring.elem_string((3, 10)) == "3+2*a"


def test_capacity_guard():
    with pytest.raises(ValueError, match=f"capped at n <= {MAX_RING_DEGREE}"):
        GR4(GF2n(MAX_RING_DEGREE + 1))

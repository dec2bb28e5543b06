"""Acceptance suite: twelve numbered criteria, exact arithmetic, zero
tolerance.  Each test prints exactly one "criterion N: PASS/FAIL" line and
enforces its stated wall-clock budget.
"""

import random
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from pseudoplanar.exact import GaussInt, GaussRat
from pseudoplanar.field import GF2n
from pseudoplanar.functions import (
    SparsePoly,
    binomial1_criterion,
    construct_binomial1,
    construct_shifted_binomial,
    is_pseudoplanar,
    known_hits_closure,
    shifted_binomial_criterion,
)
from pseudoplanar.galois_ring import GR4
from pseudoplanar.groupring import GroupVec, build_df, rds_expected, verify_rds
from pseudoplanar.scheme import (
    bm_fuse,
    build_partition,
    build_report,
    closed_form_P,
    closed_form_Q,
    fourier_spectrum,
)
from pseudoplanar.search import merge_results, search_quad_binomials

from oracles import Z4Model, mult_order, s1_identities_hold, trace, verify_schur


@contextmanager
def criterion(num: int, budget_s: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL ({time.monotonic() - t0:.1f}s)")
        raise
    elapsed = time.monotonic() - t0
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s > {budget_s}s"
    print(f"criterion {num}: PASS ({elapsed:.1f}s)")


# per-field second pseudo-planar function (beyond f = 0) used in 7 and 9
SECOND_PP = {3: "3:1,6:1", 4: "5:1", 5: "2:1"}


def _pp_pair(fld):
    zero = SparsePoly.zero(fld)
    if fld.n == 6:
        return zero, construct_binomial1(fld, 2, 2)
    return zero, SparsePoly.parse(fld, SECOND_PP[fld.n])


def test_criterion_01_galois_ring_oracle_equivalence():
    with criterion(1, 10.0):
        for n in (1, 2, 3):
            ring = GR4(GF2n(n))
            model = Z4Model(ring.field)
            elems = [ring.pair(i) for i in range(ring.size)]
            vecs = {x: model.from_pair(x) for x in elems}
            for x in elems:
                # Frobenius agrees: the model image is the pair image
                fx = vecs[ring.frobenius(x)]
                # ... and squares x modulo 2R in the model
                diff = model.add(fx, model.neg(model.mul(vecs[x], vecs[x])))
                assert all(c % 2 == 0 for c in diff)
                # trace agrees: sum of Frobenius orbit is the constant Tr(x)
                acc, v = model.zero(), vecs[x]
                for _ in range(n):
                    acc = model.add(acc, v)
                    v = model.to_pair(v)
                    v = vecs[ring.frobenius(v)]
                assert acc == tuple(
                    [trace(ring, x)] + [0] * (n - 1)
                ), f"trace mismatch at {x}"
            for x in elems:
                for y in elems:
                    assert vecs[ring.add(x, y)] == model.add(vecs[x], vecs[y])
                    assert vecs[ring.mul(x, y)] == model.mul(vecs[x], vecs[y])
        ring = GR4(GF2n(4))
        model = Z4Model(ring.field)
        rng = random.Random(1)
        pairs = [ring.pair(i) for i in range(ring.size)]
        vec = [model.from_pair(p) for p in pairs]
        idx = ring.idx
        for _ in range(100_000):
            i = rng.getrandbits(8)
            j = rng.getrandbits(8)
            x, y = pairs[i], pairs[j]
            assert vec[idx(ring.add(x, y))] == model.add(vec[i], vec[j])
            assert vec[idx(ring.mul(x, y))] == model.mul(vec[i], vec[j])


def test_criterion_02_monomial_table_reproduction():
    with criterion(2, 30.0):
        # x^5 on F_16 accepted
        f16 = GF2n(4)
        assert is_pseudoplanar(SparsePoly.monomial(f16, 1, 5))
        # full n=4 sweep: accepted monomials are exactly the known families
        # closed under the coefficient-scaling equivalence
        hits = set()
        for t in range(1, 16):
            for c in range(1, 16):
                if is_pseudoplanar(SparsePoly.monomial(f16, c, t)):
                    hits.add((c, t))
        assert hits == known_hits_closure(f16)
        assert {t for _, t in hits} == {1, 2, 4, 8, 5}
        # a*x^20 on F_64: accepted iff a is a cube but not a ninth power
        f64 = GF2n(6)
        for a in range(1, 64):
            want = f64.pow(a, 63 // 3) == 1 and f64.pow(a, 63 // 9) != 1
            assert is_pseudoplanar(SparsePoly.monomial(f64, a, 20)) == want


def test_criterion_03_cubic_binomial_small_example():
    with criterion(3, 60.0):
        fld = GF2n(6)
        for a in range(1, 64):
            crit = binomial1_criterion(fld, 2, a)
            direct = is_pseudoplanar(construct_binomial1(fld, 2, a))
            assert crit == direct
            assert crit == (mult_order(fld, a) in (9, 63))


def test_criterion_04_cubic_binomial_large_example():
    with criterion(4, 600.0):
        fld = GF2n(12)
        good_orders = {9, 63, 117, 819}
        positives = []
        negatives = []
        for a in range(1, 4096):
            crit = binomial1_criterion(fld, 4, a)
            assert crit == (mult_order(fld, a) in good_orders)
            (positives if crit else negatives).append(a)
        assert len(positives) == 546
        rng = random.Random(4)
        sample = positives + rng.sample(negatives, 1000)
        for a in sample:
            f = construct_binomial1(fld, 4, a)
            assert is_pseudoplanar(f) == (mult_order(fld, a) in good_orders)


def test_criterion_05_shifted_binomials():
    with criterion(5, 60.0):
        # variant 2 pseudo-planar for m in {1, 3, 4}
        for m in (1, 3, 4):
            f = construct_shifted_binomial(GF2n(3 * m), m, 2)
            assert shifted_binomial_criterion(GF2n(3 * m), m, 2)
            assert is_pseudoplanar(f)
        # ... but not for m = 2, witnessed by a root of e^3 + e^2 + 1
        fld = GF2n(6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = construct_shifted_binomial(fld, 2, 2)
        assert not shifted_binomial_criterion(fld, 2, 2)
        roots = [e for e in range(1, 64)
                 if fld.pow(e, 3) ^ fld.square(e) ^ 1 == 0]
        assert roots
        witnessed = False
        for e in roots:
            seen = {f.eval(x ^ e) ^ f.eval(x) ^ fld.mul(e, x)
                    for x in range(64)}
            witnessed |= len(seen) != 64
        assert witnessed
        # variant 3 pseudo-planar for m in {2, 3}
        for m in (2, 3):
            assert shifted_binomial_criterion(GF2n(3 * m), m, 3)
            assert is_pseudoplanar(construct_shifted_binomial(GF2n(3 * m), m, 3))


def test_criterion_06_relative_difference_set_identity():
    with criterion(6, 60.0):
        cases = [
            (3, SparsePoly.zero(GF2n(3))),
            (4, SparsePoly.monomial(GF2n(4), 1, 5)),
            (3, SparsePoly.parse(GF2n(3), "3:1,6:1")),
            (6, construct_binomial1(GF2n(6), 2, 2)),
        ]
        for n, f in cases:
            ring = GR4(f.field)
            D = build_df(ring, f)
            ok, violations = verify_rds(D)
            assert ok and violations == []
            assert D.convolve(D.involute()) == rds_expected(ring)


def test_criterion_07_partition_multiset_identities():
    with criterion(7, 300.0):
        # Teichmuller set T = D_0 for 3 <= n <= 8: both product identities
        for n in range(3, 9):
            ring = GR4(GF2n(n))
            T = build_df(ring, SparsePoly.zero(ring.field))
            assert T.convolve(T.involute()) == rds_expected(ring)
            sq = T.convolve(T)
            tt = np.arange(ring.size) < 1 << n  # Z, the index prefix
            # T^2 covers the 2-torsion once ...
            assert np.all(sq.counts[tt] == 1)
            # ... and exactly half the outside elements twice
            outside = sq.counts[~tt]
            assert set(np.unique(outside)) <= {0, 2}
            assert int((outside == 2).sum()) == (ring.size - (1 << n)) // 2
        # S_1 identities for two distinct pseudo-planar f per field
        for n in (3, 4, 5, 6):
            ring = GR4(GF2n(n))
            for f in _pp_pair(ring.field):
                part = build_partition(build_df(ring, f))
                assert s1_identities_hold(part)


def test_criterion_08_scheme_and_eigenmatrices():
    with criterion(8, 600.0):
        for n in (3, 4, 5, 6):
            ring = GR4(GF2n(n))
            for f in _pp_pair(ring.field):
                rep = build_report(build_df(ring, f))
                # full constant p-tensor
                part = build_partition(build_df(ring, f))
                p, witness = verify_schur(part)
                assert witness is None and np.array_equal(p, rep.p_tensor)
                # computed P and Q equal the closed forms, entrywise
                assert rep.row_slots == rep.col_slots == list(range(6))
                assert rep.P == closed_form_P(n)
                assert rep.Q == closed_form_Q(n)
                # P Q = 4^n I
                for j in range(6):
                    for k in range(6):
                        acc = GaussRat()
                        for i in range(6):
                            acc = acc + GaussRat.of(rep.P[j][i]) * rep.Q[i][k]
                        assert acc == GaussRat.of(ring.size if j == k else 0)


def test_criterion_09_spectra():
    with criterion(9, 60.0):
        want3 = sorted(
            [
                (GaussInt(8), 1),
                (GaussInt(0), 7),
                (GaussInt(2, 2), 21),
                (GaussInt(2, -2), 21),
                (GaussInt(-2, 2), 7),
                (GaussInt(-2, -2), 7),
            ],
            key=lambda vf: vf[0].sort_key(),
        )
        want4 = sorted(
            [
                (GaussInt(16), 1),
                (GaussInt(0), 15),
                (GaussInt(4), 90),
                (GaussInt(-4), 30),
                (GaussInt(0, 4), 60),
                (GaussInt(0, -4), 60),
            ],
            key=lambda vf: vf[0].sort_key(),
        )
        for n, want in ((3, want3), (4, want4)):
            ring = GR4(GF2n(n))
            spectra = [fourier_spectrum(ring, f) for f in _pp_pair(ring.field)]
            for sp in spectra:
                assert sp == want
        # invariance across every pseudo-planar f tested per field
        ring = GR4(GF2n(4))
        base = fourier_spectrum(ring, SparsePoly.zero(ring.field))
        for lit in ("5:1", "5:a", "1:1", "5:1,2:7"):
            f = SparsePoly.parse(ring.field, lit)
            assert is_pseudoplanar(f)
            assert fourier_spectrum(ring, f) == base


def test_criterion_10_degenerate_small_rings():
    with criterion(10, 1.0):
        rep1 = build_report(build_df(GR4(GF2n(1)), SparsePoly.zero(GF2n(1))))
        assert rep1.class_count == 3
        assert rep1.matches_closed_forms()
        rep2 = build_report(build_df(GR4(GF2n(2)), SparsePoly.zero(GF2n(2))))
        assert rep2.class_count == 4
        assert rep2.matches_closed_forms()
        # bm_fuse with the identity column partition reproduces each
        # eigenmatrix (the closed-form submatrix over the nonempty slots)
        for rep in (rep1, rep2):
            cells = [[i] for i in range(len(rep.P[0]))]
            fused, rows = bm_fuse(rep.P, cells)
            assert fused == [list(r) for r in rep.P]
            assert rows == cells
            cp = closed_form_P(rep.partition.ring.n)
            assert rep.P == [
                [cp[rj][ci] for ci in rep.col_slots] for rj in rep.row_slots
            ]


def test_criterion_11_binomial_search():
    with criterion(11, 300.0):
        assert search_quad_binomials(GF2n(3)).hits() != []
        assert search_quad_binomials(GF2n(4)).hits() == []
        assert search_quad_binomials(GF2n(5)).hits() == []
        full = search_quad_binomials(GF2n(6))
        hits = {f.literal for f in full.hits()}
        assert hits
        # the cubic-tower binomials of the F_64 example appear in the sweep
        f64 = GF2n(6)
        for a in range(1, 64):
            if mult_order(f64, a) in (9, 63):
                assert construct_binomial1(f64, 2, a).literal in hits
        # sharded runs merge to exactly the unsharded result
        parts = [search_quad_binomials(f64, shard=(k, 4)) for k in range(4)]
        assert merge_results(parts).hit_indices == full.hit_indices


def test_criterion_12_inversion_formula():
    with criterion(12, 10.0):
        rng = random.Random(12)
        for n in (2, 3, 4):
            ring = GR4(GF2n(n))
            for _ in range(100):
                counts = np.array(
                    [rng.randrange(4) for _ in range(ring.size)], dtype=np.int64
                )
                A = GroupVec(ring, counts)
                sp = A.char_transform()
                assert sp.inverse_transform() == A
                # multiplicity of 0 = (1/|G|) * sum over characters
                total = sum(int(sp.re[a]) for a in range(ring.size))
                imag = sum(int(sp.im[a]) for a in range(ring.size))
                assert imag == 0
                assert total % ring.size == 0
                assert total // ring.size == int(A.counts[0])

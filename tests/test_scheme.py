"""Scheme construction, eigenmatrices, spectra, duals, and fusion."""

import copy
import dataclasses
import hashlib
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pseudoplanar.exact import GaussInt, GaussRat
from pseudoplanar.field import GF2n
from pseudoplanar.functions import (
    SparsePoly,
    construct_binomial1,
    construct_shifted_binomial,
    is_pseudoplanar,
    known_family_hits,
)
from pseudoplanar.galois_ring import GR4
from pseudoplanar.groupring import (
    GroupVec,
    SpectrumVec,
    _rds_check,
    build_df,
    verify_rds,
)
from pseudoplanar import groupring, scheme
from pseudoplanar.scheme import (
    DualPartition,
    FusionError,
    Partition6,
    SchemeError,
    bm_fuse,
    build_partition,
    build_report,
    closed_form_P,
    closed_form_Q,
    dual_partition,
    eigen_P,
    eigen_Q,
    fourier_spectrum,
    _check_pq,
    _intersection_numbers,
    raw_spectrum,
    spectrum_closed_form,
    spectrum_csv,
)
from pseudoplanar.search import SearchSpace

from oracles import (
    check_pq_gauss,
    class_spectra,
    intersection_numbers_gauss,
    pair_sum_marks_from_table,
    partition_by_counted_square,
    s1_identities_hold,
    verify_schur,
)

PP_EXAMPLES = {
    3: "3:1,6:1",
    4: "5:1",
    5: "2:1",
    6: None,  # filled in below with the cubic-tower binomial
}


def _pp_poly(fld):
    if fld.n == 6:
        return construct_binomial1(fld, 2, 2)
    return SparsePoly.parse(fld, PP_EXAMPLES[fld.n])


def _report(n, literal=None):
    ring = GR4(GF2n(n))
    f = _pp_poly(ring.field) if literal is None else SparsePoly.parse(
        ring.field, literal
    )
    return build_report(build_df(ring, f))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_full_scheme_matches_closed_forms(n):
    rep = _report(n)
    assert rep.class_count == 5
    assert rep.row_slots == rep.col_slots == [0, 1, 2, 3, 4, 5]
    assert rep.matches_closed_forms()
    # PQ = |R| I
    size = rep.partition.ring.size
    for j in range(6):
        for k in range(6):
            acc = GaussRat()
            for i in range(6):
                acc = acc + GaussRat.of(rep.P[j][i]) * rep.Q[i][k]
            assert acc == GaussRat.of(size if j == k else 0)


# sha256 of to_json() for the PP_EXAMPLES reports, as written before the
# closed-form eigenmatrices were cached
REPORT_JSON_SHA256 = {
    3: "578b344c6281ee5615efa26710ebbdd9ccdcd1a168c980942bccd0158b5cea45",
    4: "648aca28cecc3541dc7ccf4a5022d5a373cb8f0cdcb46872ff8bee037cf9daa6",
    5: "95a5afb32f0bc05a63468cd97e5b7efbbddebfc8fe949794d110c65c9de358ce",
}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cached_closed_forms_are_returned_as_fresh_lists(n):
    rep = _report(n)
    scheme._closed_form_P.cache_clear()
    scheme._closed_form_Q.cache_clear()
    cold = rep.to_json()
    assert hashlib.sha256(cold.encode()).hexdigest() == REPORT_JSON_SHA256[n]
    P, Q = closed_form_P(n), closed_form_Q(n)
    want_P, want_Q = copy.deepcopy(P), copy.deepcopy(Q)
    P[1][1] = GaussInt(7)
    P[2].append(GaussInt(0))
    Q[0][0] = GaussRat.of(5)
    del Q[3]
    assert closed_form_P(n) == want_P
    assert closed_form_Q(n) == want_Q
    assert rep.matches_closed_forms()
    assert rep.to_json() == cold


@pytest.mark.parametrize("n", [3, 4])
def test_scheme_independent_of_function(n):
    base = _report(n, "0:0")
    other = _report(n)
    assert base.P == other.P
    assert base.Q == other.Q
    assert np.array_equal(base.p_tensor, other.p_tensor)
    assert base.partition.class_sizes == other.partition.class_sizes


def test_dual_sizes_known_values():
    assert _report(3).dual.sizes == (1, 7, 21, 21, 7, 7)
    assert _report(4).dual.sizes == (1, 15, 90, 30, 60, 60)
    assert _report(5).dual.sizes == (1, 31, 310, 310, 186, 186)
    assert _report(6).dual.sizes == (1, 63, 1260, 756, 1008, 1008)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_s1_identities(n):
    ring = GR4(GF2n(n))
    part = build_partition(build_df(ring, _pp_poly(ring.field)))
    assert s1_identities_hold(part)


def test_verify_schur_tensor_properties():
    ring = GR4(GF2n(3))
    part = build_partition(build_df(ring, SparsePoly.parse(ring.field, "3:1,6:1")))
    p, witness = verify_schur(part)
    assert witness is None
    sizes = part.class_sizes
    # row sums: sum_k p_{ij}^k |S_k| = |S_i| |S_j|
    for i in range(6):
        for j in range(6):
            assert sum(int(p[i, j, k]) * sizes[k] for k in range(6)) == (
                sizes[i] * sizes[j]
            )
    # symmetry in i, j (abelian group)
    assert np.array_equal(p, p.transpose(1, 0, 2))


def test_non_rds_input_rejected():
    ring = GR4(GF2n(4))
    D = build_df(ring, SparsePoly.parse(ring.field, "3:1"))  # not pseudo-planar
    with pytest.raises(SchemeError, match="not a relative difference set"):
        build_partition(D)


@pytest.mark.parametrize("n, literal", [(3, "0:1"), (4, "0:3,5:1"), (5, "0:1f,2:1")])
def test_partition_needs_f_of_0_to_be_0(n, literal):
    ring = GR4(GF2n(n))
    D = build_df(ring, SparsePoly.parse(ring.field, literal))
    # a constant term keeps D_f a relative difference set without 0
    assert verify_rds(D)[0] and D.counts[0] == 0
    with pytest.raises(ValueError, match=r"D must contain 0.*f\(0\) = 0") as exc:
        build_partition(D)
    assert not isinstance(exc.value, SchemeError)


def test_non_rds_input_with_a_constant_term_keeps_its_message():
    ring = GR4(GF2n(4))
    D = build_df(ring, SparsePoly.parse(ring.field, "0:1,3:1"))
    with pytest.raises(SchemeError, match="not a relative difference set"):
        build_partition(D)


def _split_s4_partition():
    """A partition that covers the ring but is not a scheme: S_4 split in two."""
    ring = GR4(GF2n(3))
    part = build_partition(build_df(ring, SparsePoly.parse(ring.field, "0:0")))
    sup = part.classes[4].support()
    labels = part.labels.copy()
    labels[sup[len(sup) // 2:]] = 5
    return Partition6(ring, labels)


def test_partition_classes_must_be_disjoint_and_cover_the_ring(monkeypatch):
    # labels cover the ring by construction; S_0..S_3 are written over each
    # other, so one that meets another comes out short.  The RDS check
    # rules that out (g - (-g) = 2g lies in Z), so a D holding g and -g is
    # let past it here.
    ring = GR4(GF2n(3))
    D = build_df(ring, SparsePoly.zero(ring.field))
    zero, g, d = (int(e) for e in D.support()[:3])
    assert zero == 0
    counts = D.counts.copy()
    counts[d] = 0
    counts[ring.neg_idx(g)] = 1
    monkeypatch.setattr(scheme, "verify_rds", lambda D: (True, []))
    with pytest.raises(SchemeError, match="^partition classes are not disjoint$"):
        build_partition(GroupVec(ring, counts))


def test_verify_schur_witness_on_broken_partition():
    broken = _split_s4_partition()
    p, witness = verify_schur(broken)
    assert p is None
    i, j, k, g, g2 = witness
    assert g != g2
    # the witness really exhibits unequal multiplicities
    conv = broken.classes[i].convolve(broken.classes[j])
    assert int(conv.counts[g]) != int(conv.counts[g2])


def test_build_report_keeps_the_dual_error_of_a_fused_scheme(monkeypatch):
    # the symmetric fusion {S_1 + S_2, S_4 + S_5} is still a scheme, but its
    # class sums do not single out the dual classes: the convolution check
    # passes, and the dual-partition error stands
    ring = GR4(GF2n(3))
    part = build_partition(build_df(ring, SparsePoly.zero(ring.field)))
    labels = part.labels.copy()
    labels[labels == 2] = 1
    labels[labels == 5] = 4
    fused = Partition6(ring, labels)
    _, witness = verify_schur(fused)
    assert witness is None
    # the dual labels of the fused S_1, through the X = chi(S_0 + S_1) that
    # makes chi(S_1) = X - 1
    X_fused = (fused.classes[0] + fused.classes[1]).char_transform()
    with pytest.raises(SchemeError) as dual_error:
        dual_partition(X_fused)
    true_dual = dual_partition
    monkeypatch.setattr(scheme, "build_partition", lambda D: fused)
    monkeypatch.setattr(scheme, "dual_partition", lambda X: true_dual(X_fused))
    with pytest.raises(SchemeError) as exc:
        build_report(build_df(ring, SparsePoly.zero(ring.field)))
    assert str(exc.value) == str(dual_error.value)


def _count_transforms(monkeypatch) -> dict:
    """Count convolutions, forward and inverse transforms and RDS checks of
    a chi(D) from now on."""
    calls = {"convolve": 0, "transform": 0, "rds_check": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(GroupVec, "convolve", counted(GroupVec.convolve, "convolve"))
    monkeypatch.setattr(
        GroupVec, "char_transform", counted(GroupVec.char_transform, "transform")
    )
    monkeypatch.setattr(
        SpectrumVec,
        "inverse_transform",
        counted(SpectrumVec.inverse_transform, "transform"),
    )
    monkeypatch.setattr(groupring, "_rds_check", counted(_rds_check, "rds_check"))
    return calls


def test_build_report_transforms_a_few_times_and_never_convolves(monkeypatch):
    calls = _count_transforms(monkeypatch)
    build_df.cache_clear()  # a fresh D, with no transform stored on it
    rep = _report(5)
    assert rep.matches_closed_forms()
    assert calls["convolve"] == 0
    # chi(D) alone: D^2 is counted pair by pair, chi(S_4) derived from chi(D)
    assert calls["transform"] == 1
    # one int8 label per element, and no class vectors built
    assert rep.partition.labels.dtype == np.int8
    assert "classes" not in vars(rep.partition)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rds_report_and_spectrum_of_one_f_share_one_transform(monkeypatch, n):
    build_df.cache_clear()
    calls = _count_transforms(monkeypatch)
    ring = GR4(GF2n(n))
    D = build_df(ring, _pp_poly(ring.field))
    assert verify_rds(D) == (True, [])
    rep = build_report(D)
    # an equal (ring, f) built afresh finds the same D_f and its chi(D_f)
    spectrum = fourier_spectrum(GR4(GF2n(n)), _pp_poly(GF2n(n)))
    assert calls == {"convolve": 0, "transform": 1, "rds_check": 1}
    assert rep.matches_closed_forms()
    assert spectrum == spectrum_closed_form(n)


@pytest.mark.parametrize("n, literal", [(3, "3:1"), (4, "3:1"), (6, "5:1,20:1")])
def test_a_failed_report_leaves_the_rds_violations_as_they_were(n, literal):
    ring = GR4(GF2n(n))
    rng = np.random.default_rng(n)
    for D in (
        build_df(ring, SparsePoly.parse(ring.field, literal)),
        GroupVec(ring, rng.integers(0, 2, ring.size)),
    ):
        before = verify_rds(D)
        assert not before[0] and before[1]
        # every caller gets its own copy of the stored violations
        verify_rds(D)[1].clear()
        with pytest.raises(SchemeError, match="not a relative difference set"):
            build_report(D)
        assert verify_rds(D) == before == _rds_check(D.char_transform())


@pytest.mark.parametrize("n", range(1, 9))
def test_class_and_dual_sizes_equal_the_bincount_of_the_labels(n):
    ring = GR4(GF2n(n))
    rep = build_report(build_df(ring, SparsePoly.zero(ring.field)))
    part, dual = rep.partition, rep.dual
    for sizes, labels in ((part.class_sizes, part.labels), (dual.sizes, dual.labels)):
        assert list(sizes) == np.bincount(labels.astype(np.intp), minlength=6).tolist()
    # the empty slots of the small schemes
    assert (0 in part.class_sizes) == (n <= 2)


def _slot_sizes(rep):
    """The class sizes k of P's columns and the dual sizes m of its rows."""
    k = [rep.partition.class_sizes[i] for i in rep.col_slots]
    m = [rep.dual.sizes[j] for j in rep.row_slots]
    return k, m


def _assert_algebra_equals_the_gauss_oracles(rep):
    k, m = _slot_sizes(rep)
    want = intersection_numbers_gauss(rep.P, k, m, rep.col_slots)
    assert np.array_equal(rep.p_tensor, want)
    size = rep.partition.ring.size
    assert _check_pq(rep.P, rep.Q, size) and check_pq_gauss(rep.P, rep.Q, size)


@pytest.mark.parametrize("n", [3, 4])
def test_intersection_numbers_refuse_a_non_integer_value(n):
    rep = _report(n)
    P = [list(row) for row in rep.P]
    P[2][1] = P[2][1] + GaussInt(1)
    with pytest.raises(SchemeError, match="not a non-negative integer"):
        _intersection_numbers(P, *_slot_sizes(rep), rep.col_slots)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_spectrum_matches_closed_form(n):
    ring = GR4(GF2n(n))
    rows = fourier_spectrum(ring, _pp_poly(ring.field))
    assert rows == spectrum_closed_form(n)
    total = sum(f for _, f in rows)
    assert total == ring.size


def test_spectrum_rejects_non_pp_with_witness():
    ring = GR4(GF2n(6))
    f = SparsePoly.parse(ring.field, "5:1,20:1")
    with pytest.raises(SchemeError, match="witness eps = 0x3"):
        fourier_spectrum(ring, f)
    rows = raw_spectrum(ring, f)
    assert sum(fr for _, fr in rows) == ring.size


@pytest.mark.parametrize(
    "n, literal",
    [
        (3, "3:1"), (4, "3:1"), (4, "7:1,9:3"), (5, "3:1,5:1"), (6, "5:1,20:1"),
        (8, "7:1,0:9"), (1, "0:1"), (2, "0:0"), (7, "0:3,16:1"), (9, "0:0"),
    ],
)
def test_raw_spectrum_counts_match_stacked_unique(n, literal):
    ring = GR4(GF2n(n))
    f = SparsePoly.parse(ring.field, literal)
    sp = build_df(ring, f).char_transform()
    pairs, freq = np.unique(
        np.stack([sp.re, sp.im], axis=1), axis=0, return_counts=True
    )
    want = [(GaussInt(int(r), int(m)), int(c)) for (r, m), c in zip(pairs, freq)]
    rows = raw_spectrum(ring, f)
    assert rows == sorted(want, key=lambda vf: vf[0].sort_key())
    pp = is_pseudoplanar(f)
    assert (len(rows) > 6) == (not pp)
    # values inside and outside raw_spectrum's table of |re|, |im| <= B
    B = 1 << (n // 2)
    far = [v for v, _ in rows if max(abs(v.re), abs(v.im)) > B]
    assert far and len(far) < len(rows)
    assert (len(far) > 1) == (not pp)


def test_spectrum_csv_format():
    rows = spectrum_closed_form(3)
    text = spectrum_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "value_re,value_im,frequency"
    assert len(lines) == 1 + len(rows)
    got = [tuple(int(v) for v in ln.split(",")) for ln in lines[1:]]
    assert got == [(v.re, v.im, f) for v, f in rows]


def test_degenerate_n1_three_classes():
    rep = _report(1, "0:0")
    assert rep.class_count == 3
    assert rep.col_slots == [0, 1, 2, 3]
    assert rep.row_slots == [0, 1, 2, 3]
    assert rep.matches_closed_forms()
    assert _check_pq(rep.P, rep.Q, rep.partition.ring.size)


@pytest.mark.parametrize("n, count", [(1, 2), (2, 16)])
def test_every_small_pseudoplanar_f_gives_a_square_p(n, count):
    # build_report has no path for a P that is not square.  For n >= 3 the
    # class sizes and dual_partition fix six classes and six dual classes;
    # for n <= 2 every f of degree < 2^n with f(0) = 0 is tried here.
    ring = GR4(GF2n(n))
    fld = ring.field
    exps = range(1, fld.order)
    found = 0
    for coeffs in itertools.product(range(fld.order), repeat=len(exps)):
        f = SparsePoly.make(fld, zip(exps, coeffs))
        if not is_pseudoplanar(f):
            continue
        found += 1
        rep = build_report(build_df(ring, f))
        assert len(rep.row_slots) == len(rep.col_slots)
        assert rep.matches_closed_forms()
        p, witness = verify_schur(rep.partition)
        assert witness is None and np.array_equal(rep.p_tensor, p)
        _assert_algebra_equals_the_gauss_oracles(rep)
    assert found == count


def test_degenerate_n2_four_classes():
    rep = _report(2, "0:0")
    assert rep.class_count == 4
    assert rep.col_slots == [0, 1, 2, 3, 5]
    assert rep.row_slots == [0, 1, 2, 4, 5]
    assert rep.matches_closed_forms()
    assert _check_pq(rep.P, rep.Q, rep.partition.ring.size)


def test_bm_fuse_identity_and_symmetrization():
    P = closed_form_P(3)
    # identity fusion returns P itself
    fused, rows = bm_fuse(P, [[0], [1], [2], [3], [4], [5]])
    assert fused == [list(r) for r in P]
    assert rows == [[0], [1], [2], [3], [4], [5]]
    # symmetrizing fusion: pair each class with its negative
    fused, rows = bm_fuse(P, [[0], [1, 2], [3], [4, 5]])
    assert rows == [[0], [1], [2, 3], [4, 5]]
    for row in fused:
        for v in row:
            assert v.im == 0  # the fused scheme is symmetric
    # total fusion to the trivial 1-class scheme
    fused, rows = bm_fuse(P, [[0], [1, 2, 3, 4, 5]])
    assert rows == [[0], [1, 2, 3, 4, 5]]
    assert fused == [[GaussInt(1), GaussInt(63)], [GaussInt(1), GaussInt(-1)]]


def test_bm_fuse_refusals():
    P = closed_form_P(3)
    # a column partition of the wrong shape is bad input, not a refusal
    with pytest.raises(ValueError, match="column cell 0") as exc:
        bm_fuse(P, [[0, 1], [2], [3], [4], [5]])
    assert not isinstance(exc.value, FusionError)
    with pytest.raises(
        ValueError, match=r"partition the columns 0\.\.5 of P \(6 columns\)"
    ) as exc:
        bm_fuse(P, [[0], [1], [2], [3], [4]])
    assert not isinstance(exc.value, FusionError)
    # splitting only the conjugate pair S_2/S_3 leaves too many row signatures
    with pytest.raises(FusionError, match="distinct row signatures"):
        bm_fuse(P, [[0], [1], [2, 3], [4], [5]])


def test_report_json_schema():
    rep = _report(3)
    data = json.loads(rep.to_json())
    assert data["schema_version"] == 1
    assert data["n"] == 3
    assert data["class_count"] == 5
    assert data["pq_identity"] is True
    assert data["matches_closed_forms"] is True
    assert data["class_sizes"] == rep.partition.class_sizes
    # sparse p-tensor rebuilds the dense tensor
    dense = np.zeros((6, 6, 6), dtype=np.int64)
    for i, j, k, v in data["p_tensor"]:
        dense[i, j, k] = v
    assert np.array_equal(dense, rep.p_tensor)
    assert data["P"][0][1] == [rep.P[0][1].re, rep.P[0][1].im]


def test_modulus_independence():
    # same scheme data under a different irreducible modulus for n = 3
    alt = GF2n(3, 0xD)
    ring = GR4(alt)
    rep = build_report(build_df(ring, SparsePoly.parse(alt, "3:1,6:1")))
    assert rep.matches_closed_forms()
    assert rep.dual.sizes == (1, 7, 21, 21, 7, 7)
    assert fourier_spectrum(ring, SparsePoly.parse(alt, "0:0")) == (
        spectrum_closed_form(3)
    )


def test_eigen_pipeline_pieces_agree_with_report():
    ring = GR4(GF2n(4))
    D = build_df(ring, SparsePoly.parse(ring.field, "5:1"))
    X = D.char_transform()
    part = build_partition(D)
    dual = dual_partition(X)
    P, row_slots, col_slots = eigen_P(part, dual, X)
    Q = eigen_Q(
        P,
        [part.class_sizes[i] for i in col_slots],
        [dual.sizes[j] for j in row_slots],
    )
    rep = build_report(build_df(ring, SparsePoly.parse(ring.field, "5:1")))
    assert P == rep.P and Q == rep.Q
    assert row_slots == rep.row_slots and col_slots == rep.col_slots
    # P row 0 is the valencies, column 0 all ones
    assert P[0] == [GaussInt(s) for s in part.class_sizes]
    assert all(row[0] == GaussInt(1) for row in P)


def _zero_scheme_n3():
    ring = GR4(GF2n(3))
    D = build_df(ring, SparsePoly.zero(ring.field))
    X = D.char_transform()
    return build_partition(D), dual_partition(X), X


def _constant_P(re, im, dual, col_slots):
    """The first eigenmatrix read off full class spectra (re, im), as
    class_spectra returns them, after checking that every row is constant
    on every dual class: the oracle for eigen_P, which reads P off chi(D)
    at one member per dual class.  Non-constant values raise SchemeError,
    naming the least such (j, i)."""
    labels = dual.labels
    # the least member of each dual class
    member = np.array([np.argmax(labels == j) for j in range(6)])
    # each spectrum row against its value at the member, gathered through
    # the labels (as intp once, the index type a gather needs)
    lab = labels.astype(np.intp)
    bad = []
    for i in col_slots:
        off = re[i] != re[i, member][lab]
        off |= im[i] != im[i, member][lab]
        if off.any():
            bad.append((int(labels[off].min()), i))
    if bad:
        j, i = min(bad)
        raise SchemeError(f"chi(S_{i}) is not constant on dual class {j}")
    return [
        [GaussInt(int(re[i][member[j]]), int(im[i][member[j]])) for i in col_slots]
        for j in dual.nonempty_slots()
    ]


def _with_x(X, at, re=None, im=None):
    """X with the values at character at replaced."""
    xr, xi = X.re.copy(), X.im.copy()
    if re is not None:
        xr[at] = re
    if im is not None:
        xi[at] = im
    return SpectrumVec(X.ring, xr, xi)


def test_eigen_p_names_the_least_non_constant_dual_class():
    # the constancy check of the class-spectra oracle
    part, dual, _ = _zero_scheme_n3()
    re, im = class_spectra(part)
    cols = part.nonempty_slots()
    # n = 3, f = 0: character 9 lies in E_5 and character 8 in E_4
    assert dual.labels[9] == 5 and dual.labels[8] == 4
    labels = dual.labels.copy()
    labels[9] = 2
    moved = DualPartition(dual.ring, labels, dual.sizes)
    with pytest.raises(SchemeError) as exc:
        _constant_P(re, im, moved, cols)
    assert str(exc.value) == "chi(S_1) is not constant on dual class 2"
    # S_5 breaks on E_2 and S_4 on E_3: the lesser dual class is named,
    # though its class comes later
    assert dual.labels[11] == 2 and dual.labels[10] == 3
    re[5, 11] += 1
    re[4, 10] += 1
    with pytest.raises(SchemeError) as exc:
        _constant_P(re, im, dual, cols)
    assert str(exc.value) == "chi(S_5) is not constant on dual class 2"


def test_dual_partition_names_the_first_unexpected_class_sum():
    _, _, X = _zero_scheme_n3()
    # chi_13(S_1) = X_13 - 1 = 1+2i at n = 3; one more matches no dual slot
    assert X.value(13) == GaussInt(2, 2)
    bad = _with_x(_with_x(X, 13, re=3), 40, re=int(X.re[40]) + 1)
    with pytest.raises(SchemeError) as exc:
        dual_partition(bad)
    assert str(exc.value) == "character 13 has unexpected class sum chi(S1) = 2+2i"


def test_report_json_q_decodes_exactly_with_mixed_denominators():
    from fractions import Fraction

    rep = _report(3)
    Q = [list(row) for row in rep.Q]
    Q[2][3] = GaussRat(Fraction(-1, 2), Fraction(1))
    Q[4][5] = GaussRat(Fraction(2, 3), Fraction(-5, 4))
    data = json.loads(dataclasses.replace(rep, Q=Q).to_json())
    decoded = [
        [GaussRat(Fraction(re, den), Fraction(im, den)) for re, im, den in row]
        for row in data["Q"]
    ]
    assert decoded == Q
    assert data["Q"][2][3] == [-1, 2, 2]
    assert data["pq_identity"] is False


def test_check_pq_rejects_a_perturbed_q():
    rep = _report(4)
    assert _check_pq(rep.P, rep.Q, rep.partition.ring.size)
    Q = [list(row) for row in rep.Q]
    Q[3][2] = Q[3][2] + GaussRat(Fraction(0), Fraction(1, 7))
    assert not _check_pq(rep.P, Q, rep.partition.ring.size)
    assert not check_pq_gauss(rep.P, Q, rep.partition.ring.size)


def _pp_polys(fld):
    """f = 0, a linear term and, for n = 3m, the pseudo-planar shifted
    binomial: pseudo-planar functions with f(0) = 0."""
    n = fld.n
    polys = [
        SparsePoly.zero(fld),
        SparsePoly.monomial(fld, fld.order - 1, 1 << (n // 2)),
    ]
    if n % 3 == 0:
        m = n // 3
        polys.append(construct_shifted_binomial(fld, m, 2 if m % 3 == 1 else 3))
    return polys


@pytest.mark.parametrize("n", range(1, 10))
def test_derived_s4_spectrum_equals_its_transform(n):
    ring = GR4(GF2n(n))
    for f in _pp_polys(ring.field):
        D = build_df(ring, f)
        X = D.char_transform()
        part = build_partition(D)
        dual = dual_partition(X)
        P, row_slots, col_slots = eigen_P(part, dual, X)
        assert (part.class_sizes[4] > 0) == (n >= 3)
        if 4 not in col_slots:
            continue
        sp = part.classes[4].char_transform()
        column = col_slots.index(4)
        for row, j in zip(P, row_slots):
            g = int(np.argmax(dual.labels == j))
            assert row[column] == sp.value(g)


def _oracle_polys(fld):
    polys = _pp_polys(fld)
    if fld.n == 6:
        polys += [SparsePoly.parse(fld, "5:2,17:27"), SparsePoly.parse(fld, "10:1,34:1")]
    return polys


@pytest.mark.parametrize("n", range(1, 9))
def test_p_from_chi_d_equals_the_class_spectra_oracle(n):
    ring = GR4(GF2n(n))
    for f in _oracle_polys(ring.field):
        D = build_df(ring, f)
        X = D.char_transform()
        part = build_partition(D)
        dual = dual_partition(X)
        P, row_slots, col_slots = eigen_P(part, dual, X)
        re, im = class_spectra(part)
        assert row_slots == dual.nonempty_slots()
        assert col_slots == part.nonempty_slots()
        assert P == _constant_P(re, im, dual, col_slots)


def _pair_sums_by_class(D, part):
    """(sums, classes): the true GR4.pair_sums table of D, and the class of
    the element at each entry."""
    sums = D.ring.pair_sums(D.support())
    return sums, part.labels[sums]


def _pairs_in(classes, k, count):
    """The first count unordered pairs (i < j) whose sum lies in S_k."""
    i, j = np.nonzero(np.triu(classes == k, 1))
    return list(zip(i.tolist(), j.tolist()))[:count]


def _move_pair_sums(monkeypatch, D, moves):
    """GR4.pair_sums reads each unordered pair (i, j) of moves, rows and
    columns in the order of D.support(), as summing to element g, on both
    sides of the diagonal; a pair (i, i) moves the double of row i.  The
    rows and columns of a two-argument call, such as one block of
    build_partition's walk, are mapped back to their positions in
    D.support()."""
    true_sums = GR4.pair_sums
    sup = D.support()

    def perturbed(self, A, B=None):
        sums = true_sums(self, A, B)
        rows = np.searchsorted(sup, A)
        cols = rows if B is None else np.searchsorted(sup, B)
        for (i, j), g in moves:
            for p, q in ((i, j), (j, i)):
                sums[np.ix_(rows == p, cols == q)] = g
        return sums

    monkeypatch.setattr(GR4, "pair_sums", perturbed)


def _square_error(ring, g, got, want):
    a = (1, 2, 2 * (ring.n % 2 == 0), 1, 2, 0)
    return (
        f"D^2 is not sum_k a_k S_k with a = {a}: element {g} has "
        f"multiplicity {got}, expected {want}"
    )


def _zero_partition(n):
    ring = GR4(GF2n(n))
    D = build_df(ring, SparsePoly.zero(ring.field))
    part = build_partition(D)
    sums, classes = _pair_sums_by_class(D, part)
    return ring, D, part, sums, classes


def test_a_d_squared_off_the_class_combination_is_refused(monkeypatch):
    ring, D, part, sums, classes = _zero_partition(5)
    s5 = part.classes[5].support()
    p, q, r = _pairs_in(classes, 4, 3)
    s1_pair = _pairs_in(classes, 1, 1)[0]
    collided = int(sums[q])
    unmarked = int(sums[s1_pair])
    _move_pair_sums(monkeypatch, D, [
        (p, int(s5[3])),  # moves an element from S_5 to S_4: no error
        (r, collided),  # two pairs with one sum: D^2 = 4 there
        (s1_pair, int(s5[7])),  # an S_1 element with D^2 = 0
    ])
    g, got, want = min((collided, 4, 2), (unmarked, 0, 2))
    with pytest.raises(SchemeError) as exc:
        build_partition(D)
    assert str(exc.value) == _square_error(ring, g, got, want)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize(
    "case", ["collision", "into Z", "unmarked S_1", "marked S_2", "double twice"]
)
def test_each_pair_sum_fault_is_named(monkeypatch, n, case):
    ring, D, part, sums, classes = _zero_partition(n)
    p, q = _pairs_in(classes, 4, 2)
    if case == "collision":
        g = int(sums[q])
        moves, got, want = [(p, g)], 4, 2
    elif case == "into Z":
        g = (1 << n) - 1  # a nonzero 2-torsion element, in S_3
        moves, got, want = [(p, g)], 3, 1
    elif case == "double twice":
        # rows 1 and 2 have one double: D^2 is 2 at it, 0 at row 1's
        once, twice = (int(sums[i, i]) for i in (1, 2))
        moves = [((1, 1), twice)]
        g, got, want = min((once, 0, 1), (twice, 2, 1))
    elif case == "unmarked S_1":
        pair = _pairs_in(classes, 1, 1)[0]
        g = int(sums[pair])
        moves, got, want = [(pair, int(part.classes[5].support()[0]))], 0, 2
    else:
        g = int(part.classes[2].support()[0])
        if n % 2 == 0:
            # every S_2 element is a pair sum at even n: move one away
            pair = next(
                pair for pair in _pairs_in(classes, 2, ring.size)
                if sums[pair] == g
            )
            moves, got, want = [(pair, int(part.classes[5].support()[0]))], 0, 2
        else:
            moves, got, want = [(p, g)], 2, 0
    _move_pair_sums(monkeypatch, D, moves)
    with pytest.raises(SchemeError) as exc:
        build_partition(D)
    assert str(exc.value) == _square_error(ring, g, got, want)


def _partition_outcome(build, D):
    """The labels build(D) gives, or the type and text of what it raises."""
    try:
        return build(D).labels.tolist()
    except ValueError as exc:
        return type(exc), str(exc)


def _pp_sample(fld, rng, count):
    """count seeded pseudo-planar f on fld: known-family monomials and, for
    n = 3m, the shifted binomials, some with a linear term c x^(2^k) added,
    some with a constant term, some with both."""
    n = fld.n
    bases = [
        SparsePoly.monomial(fld, a, t) for a, t in sorted(known_family_hits(fld))
    ]
    if n % 3 == 0:
        m = n // 3
        # variant 2 fails when m = 2 mod 3, variant 3 when m = 1 mod 3
        bases += [
            construct_shifted_binomial(fld, m, v)
            for v, bad in ((2, 2), (3, 1))
            if m % 3 != bad
        ]
    out = [SparsePoly.zero(fld)]
    for _ in range(count):
        f = rng.choice(bases)
        terms = list(f.terms)
        if rng.random() < 0.5:
            terms.append((1 << rng.randrange(n), rng.randrange(1, fld.order)))
        if rng.random() < 0.3:
            terms.append((0, rng.randrange(1, fld.order)))
        out.append(SparsePoly.make(fld, terms))
    return out


@pytest.mark.parametrize("n", range(1, 8))
def test_pair_sum_check_agrees_with_the_counted_square(n):
    ring = GR4(GF2n(n))
    rng = random.Random(20 + n)
    sample = _pp_sample(ring.field, rng, 12)
    assert any(f.eval(0) for f in sample) and any(len(f.terms) > 1 for f in sample)
    for f in sample:
        assert is_pseudoplanar(f)
        D = build_df(ring, f)
        assert _partition_outcome(build_partition, D) == _partition_outcome(
            partition_by_counted_square, D
        )


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_perturbed_pair_sums_give_the_counted_verdict(monkeypatch, n):
    # both paths read the same moved pair sums from GR4.pair_sums: the
    # oracle counts them through square_of_set, build_partition marks them
    ring, D, part, sums, classes = _zero_partition(n)
    rng = random.Random(n)
    k = len(D.support())
    refused = 0
    for _ in range(30):
        moves = []
        for _ in range(rng.randrange(1, 4)):
            i, j = sorted(rng.sample(range(k), 2))
            if rng.random() < 0.2:
                j = i  # a double
            moves.append(((i, j), rng.randrange(ring.size)))
        with monkeypatch.context() as mp:
            _move_pair_sums(mp, D, moves)
            got = _partition_outcome(build_partition, D)
            assert got == _partition_outcome(partition_by_counted_square, D)
        refused += isinstance(got, tuple)
    assert 0 < refused < 30


def test_build_partition_memory_n9():
    # no 4^n int64 temporaries: the pair sums are uint32 and the marks bool
    ring = GR4(GF2n(9))
    D = build_df(ring, SparsePoly.zero(ring.field))
    assert verify_rds(D)[0]  # the transform is made and kept before tracing
    D.support()
    tracemalloc.start()
    try:
        build_partition(D)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 * ring.size


@pytest.mark.parametrize("n", range(1, 9))
def test_blocked_pair_sum_marks_equal_the_table_oracle(monkeypatch, n):
    # the blocked walk against the whole table, on D_f of pseudo-planar f
    # (f(0) = 0 and f(0) != 0) and on planted faults, with the default
    # blocks and with blocks of one row and of three rows
    ring = GR4(GF2n(n))
    rng = random.Random(40 + n)
    t = 1 << n
    sample = _pp_sample(ring.field, rng, 4)
    sample.append(SparsePoly.make(ring.field, [*sample[-1].terms, (0, 1)]))
    assert any(f.eval(0) for f in sample) and not sample[0].eval(0)
    faults = [[]]  # moves of pairs (i <= j) to random elements
    for _ in range(6):
        pairs = [sorted(rng.choices(range(t), k=2)) for _ in range(rng.randrange(1, 4))]
        faults.append([(tuple(p), rng.randrange(ring.size)) for p in pairs])
    for block in (scheme._BLOCK, t, 3 * t):
        monkeypatch.setattr(scheme, "_BLOCK", block)
        for f in sample:
            D = build_df(ring, f)
            in_d = D.support()
            for moves in faults if f is sample[0] else [[]]:
                with monkeypatch.context() as mp:
                    _move_pair_sums(mp, D, moves)
                    labels, ok = scheme._pair_sum_marks(ring, in_d)
                    want, want_ok = pair_sum_marks_from_table(
                        ring, in_d, ring.pair_sums(in_d)
                    )
                assert np.array_equal(labels, want) and ok == want_ok
                if not moves:
                    assert ok == (not f.eval(0))


def test_build_partition_memory_n10():
    # the pairs are walked block by block: no table of them, only the
    # int8 labels and one bool temporary of 4^n entries
    ring = GR4(GF2n(10))
    D = build_df(ring, SparsePoly.zero(ring.field))
    assert verify_rds(D)[0]  # the transform and verdict are kept on D
    D.support()
    tracemalloc.start()
    try:
        build_partition(D)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * ring.size


@pytest.mark.parametrize("literal", ["0:0", "3:1,5:1"])
def test_window_keys_widen_past_int16(monkeypatch, literal):
    ring = GR4(GF2n(6))
    X = build_df(ring, SparsePoly.parse(ring.field, literal)).char_transform()
    assert X.re.dtype == np.int16 and scheme._window_keys(X).dtype == np.int16

    def wide_keys(B):
        W = 2 * B + 3
        re, im = (
            np.clip(v.astype(np.int64), -(B + 1), B + 1) + B + 1 for v in (X.re, X.im)
        )
        return re * W + im

    # W = 203 and W^2 > 2^15, as for n >= 14 with W = 259
    monkeypatch.setattr(scheme, "_window", lambda n: (100, 203))
    key = scheme._window_keys(X)
    assert key.dtype == np.int32 and key.max() > np.iinfo(np.int16).max
    assert np.array_equal(key, wide_keys(100))


def _spectrum_by_unique(ring, f):
    """The distinct values of chi(D_f), with frequencies, sorted as
    raw_spectrum sorts them: one np.unique over all of them."""
    sp = build_df(ring, f).char_transform()
    pairs, freq = np.unique(np.stack([sp.re, sp.im], axis=1), axis=0, return_counts=True)
    rows = [(GaussInt(int(r), int(m)), int(c)) for (r, m), c in zip(pairs, freq)]
    return sorted(rows, key=lambda vf: vf[0].sort_key())


@pytest.mark.parametrize("n", range(1, 9))
def test_raw_spectrum_scans_only_for_more_than_one_far_value(monkeypatch, n):
    ring = GR4(GF2n(n))
    fld = ring.field
    rng = random.Random(60 + n)
    B = 1 << (n // 2)
    scans = []
    true_far = scheme._far_values
    monkeypatch.setattr(scheme, "_far_values", lambda sp, b: scans.append(b) or true_far(sp, b))
    pp = _pp_sample(fld, rng, 6)
    pp.append(SparsePoly.make(fld, [*pp[0].terms, (0, 1)]))
    others = [
        SparsePoly.make(fld, [(rng.randrange(fld.order), rng.randrange(1, fld.order))
                              for _ in range(3)])
        for _ in range(8)
    ]
    others = [f for f in others if not is_pseudoplanar(f)]
    assert (len(others) > 0) == (n >= 2)
    many_far = 0
    for f in pp + others:
        scans.clear()
        want = _spectrum_by_unique(ring, f)
        assert raw_spectrum(ring, f) == want
        far = sum(c for v, c in want if max(abs(v.re), abs(v.im)) > B)
        assert (far, scans) == (1, []) if f in pp else bool(scans) == (far > 1)
        many_far += far > 1
    # at n = 2 the non-pseudo-planar f have chi_0 as their one far value
    assert any(f.eval(0) for f in pp) and (many_far > 0) == (n >= 3)


def test_one_window_pass_serves_the_dual_classes_and_the_spectrum(monkeypatch):
    ring = GR4(GF2n(6))
    f = construct_shifted_binomial(ring.field, 2, 3)
    calls = []
    true_keys = scheme._window_keys
    monkeypatch.setattr(scheme, "_window_keys", lambda X: calls.append(X) or true_keys(X))
    D = build_df(ring, f)
    assert verify_rds(D)[0]
    build_report(D)
    rows = fourier_spectrum(ring, f)
    assert len(calls) == 1 and calls[0] is groupring._spectrum(D)
    assert rows == spectrum_closed_form(6)
    # the kept table is the count of the stored transform's keys
    W = 2 * (1 << 3) + 3
    X = calls[0]
    assert X._window.shape == (W, W)
    assert np.array_equal(X._window.ravel(), np.bincount(true_keys(X), minlength=W * W))
    # without build_report, raw_spectrum counts the keys itself
    g = SparsePoly.parse(ring.field, "5:1,20:1")
    assert raw_spectrum(ring, g) == raw_spectrum(ring, g)
    assert len(calls) == 2


@pytest.mark.parametrize("n", range(1, 9))
def test_dual_sizes_are_the_label_counts(n):
    ring = GR4(GF2n(n))
    for f in _pp_polys(ring.field):
        X = build_df(ring, f).char_transform()
        dual = dual_partition(X)
        assert dual.sizes == tuple(int(np.count_nonzero(dual.labels == k)) for k in range(6))
        # character 0 is E_0 also where its value is a slot value
        moved = dual_partition(_with_x(X, 0, re=int(X.re[1]), im=int(X.im[1])))
        assert moved.sizes == dual.sizes
        assert np.array_equal(moved.labels, dual.labels)


def test_least_members_equal_the_first_match():
    rng = np.random.default_rng(3)
    for size, late in ((16, 15), (64, 40), (1024, 1000), (4096, 700)):
        labels = rng.integers(1, 4, size=size).astype(np.int8)
        labels[0] = 0
        labels[late] = 5  # found only in a later prefix
        slots = [0, 1, 2, 3, 4, 5]  # slot 4 is missing: 0, as argmax gives
        want = [int(np.argmax(labels == j)) for j in slots]
        assert scheme._least_members(labels, slots) == want
        assert want[4] == 0 and want[5] == late


def test_an_inexact_s4_spectrum_is_refused():
    ring = GR4(GF2n(4))
    D = build_df(ring, SparsePoly.zero(ring.field))
    X = D.char_transform()
    part = build_partition(D)
    dual = dual_partition(X)
    # 22 is the least member of its dual class, E_3
    assert dual.labels[22] == 3 and int(np.argmax(dual.labels == 3)) == 22
    # X^2 moves by 2X + 1 at character 22, which is odd
    bad = _with_x(X, 22, re=int(X.re[22]) + 1)
    with pytest.raises(
        SchemeError, match=r"^chi\(S_4\) is not a Gaussian integer at character 22$"
    ):
        eigen_P(part, dual, bad)


@pytest.mark.parametrize(
    "a, re_a, im_a", [(21, -4000, 0), (30, 7000, 0), (17, None, 3)]
)
def test_dual_labels_are_int8_and_far_values_match_no_slot(a, re_a, im_a):
    _, dual, X = _zero_scheme_n3()
    assert dual.labels.dtype == np.int8
    # chi(S_1) = X - 1 far outside the lookup table, or just outside its
    # square (|im| > 2)
    bad = _with_x(X, a, re=None if re_a is None else re_a + 1, im=im_a)
    with pytest.raises(SchemeError) as exc:
        dual_partition(bad)
    chi = bad.value(a) - 1
    assert str(exc.value) == f"character {a} has unexpected class sum chi(S1) = {chi}"


def test_partition_labels_must_be_int8_of_ring_size_and_in_range():
    ring = GR4(GF2n(3))
    part = build_partition(build_df(ring, SparsePoly.zero(ring.field)))
    assert part.labels.dtype == np.int8 and not part.labels.flags.writeable
    with pytest.raises(SchemeError, match=r"int64 of shape \(64,\), expected int8"):
        Partition6(ring, part.labels.astype(np.int64))
    with pytest.raises(SchemeError, match=r"int8 of shape \(63,\), expected"):
        Partition6(ring, part.labels[:-1].copy())
    for value in (-128, -1, 6, 127):
        labels = part.labels.copy()
        labels[17] = value
        with pytest.raises(SchemeError) as exc:
            Partition6(ring, labels)
        assert str(exc.value) == f"element 17 has class label {value}, not 0..5"
    # the class vectors are built on demand from the labels
    assert "classes" not in vars(part)
    assert [S.total() for S in part.classes] == part.class_sizes
    assert part.class_sizes == [1, 7, 7, 7, 21, 21]


def test_the_gaussian_integers_of_norm_2_to_the_n_are_the_dual_slots():
    # After the RDS check X_a = 0 (a in Z, a != 0) or |X_a|^2 = 2^n (a not
    # in Z), a = 0 aside.  X = 0 is E_1's value -1 plus 1, and the values of
    # norm 2^n, the units times (1+i)^n, are E_2..E_5's plus 1: so
    # dual_partition's "unexpected class sum" cannot fire on such an X.
    units = [GaussInt(1), GaussInt(0, 1), GaussInt(-1), GaussInt(0, -1)]
    power = GaussInt(1)
    for n in range(1, 17):
        power = power * GaussInt(1, 1)
        r = 1 << (n // 2 + 1)
        norm_2n = {
            GaussInt(x, y)
            for x in range(-r, r + 1)
            for y in range(-r, r + 1)
            if x * x + y * y == 1 << n
        }
        slots = [v + 1 for v in scheme._dual_signatures(n)]
        assert norm_2n == set(slots) == {u * power for u in units}
        assert len(slots) == 4


# -- the exact 6 x 6 algebra against its GaussInt oracles ----------------------


def _closed_form_sizes(n):
    """k and m of the closed forms: row 0 of P holds the class sizes and
    row 0 of Q the dual class sizes."""
    P, Q = closed_form_P(n), closed_form_Q(n)
    return P, Q, [e.re for e in P[0]], [int(e.re) for e in Q[0]]


@pytest.mark.parametrize("n", range(3, 11))
def test_intersection_numbers_and_pq_check_equal_the_gauss_oracles(n):
    ring = GR4(GF2n(n))
    for f in _pp_polys(ring.field):
        _assert_algebra_equals_the_gauss_oracles(build_report(build_df(ring, f)))


@pytest.mark.parametrize("n", range(11, 17))
def test_closed_form_algebra_past_int64_equals_the_gauss_oracles(n):
    P, Q, k, m = _closed_form_sizes(n)
    assert sum(k) == sum(m) == 1 << (2 * n)
    slots = list(range(6))
    p = _intersection_numbers(P, k, m, slots)
    assert np.array_equal(p, intersection_numbers_gauss(P, k, m, slots))
    # the largest numerator p_ij^k |R| k_k has 6n - 3 bits: past int64 from
    # n = 12 on
    num = max(
        int(p[i, j, c]) * sum(k) * k[c]
        for i, j, c in itertools.product(slots, repeat=3)
    )
    assert num.bit_length() == 6 * n - 3
    assert p[1, 2, 0] == k[1]  # S_2 = -S_1
    assert _check_pq(P, Q, 1 << (2 * n))
    assert check_pq_gauss(P, Q, 1 << (2 * n))


def _outcome(fn, *args):
    try:
        return fn(*args).tolist()
    except SchemeError as exc:
        return str(exc)


@pytest.mark.parametrize("n", [3, 4, 11, 12])
def test_a_perturbed_p_or_q_is_refused_as_the_gauss_oracles_refuse_it(n):
    P, Q, k, m = _closed_form_sizes(n)
    slots = list(range(6))
    size = 1 << (2 * n)
    refused = 0
    for j, i in itertools.product(range(6), repeat=2):
        for step in (GaussInt(1), GaussInt(0, 1)):
            bad = [list(row) for row in P]
            bad[j][i] = bad[j][i] + step
            want = _outcome(intersection_numbers_gauss, bad, k, m, slots)
            assert _outcome(_intersection_numbers, bad, k, m, slots) == want
            refused += isinstance(want, str)
            assert not _check_pq(bad, Q, size)
            assert not check_pq_gauss(bad, Q, size)
        bad = [list(row) for row in Q]
        bad[i][j] = bad[i][j] + GaussRat(Fraction(0), Fraction(1, 7))
        assert not _check_pq(P, bad, size)
        assert not check_pq_gauss(P, bad, size)
    assert refused == 72


# -- Zhou: D_f is a relative difference set exactly when f is pseudo-planar ----


def _assert_zhou_and_witness_calls(ring, polys, monkeypatch):
    """verify_rds(D_f) reads is_pseudoplanar(f) for each f, and
    fourier_spectrum runs pseudoplanar_witness only for an f that is not
    pseudo-planar, once, and names its eps."""
    calls = []
    witness = scheme.pseudoplanar_witness

    def counted(f):
        calls.append(f)
        return witness(f)

    monkeypatch.setattr(scheme, "pseudoplanar_witness", counted)
    verdicts = []
    for f in polys:
        pp = is_pseudoplanar(f)
        verdicts.append(pp)
        assert verify_rds(build_df(ring, f))[0] == pp
        calls.clear()
        if pp:
            assert fourier_spectrum(ring, f) == raw_spectrum(ring, f)
            assert calls == []
        else:
            with pytest.raises(SchemeError) as exc:
                fourier_spectrum(ring, f)
            assert calls == [f]
            assert f"(witness eps = {witness(f):#x});" in str(exc.value)
    return verdicts


@pytest.mark.parametrize("n, count", [(1, 4), (2, 256)])
def test_every_small_d_f_is_an_rds_exactly_when_f_is_pseudoplanar(
    n, count, monkeypatch
):
    ring = GR4(GF2n(n))
    fld = ring.field
    polys = [
        SparsePoly.make(fld, enumerate(coeffs))
        for coeffs in itertools.product(range(fld.order), repeat=fld.order)
    ]
    assert len(polys) == count
    verdicts = _assert_zhou_and_witness_calls(ring, polys, monkeypatch)
    # every f on F_2 is pseudo-planar
    assert set(verdicts) == ({True} if n == 1 else {True, False})


def test_the_n6_quad_binomial_hits_are_exactly_the_rds_among_a_sample(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "data"
    ref = json.loads((path / "quad_binomial_hits.json").read_text())["6:43"]
    space = SearchSpace(GF2n(6, 0x43), "quad_binomial")
    assert space.total == ref["total"]
    hits = set(ref["hits"])
    rng = random.Random(6)
    misses = [i for i in rng.sample(range(space.total), 2 * len(hits)) if i not in hits]
    indices = sorted(hits) + misses[: len(hits)]
    polys = [space.candidate(i) for i in indices]
    verdicts = _assert_zhou_and_witness_calls(GR4(space.field), polys, monkeypatch)
    assert verdicts == [i in hits for i in indices]

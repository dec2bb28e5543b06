"""Exhaustive searches: enumeration, sharding, checkpoints, conjecture flags."""

import hashlib
import json
import math
import tracemalloc
import warnings
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from pseudoplanar import search
from pseudoplanar.cli import main
from pseudoplanar.field import GF2n
from pseudoplanar.functions import exhaustive_witness, known_hits_closure
from pseudoplanar.search import (
    CHECKPOINT_VERSION,
    CheckpointError,
    MONOMIAL_MAX_DEGREE,
    SearchResult,
    SearchSpace,
    checkpoint_resume,
    checkpoint_save,
    merge_results,
    quad_exponents,
    run_search,
    search_monomials,
    search_quad_binomials,
    _good_cosets,
    _monomial_hits,
    _orbit_hits,
    _units,
    unexpected_monomials,
)

from oracles import candidate_value_tables, split_monomial_hits, value_table_rank_hits


def test_quad_exponents():
    assert quad_exponents(3) == [3, 5, 6]
    assert quad_exponents(4) == [3, 5, 6, 9, 10, 12]
    assert len(quad_exponents(6)) == 15


def test_candidate_enumeration_is_a_bijection():
    for kind in ("monomial", "quad_binomial"):
        space = SearchSpace(GF2n(3), kind)
        seen = {space.candidate(i).literal for i in range(space.total)}
        assert len(seen) == space.total
    mono = SearchSpace(GF2n(3), "monomial")
    assert mono.total == 49
    quad = SearchSpace(GF2n(3), "quad_binomial")
    assert quad.total == 3 * 49  # 3 exponent pairs, 7*7 coefficient pairs


def test_shard_indices_partition_the_space():
    space = SearchSpace(GF2n(4), "monomial")
    K = 5
    owned = [
        list(SearchSpace(GF2n(4), "monomial", k, K).my_indices()) for k in range(K)
    ]
    flat = sorted(i for part in owned for i in part)
    assert flat == list(range(space.total))
    with pytest.raises(ValueError):
        SearchSpace(GF2n(4), "monomial", 5, 5)
    with pytest.raises(ValueError):
        SearchSpace(GF2n(4), "bogus")


def test_monomial_search_matches_known_closure():
    fld = GF2n(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any conjecture warning is a failure
        result = search_monomials(fld)
    hits = {(c, t) for f in result.hits() for t, c in f.terms}
    assert hits == known_hits_closure(fld)
    assert len(hits) == 65
    assert unexpected_monomials(fld, result) == []


def test_shard_merge_equals_unsharded():
    fld = GF2n(4)
    full = search_monomials(fld)
    K = 4
    parts = [search_monomials(fld, shard=(k, K)) for k in range(K)]
    merged = merge_results(parts)
    assert merged.hit_indices == full.hit_indices
    with pytest.raises(ValueError):
        merge_results([])
    other = search_monomials(GF2n(3))
    with pytest.raises(ValueError):
        merge_results([full, other])


def test_checkpoint_roundtrip_and_resume(tmp_path):
    fld = GF2n(4)
    space = SearchSpace(fld, "monomial")
    path = tmp_path / "ck.json"
    # interrupted run: save midway, then resume must give identical results
    full = run_search(space)
    checkpoint_save(path, space, 100, [i for i in full.hit_indices if i < 100])
    resumed = run_search(space, checkpoint_path=path)
    assert resumed.hit_indices == full.hit_indices
    # final checkpoint marks the space exhausted
    nxt, hits = checkpoint_resume(path, space)
    assert nxt == space.total
    assert hits == full.hit_indices


def test_checkpoint_corruption_and_mismatch(tmp_path):
    fld = GF2n(4)
    space = SearchSpace(fld, "monomial")
    path = tmp_path / "ck.json"
    checkpoint_save(path, space, 7, [3])
    # bit-flip the payload
    data = json.loads(path.read_text())
    data["next"] = 8
    path.write_text(json.dumps(data))
    with pytest.raises(CheckpointError, match="corrupt"):
        checkpoint_resume(path, space)
    # a valid checkpoint for a different space is refused
    checkpoint_save(path, space, 7, [3])
    with pytest.raises(CheckpointError):
        checkpoint_resume(path, SearchSpace(GF2n(3), "monomial"))
    with pytest.raises(CheckpointError):
        checkpoint_resume(path, SearchSpace(fld, "quad_binomial"))
    with pytest.raises(CheckpointError):
        checkpoint_resume(path, SearchSpace(fld, "monomial", 1, 2))


@pytest.mark.parametrize("key, value", [
    ("next", 10**9),
    ("next", -1),
    ("next", "a"),
    ("next", 7.0),
    ("next", True),
    ("hits", [1]),
    ("hits", ["x"]),
    ("hits", [10**9]),
    ("hits", [-2]),
    ("hits", [8]),
    ("hits", [4, 2]),
    ("hits", [2, 2]),
    ("hits", {"2": 2}),
    ("hits", None),
])
def test_checkpoint_out_of_range_values_are_refused(tmp_path, key, value):
    # the digest is unkeyed, so a hand-edited file can carry a valid one
    import pseudoplanar.search as search

    space = SearchSpace(GF2n(4), "monomial", 0, 2)
    path = tmp_path / "ck.json"
    checkpoint_save(path, space, 8, [2, 4])
    data = json.loads(path.read_text())
    del data["digest"]
    data[key] = value
    data["digest"] = search._digest(data)
    path.write_text(json.dumps(data))
    with pytest.raises(CheckpointError, match=key):
        checkpoint_resume(path, space)
    with pytest.raises(CheckpointError, match=key):
        run_search(space, checkpoint_path=path)


@pytest.mark.parametrize("blob", [b"", b'{"version": 1, "field": "4:13", "ki', b"\xff\xfe"],
                         ids=["empty", "truncated", "not-utf8"])
def test_torn_checkpoint_is_refused_by_name(tmp_path, blob):
    space = SearchSpace(GF2n(4), "monomial")
    path = tmp_path / "ck.json"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match=f"checkpoint {path} is not readable JSON"):
        checkpoint_resume(path, space)
    with pytest.raises(CheckpointError, match="ck.json is not readable JSON"):
        run_search(space, checkpoint_path=path)


@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "7", "null"])
def test_checkpoint_that_is_not_a_json_object_is_refused(tmp_path, text):
    path = tmp_path / "ck.json"
    path.write_text(text)
    with pytest.raises(CheckpointError, match="not a JSON object"):
        checkpoint_resume(path, SearchSpace(GF2n(4), "monomial"))


def test_checkpoint_range_check_accepts_the_bounds(tmp_path):
    space = SearchSpace(GF2n(4), "monomial", 1, 2)
    path = tmp_path / "ck.json"
    for nxt, hits in ((0, []), (space.total, [1, 3, space.total - 2])):
        checkpoint_save(path, space, nxt, hits)
        assert checkpoint_resume(path, space) == (nxt, hits)


def test_binomial_search_small_fields():
    # n = 3: the binomial x^3 + x^6 and friends exist; n = 4 and 5 are empty
    hits3 = search_quad_binomials(GF2n(3)).hits()
    assert any(f.literal == "3:1,6:1" for f in hits3)
    assert search_quad_binomials(GF2n(4)).hits() == []
    assert search_quad_binomials(GF2n(5)).hits() == []


def test_long_run_gate():
    with pytest.raises(ValueError, match="long_run"):
        search_quad_binomials(GF2n(8))
    with pytest.raises(ValueError, match=f"capped at n <= {MONOMIAL_MAX_DEGREE}"):
        run_search(SearchSpace(GF2n(MONOMIAL_MAX_DEGREE + 1), "monomial"))


def test_conjecture_flagging_fires_on_planted_hit():
    fld = GF2n(4)
    space = SearchSpace(fld, "monomial")
    # plant x^3 (index of t=3, c=1): not pseudo-planar, not in the closure
    planted = (3 - 1) * space.coeff_count + 0
    assert space.candidate(planted).literal == "3:1"
    fake = SearchResult(space, [planted])
    assert unexpected_monomials(fld, fake) == [(1, 3)]


def test_reverification_catches_bad_hits():
    fld = GF2n(4)
    space = SearchSpace(fld, "monomial")
    from pseudoplanar.search import _reverify

    bad = SearchResult(space, [(3 - 1) * space.coeff_count])  # x^3, not pp
    with pytest.raises(AssertionError, match="re-verification"):
        _reverify(bad)


def test_checkpoint_write_failure_keeps_previous_checkpoint(tmp_path, monkeypatch):
    import pseudoplanar.search as search

    space = SearchSpace(GF2n(4), "monomial")
    path = tmp_path / "ck.json"
    checkpoint_save(path, space, 7, [3])

    def torn_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write

        def torn_write(text):
            write(text[:20])
            raise OSError("disk full")

        fh.write = torn_write
        return fh

    # the write tears after 20 characters, however the payload was encoded
    monkeypatch.setattr(search, "open", torn_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        checkpoint_save(path, space, 9, [3, 8])
    monkeypatch.undo()
    assert checkpoint_resume(path, space) == (7, [3])


def test_failed_reverification_never_marks_the_space_exhausted(tmp_path, monkeypatch):
    import pseudoplanar.search as search

    def refuse(result):
        raise AssertionError("re-verification failed")

    space = SearchSpace(GF2n(3), "monomial")
    path = tmp_path / "ck.json"
    monkeypatch.setattr(search, "_reverify", refuse)
    monkeypatch.setattr(search, "CHECKPOINT_SECONDS", 0)  # a save after every unit
    with pytest.raises(AssertionError, match="re-verification"):
        run_search(space, checkpoint_path=path)
    nxt, _ = checkpoint_resume(path, space)  # the checkpoint after the last but one unit
    assert nxt == space.total - space.coeff_count


def test_exponent_pairs_computed_once_per_space():
    space = SearchSpace(GF2n(4), "quad_binomial")
    assert space.exponent_pairs is space.exponent_pairs
    assert space.exponent_pairs[:2] == [(3, 5), (3, 6)]
    assert len(space.exponent_pairs) == 15


@lru_cache(maxsize=None)
def _per_candidate_sweep(n: int, kind: str = "quad_binomial") -> list[int]:
    space = SearchSpace(GF2n(n), kind)
    return [i for i in range(space.total) if exhaustive_witness(space.candidate(i)) is None]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("shard", [(0, 1), (0, 3), (1, 3), (2, 3)], ids="{0[0]}of{0[1]}".format)
def test_batched_binomial_search_equals_per_candidate_sweep(n, shard):
    k, K = shard
    want = [i for i in _per_candidate_sweep(n) if i % K == k]
    assert search_quad_binomials(GF2n(n), shard=shard).hit_indices == want


@pytest.mark.parametrize("n", [3, 4])
def test_bulk_decoded_value_tables(n):
    space = SearchSpace(GF2n(n), "quad_binomial")
    tables = candidate_value_tables(space, range(space.total))
    want = np.stack([space.candidate(i).value_table() for i in range(space.total)])
    assert np.array_equal(tables, want)
    some = [5, 0, space.total - 1, 77]
    assert np.array_equal(candidate_value_tables(space, some), want[some])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("shard", [(0, 1), (0, 3), (1, 3), (2, 3)], ids="{0[0]}of{0[1]}".format)
def test_batched_monomial_search_equals_per_candidate_sweep(n, shard):
    k, K = shard
    want = [i for i in _per_candidate_sweep(n, "monomial") if i % K == k]
    assert search_monomials(GF2n(n), shard=shard).hit_indices == want


@pytest.mark.parametrize("cut", [1, 5, 7, 16])
def test_monomial_intervals_cut_exponent_runs(tmp_path, monkeypatch, cut):
    # a checkpoint taken after `cut` owned indices, as a search that saved
    # every `cut` owned indices wrote it, has next inside an exponent run of
    # 15 coefficients: the resumed run starts with the rest of that run
    import pseudoplanar.search as search

    space = SearchSpace(GF2n(4), "monomial", 1, 3)
    want = [i for i in _per_candidate_sweep(4, "monomial") if i % 3 == 1]
    owned = space.my_indices()
    nxt = owned[cut - 1] + 1
    assert nxt % space.coeff_count
    path = tmp_path / "ck.json"
    checkpoint_save(path, space, nxt, [i for i in want if i < nxt])
    units = []

    def spy(space, run):
        units.append(run)
        return _monomial_hits(space, run)

    monkeypatch.setattr(search, "_monomial_hits", spy)
    assert run_search(space, checkpoint_path=path).hit_indices == want
    # one unit per exponent, of its owned indices from next on
    runs = {}
    for i in owned[cut:]:
        runs.setdefault(i // 15, []).append(i)
    assert [list(unit) for unit in units] == list(runs.values())


def test_monomial_search_tests_no_candidate_outside_reverify(monkeypatch):
    # the coset kernel decides every exponent: no candidate goes through a
    # per-candidate test, the eps-loop or the orbit rank kernel, except in
    # the final re-verification of the hits
    import pseudoplanar.functions as functions
    import pseudoplanar.search as search

    calls, reverifying = {"outside": 0, "inside": 0}, []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls["inside" if reverifying else "outside"] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module in (functions, search):
        for name in ("is_pseudoplanar", "exhaustive_witness", "_orbit_witnesses"):
            if hasattr(module, name):
                spy(module, name)
    reverify = search._reverify

    def reverify_spy(result):
        reverifying.append(True)
        try:
            reverify(result)
        finally:
            reverifying.pop()

    monkeypatch.setattr(search, "_reverify", reverify_spy)
    for n in (3, 4, 5, 6):
        search_monomials(GF2n(n), shard=(n % 2, 2))
    assert calls["outside"] == 0
    assert calls["inside"] > 0


@pytest.mark.parametrize("n", [3, 4])
def test_bulk_decoded_monomial_value_tables(n):
    space = SearchSpace(GF2n(n), "monomial")
    tables = candidate_value_tables(space, range(space.total))
    want = np.stack([space.candidate(i).value_table() for i in range(space.total)])
    assert np.array_equal(tables, want)
    some = [5, 0, space.total - 1, space.total // 2]
    assert np.array_equal(candidate_value_tables(space, some), want[some])


@lru_cache(maxsize=None)
def _rank_sweep(n: int) -> list[int]:
    space = SearchSpace(GF2n(n), "quad_binomial")
    return value_table_rank_hits(space, range(space.total))


def _kernel_hits(space: SearchSpace) -> list[int]:
    """The binomial kernel's hits on the shard, unit by unit as run_search
    takes them, without the re-verification."""
    return [i for unit in _units(space, 0) for i in _orbit_hits(space, unit)]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("shard", [(0, 1), (0, 3), (1, 3), (2, 3)], ids="{0[0]}of{0[1]}".format)
def test_orbit_kernel_equals_value_table_rank_test(n, shard):
    k, K = shard
    space = SearchSpace(GF2n(n), "quad_binomial", k, K)
    want = [i for i in _rank_sweep(n) if i % K == k]
    assert _kernel_hits(space) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_orbit_kernel_equals_value_table_rank_test_on_monomial_runs(n):
    # the coset kernel decides each scaling orbit c <g^d> of c x^t at once;
    # on quadratic exponents it must agree with the rank test at every eps
    space = SearchSpace(GF2n(n), "monomial")
    nc = space.coeff_count
    for t in range(1, space.field.order):
        if t.bit_count() <= 2:
            run = range((t - 1) * nc, t * nc)
            assert _monomial_hits(space, run) == value_table_rank_hits(space, run), t


@lru_cache(maxsize=None)
def _split_sweep(n: int) -> list[int]:
    space = SearchSpace(GF2n(n), "monomial")
    return split_monomial_hits(space, range(space.total))


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("shard", [(0, 1), (0, 3), (1, 3), (2, 3)], ids="{0[0]}of{0[1]}".format)
@pytest.mark.parametrize("every", [50000, 100])
def test_coset_kernel_equals_the_split_search(tmp_path, n, shard, every):
    # resumed from the first checkpoint that a search saving after every
    # `every` owned indices wrote (searches checkpointed on a count before
    # they did on a clock): its next lies inside an exponent run of 127 or
    # 255 coefficients.  Only the whole n = 8 space has 50000 owned indices;
    # the other shards run whole at 50000.
    k, K = shard
    space = SearchSpace(GF2n(n), "monomial", k, K)
    want = [i for i in _split_sweep(n) if i % K == k]
    owned, path = space.my_indices(), None
    if every < len(owned):
        path, nxt = tmp_path / "ck.json", owned[every - 1] + 1
        assert nxt % space.coeff_count
        checkpoint_save(path, space, nxt, [i for i in want if i < nxt])
    assert run_search(space, checkpoint_path=path).hit_indices == want


def test_coset_kernel_finds_the_known_closure_at_n10():
    fld = GF2n(10)
    space = SearchSpace(fld, "monomial")
    nc = space.coeff_count
    hits = run_search(space).hit_indices
    assert {(i % nc + 1, i // nc + 1) for i in hits} == known_hits_closure(fld)
    assert len(hits) == 10725


@pytest.mark.parametrize("t", [1, 2])
def test_coset_kernel_memory_stays_bounded(t):
    # t = 2 has 2^n - 1 cosets of one member each, t = 1 one coset of
    # 2^n - 1 members, and x^t is pseudo-planar: testing every member at
    # once would make two arrays of (2^n - 1) 2^n int64 values, 16 MiB at
    # n = 10
    fld = GF2n(10)
    _good_cosets(fld, 3)  # warm-up
    tracemalloc.start()
    try:
        good = _good_cosets(fld, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert good.size == math.gcd(t - 2, fld.order - 1) and good.all()
    assert peak <= 8 << 20


def test_coset_kernel_tests_the_last_member_of_every_coset(monkeypatch):
    # Delta_33 = x^32 + x + 1 (the Gold exponent 2^5 + 1) is planted under
    # t = 343, whose cosets c <g^341> have three members each at n = 10.
    # a Delta_33 + id fails for only 32 of the 1023 a, so most of a block
    # of cosets stays undecided, the kernel tests them one member at a time,
    # and some coset fails at its last member only.
    fld = GF2n(10)
    t, d = 343, 341
    xs = fld.elements()
    delta = np.array([fld.pow(x, 32) ^ x ^ 1 for x in range(fld.order)])
    ok = np.array([
        [
            np.unique(fld.mul_vec(fld.exp_vec(np.int64(r + j * d)), delta) ^ xs).size == fld.order
            for j in range((fld.order - 1) // d)
        ]
        for r in range(d)
    ])
    assert (ok[:, :-1].all(axis=1) & ~ok[:, -1]).any()
    power_table = GF2n.power_table
    monkeypatch.setattr(GF2n, "power_table", lambda self, k: power_table(self, 33 if k == t else k))
    assert _good_cosets(fld, t).tolist() == ok.all(axis=1).tolist()


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("k", [0, 1, 2047, 4095])
def test_orbit_kernel_equals_value_table_rank_test_on_sampled_shards(n, k):
    space = SearchSpace(GF2n(n), "quad_binomial", k, 4096)
    assert _kernel_hits(space) == value_table_rank_hits(space, space.my_indices())


def test_orbit_kernel_finds_the_stored_n6_binomial_hits():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "quad_binomial_hits.json"
    ref = json.loads(path.read_text())["6:43"]
    space = SearchSpace(GF2n(6, 0x43), "quad_binomial")
    assert space.total == ref["total"]
    assert _kernel_hits(space) == ref["hits"]


def test_crash_loses_at_most_one_checkpoint_interval(tmp_path, monkeypatch):
    import pseudoplanar.search as search

    fld = GF2n(4)
    path = tmp_path / "ck.json"
    saved = []
    save = search.checkpoint_save

    def save_then_crash(p, space, next_index, hits):
        save(p, space, next_index, hits)
        saved.append(next_index)
        if len(saved) == 3:
            raise KeyboardInterrupt("crash after a checkpoint")

    want = search_monomials(fld, shard=(1, 3)).hit_indices
    space = SearchSpace(fld, "monomial", 1, 3)
    owned = space.my_indices()
    monkeypatch.setattr(search, "checkpoint_save", save_then_crash)
    monkeypatch.setattr(search, "CHECKPOINT_SECONDS", 0)  # a save after every unit
    with pytest.raises(KeyboardInterrupt):
        run_search(space, checkpoint_path=path)
    assert checkpoint_resume(path, space)[0] == saved[-1]
    resumed = run_search(space, checkpoint_path=path)
    assert resumed.hit_indices == want
    # one save after the owned run of every exponent t = 1..15 (15
    # coefficients each), each taken once across the crash, then the
    # exhausted mark
    ends = [max(i for i in owned if i // 15 == t) + 1 for t in range(15)]
    assert saved == ends + [space.total]


def test_checkpoints_wait_for_the_interval(tmp_path, monkeypatch):
    # a fake clock advances 4 s per unit: a save follows the first unit that
    # ends CHECKPOINT_SECONDS = 10 s or more after the last save
    import pseudoplanar.search as search

    space = SearchSpace(GF2n(4), "monomial")
    clock, saved = [0.0], []

    def unit_of_4s(space, run):
        clock[0] += 4
        return _monomial_hits(space, run)

    def record(p, space, next_index, hits):
        saved.append((clock[0], next_index))

    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    monkeypatch.setattr(search, "_monomial_hits", unit_of_4s)
    monkeypatch.setattr(search, "checkpoint_save", record)
    assert search.CHECKPOINT_SECONDS == 10
    run_search(space, checkpoint_path=tmp_path / "ck.json")
    # 15 units of 15 coefficients; none after the last, which is left to the
    # exhausted mark
    assert saved == [(12, 45), (24, 90), (36, 135), (48, 180), (60, space.total)]


def test_small_binomial_shard_saves_once(tmp_path, monkeypatch):
    # a 1/128 shard of the n = 6 binomial sweep, the op of perfbench's
    # search_n6, is two units of a few ms: its one save is the exhausted mark
    import pseudoplanar.search as search

    saved = []
    save = search.checkpoint_save

    def record(p, space, next_index, hits):
        saved.append(next_index)
        save(p, space, next_index, hits)

    fld = GF2n(6, 0x43)
    monkeypatch.setattr(search, "checkpoint_save", record)
    result = search_quad_binomials(fld, shard=(77, 128), checkpoint_path=tmp_path / "ck.json")
    space = result.space
    assert len(list(_units(space, 0))) == 2
    assert saved == [space.total]
    assert checkpoint_resume(tmp_path / "ck.json", space) == (space.total, result.hit_indices)


def test_search_shard_memory_stays_bounded():
    fld = GF2n(6, 0x43)
    fld.power_table(1)
    search_quad_binomials(fld, shard=(3, 128))  # warm-up: imports, caches
    tracemalloc.start()
    try:
        search_quad_binomials(fld, shard=(5, 128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def _parent_layout_save(path, space, next_index, hit_indices):
    """A checkpoint as the format's first writer laid it out: the payload
    with its digest as the last key, in json.dump's default layout."""
    payload = {
        "version": 1,
        **space.spec_dict(),
        "next": next_index,
        "hits": sorted(hit_indices),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["digest"] = hashlib.sha256(blob.encode()).hexdigest()
    Path(path).write_text(json.dumps(payload))


def _parent_resume_check(path) -> dict:
    """The digest check of the format's first reader, on its own."""
    payload = json.loads(Path(path).read_text())
    stored = payload.pop("digest")
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert stored == hashlib.sha256(blob.encode()).hexdigest()
    return payload


@pytest.mark.parametrize("kind, shard", [("monomial", (0, 1)), ("quad_binomial", (1, 3))])
def test_checkpoints_read_both_ways_across_the_single_encoding(tmp_path, kind, shard):
    space = SearchSpace(GF2n(4), kind, *shard)
    nxt = space.total // 2
    hits = [i for i in range(shard[0], nxt, shard[1])][::7]
    old = tmp_path / "old.json"
    _parent_layout_save(old, space, nxt, hits)
    assert checkpoint_resume(old, space) == (nxt, hits)
    new = tmp_path / "new.json"
    with mock.patch.object(search.json, "dumps", wraps=json.dumps) as dumps:
        checkpoint_save(new, space, nxt, list(reversed(hits)))
    assert dumps.call_count == 1  # the payload is encoded once
    payload = _parent_resume_check(new)
    assert payload == {"version": CHECKPOINT_VERSION, **space.spec_dict(),
                       "next": nxt, "hits": hits}
    assert checkpoint_resume(new, space) == (nxt, hits)


def test_search_monomials_cli_decodes_and_flags_each_hit_once(capsys, monkeypatch):
    fld = GF2n(5)
    decoded, flagged = [], []
    candidate = SearchSpace.candidate
    unexpected = search.unexpected_monomials

    def count_candidate(self, i):
        decoded.append(i)
        return candidate(self, i)

    def count_unexpected(field, result):
        flagged.append(1)
        return unexpected(field, result)

    monkeypatch.setattr(SearchSpace, "candidate", count_candidate)
    monkeypatch.setattr(search, "unexpected_monomials", count_unexpected)
    assert main(["search-monomials", "--field", fld.spec_string, "--out", "json"]) == 0
    hits = json.loads(capsys.readouterr().out)["result"]["hits"]
    assert len(hits) > 0 and sorted(decoded) == sorted(set(decoded))
    assert len(decoded) == len(hits) and flagged == [1]


def test_a_search_result_decodes_its_hits_again_after_they_change():
    space = SearchSpace(GF2n(3), "monomial")
    result = SearchResult(space, [0, 5])
    first = result.hits()
    assert result.hits() == first and result.hits() is not first
    result.hit_indices.append(2)
    assert result.hits() == [space.candidate(i) for i in (0, 2, 5)]

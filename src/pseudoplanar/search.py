"""Sharded, checkpointable exhaustive searches for pseudo-planar functions.

Two candidate spaces: all nonzero monomials c*x^t, and all quadratic-type
binomials c1*x^{2^i+2^j} + c2*x^{2^k+2^l} with distinct exponent pairs.
Candidate enumeration is a fixed deterministic bijection onto [0, total);
shard (k, K) owns the indices congruent to k mod K, so shard runs compose
to exactly the unsharded run.  A shard is decided in units of one kernel
call each (_units), and a checkpoint, digest-protected JSON, is written
after a unit once CHECKPOINT_SECONDS have passed since the last one; every
reported hit is re-verified in a final single-threaded pass.

Binomials are of quadratic type and are decided in bulk along their scaling
orbit by functions._orbit_witnesses, from n-entry tables of their exponents
(_orbit_hits), _RANK_BUDGET // n candidates a unit, at one eps per class of
log eps mod the period that the candidates of a unit share.  Monomials are
decided a whole exponent a unit by the coset kernel _good_cosets: with
eps = g^u,
D_eps(c x^t)(eps x) = eps^2 (a Delta_t(x) + x) for a = c g^(u (t - 2)) and
Delta_t(x) = (x + 1)^t + x^t, so c x^t is pseudo-planar exactly when
a Delta_t + id permutes the field for every a in the coset c <g^d>,
d = gcd(t - 2, 2^n - 1).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import warnings
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import combinations

import numpy as np

from .field import GF2n
from .functions import (
    _RANK_BUDGET,
    SparsePoly,
    _orbit_table,
    _orbit_witnesses,
    is_pseudoplanar,
    known_hits_closure,
)

CHECKPOINT_VERSION = 1
MONOMIAL_MAX_DEGREE = 14
BINOMIAL_LONG_RUN_DEGREE = 8
# Least seconds between two checkpoints of a run (run_search)
CHECKPOINT_SECONDS = 10.0


class CheckpointError(ValueError):
    pass


def quad_exponents(n: int) -> list[int]:
    """All exponents of the form 2^i + 2^j with 0 <= i < j < n, sorted."""
    return sorted((1 << i) + (1 << j) for i, j in combinations(range(n), 2))


@dataclass(frozen=True)
class SearchSpace:
    field: GF2n
    kind: str  # "monomial" | "quad_binomial"
    shard_index: int = 0
    shard_total: int = 1

    def __post_init__(self):
        if self.kind not in ("monomial", "quad_binomial"):
            raise ValueError(f"unknown search kind {self.kind!r}")
        if not 0 <= self.shard_index < self.shard_total:
            raise ValueError(
                f"shard {self.shard_index}/{self.shard_total} out of range"
            )

    @property
    def coeff_count(self) -> int:
        return self.field.order - 1

    @cached_property
    def exponent_pairs(self) -> list[tuple[int, int]]:
        return list(combinations(quad_exponents(self.field.n), 2))

    @property
    def total(self) -> int:
        nc = self.coeff_count
        if self.kind == "monomial":
            return (self.field.order - 1) * nc
        return len(self.exponent_pairs) * nc * nc

    def candidate(self, i: int) -> SparsePoly:
        """Decode candidate index i (lexicographic order) to a polynomial."""
        nc = self.coeff_count
        if self.kind == "monomial":
            t, c = divmod(i, nc)
            return SparsePoly.monomial(self.field, c + 1, t + 1)
        p, rem = divmod(i, nc * nc)
        c1, c2 = divmod(rem, nc)
        e1, e2 = self.exponent_pairs[p]
        return SparsePoly.make(self.field, [(e1, c1 + 1), (e2, c2 + 1)])

    @cached_property
    def _orbit_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The _orbit_table of quad_exponents(n), the binomial exponents."""
        return _orbit_table(self.field, quad_exponents(self.field.n))

    @cached_property
    def _pair_rows(self) -> np.ndarray:
        """The _orbit_tables rows of the two exponents of each exponent pair."""
        rows = combinations(range(len(quad_exponents(self.field.n))), 2)
        return np.array(list(rows), dtype=np.int64).reshape(-1, 2).T

    def _orbit_terms(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The _orbit_tables rows and the coefficient logs of the two terms
        of each binomial candidate, as (2, len(indices)) arrays."""
        nc = self.coeff_count
        p, rem = np.divmod(indices, nc * nc)
        return self._pair_rows[:, p], self.field.log_vec(np.stack(np.divmod(rem, nc)) + 1)

    def my_indices(self, start: int = 0):
        """Candidate indices owned by this shard, from global index start."""
        k, K = self.shard_index, self.shard_total
        first = start + ((k - start) % K)
        return range(first, self.total, K)

    def spec_dict(self) -> dict:
        return {
            "field": self.field.spec_string,
            "kind": self.kind,
            "shard": [self.shard_index, self.shard_total],
        }


@dataclass
class SearchResult:
    """The hits of a search, as candidate indices of space.

    unexpected is set by search_monomials: the hits outside the known
    families (unexpected_monomials), or None where nothing checked them.
    hits() decodes the indices once, and again only after they change.
    """

    space: SearchSpace
    hit_indices: list[int] = dc_field(default_factory=list)
    unexpected: list[tuple[int, int]] | None = dc_field(default=None, compare=False)
    _decoded: tuple = dc_field(default=((), ()), init=False, repr=False, compare=False)

    def hits(self) -> list[SparsePoly]:
        key = tuple(sorted(self.hit_indices))
        if key != self._decoded[0]:
            self._decoded = key, tuple(self.space.candidate(i) for i in key)
        return list(self._decoded[1])


def merge_results(results: list[SearchResult]) -> SearchResult:
    """Combine shard results into the equivalent unsharded result."""
    if not results:
        raise ValueError("nothing to merge")
    base = results[0].space
    for r in results[1:]:
        if r.space.field != base.field or r.space.kind != base.kind:
            raise ValueError("cannot merge results from different spaces")
    merged = SearchSpace(base.field, base.kind)
    return SearchResult(merged, sorted(i for r in results for i in r.hit_indices))


# -- checkpoints --------------------------------------------------------------


def _canonical(payload: dict) -> str:
    """The JSON text that the digest of payload covers."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def checkpoint_save(path, space: SearchSpace, next_index: int, hit_indices: list[int]):
    """Write the checkpoint atomically: a crash mid-write leaves the previous
    file in place (and at worst a stale PATH.tmp beside it).

    The payload is encoded once, as the canonical text of _digest, and the
    digest is spliced in as its last key; checkpoint_resume reads any JSON
    layout of the same object."""
    blob = _canonical({
        "version": CHECKPOINT_VERSION,
        **space.spec_dict(),
        "next": next_index,
        "hits": sorted(hit_indices),
    })
    digest = hashlib.sha256(blob.encode()).hexdigest()
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w") as fh:
        fh.write(f'{blob[:-1]},"digest":"{digest}"}}')
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _checkpoint_directory(path) -> None:
    """Refuse a checkpoint path whose directory cannot take the file, so a
    search fails before its first candidate, not at its first save."""
    directory = os.path.dirname(os.fspath(path)) or "."
    if not os.path.isdir(directory) or not os.access(directory, os.W_OK | os.X_OK):
        raise CheckpointError(
            f"checkpoint {os.fspath(path)}: {directory} is not a writable directory"
        )


def checkpoint_resume(path, space: SearchSpace) -> tuple[int, list[int]]:
    """Validated (next candidate index, hits so far) from a checkpoint file.
    The digest is unkeyed, so next and hits are range-checked as well."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except ValueError as exc:  # torn, empty or not UTF-8
        raise CheckpointError(f"checkpoint {path} is not readable JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    stored = payload.pop("digest", None)
    if stored != _digest(payload):
        raise CheckpointError(f"checkpoint {path} is corrupt (digest mismatch)")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {payload.get('version')}")
    for key, want in space.spec_dict().items():
        if payload.get(key) != want:
            raise CheckpointError(
                f"checkpoint {path} is for {key}={payload.get(key)!r}, "
                f"this run has {key}={want!r}"
            )
    nxt, hits = payload.get("next"), payload.get("hits")
    if type(nxt) is not int or not 0 <= nxt <= space.total:
        raise CheckpointError(f"checkpoint {path}: next={nxt!r} is not an int in 0..{space.total}")
    k, K = space.shard_index, space.shard_total
    if not isinstance(hits, list) or not all(
        type(i) is int and prev < i < nxt and i % K == k for prev, i in zip([-1] + hits, hits)
    ):
        raise CheckpointError(
            f"checkpoint {path}: hits are not increasing ints below next={nxt}, "
            f"each {k} mod {K}"
        )
    return nxt, hits


# -- drivers ------------------------------------------------------------------


def run_search(
    space: SearchSpace,
    checkpoint_path=None,
    long_run: bool = False,
) -> SearchResult:
    """Exhaust the shard, re-verify every hit, and return the result.

    The owned candidates are decided in units of one kernel call each
    (_units).  With a checkpoint path, a checkpoint is written after the
    first unit that ends CHECKPOINT_SECONDS or more after the last save
    (except after the shard's last unit), so a crash loses at most
    CHECKPOINT_SECONDS plus one unit.  A checkpoint
    path outside a writable directory is refused (CheckpointError) before
    the first candidate.  Every hit is re-checked by is_pseudoplanar at the
    end, and only then is the shard marked exhausted.
    """
    n = space.field.n
    if space.kind == "monomial" and n > MONOMIAL_MAX_DEGREE:
        raise ValueError(
            f"full monomial searches are capped at n <= {MONOMIAL_MAX_DEGREE}"
        )
    if space.kind == "quad_binomial" and n >= BINOMIAL_LONG_RUN_DEGREE and not long_run:
        raise ValueError(
            f"quadratic binomial search at n = {n} covers {space.total} "
            f"candidates; pass long_run (--long-run) to proceed"
        )
    start, hit_indices = 0, []
    if checkpoint_path is not None:
        _checkpoint_directory(checkpoint_path)
        try:
            start, hit_indices = checkpoint_resume(checkpoint_path, space)
        except FileNotFoundError:
            pass
    test = _orbit_hits if space.kind == "quad_binomial" else _monomial_hits
    saved = time.monotonic()
    for unit in _units(space, start):
        hit_indices += test(space, unit)
        # next = total is the exhausted mark, left to the re-verified result
        if (checkpoint_path is not None and unit[-1] + 1 < space.total
                and time.monotonic() - saved >= CHECKPOINT_SECONDS):
            checkpoint_save(checkpoint_path, space, unit[-1] + 1, hit_indices)
            saved = time.monotonic()
    result = SearchResult(space, sorted(hit_indices))
    _reverify(result)
    # only a re-verified result may mark the shard as exhausted
    if checkpoint_path is not None:
        checkpoint_save(checkpoint_path, space, space.total, hit_indices)
    return result


def _units(space: SearchSpace, start: int):
    """The owned indices from global index start, as the ranges that one
    kernel call decides: in windows of the coefficients of one exponent for
    monomials, and of _RANK_BUDGET // n owned candidates for binomials."""
    owned, K = space.my_indices(start), space.shard_total
    if space.kind == "monomial":
        width = space.coeff_count
    else:
        width = max(1, _RANK_BUDGET // space.field.n) * K
    for lo in range(start - start % width, space.total, width):
        # the owned indices in [lo, lo + width); len(range(owned.start, i, K))
        # is the position in owned of the first owned index >= i
        unit = owned[len(range(owned.start, lo, K)):len(range(owned.start, lo + width, K))]
        if unit:
            yield unit


def _monomial_hits(space: SearchSpace, run: range) -> list[int]:
    """Hits among run, owned candidates of one exponent: _good_cosets
    decides every coefficient of the exponent at once."""
    fld, nc = space.field, space.coeff_count
    t = run[0] // nc  # candidate i is c x^(t + 1) with c = i - t nc + 1
    idx = np.arange(run.start, run.stop, run.step)
    good = _good_cosets(fld, t + 1)
    return idx[good[fld.log_vec(idx - t * nc + 1) % good.size]].tolist()


# Elements of one block of _good_cosets: it bounds the kernel's working set
# over cosets as well as over members, for t = 2 has 2^n - 1 cosets.
_COSET_BUDGET = 1 << 18


def _good_cosets(field: GF2n, t: int) -> np.ndarray:
    """Whether c x^t is pseudo-planar, for each r = log c mod d: whether
    a Delta_t + id permutes the field for every member a = g^(r + j d),
    j < (2^n - 1)/d, of the coset c <g^d> (see the module docstring).

    rows = _COSET_BUDGET / 2^n cosets at a time have their members tested in
    blocks of j that start at one and grow 4-fold, cut so that the undecided
    cosets times the block stay within rows; a coset leaves at its first
    failing block.
    """
    N, group = field.order, field.order - 1
    d = math.gcd(t - 2, group)
    xs = field.elements()
    power = field.power_table(t)
    delta = field.log_vec(power[xs ^ 1] ^ power)  # the sentinel where Delta_t(x) = 0
    rows = _COSET_BUDGET // N  # at least 4, for n <= MAX_DEGREE = 16
    good = np.zeros(d, dtype=bool)
    for lo in range(0, d, rows):
        alive, j, size = np.arange(lo, min(lo + rows, d)), 0, 1
        while alive.size and j < group // d:
            block = min(size, rows // alive.size, group // d - j)
            log_a = alive[:, None] + d * np.arange(j, j + block)
            image = field.exp_vec(log_a[..., None] + delta)
            image ^= xs
            image += N * np.arange(log_a.size).reshape(log_a.shape)[..., None]  # a slot range per row
            marks = np.zeros(image.size, dtype=bool)
            marks[image.ravel()] = True  # a row permutes the field when it marks all its slots
            alive = alive[marks.reshape(image.shape).all(axis=(1, 2))]
            j += block
            size *= 4
        good[alive] = True
    return good


def _orbit_hits(space: SearchSpace, indices: range) -> list[int]:
    """Hits among binomial candidates: those with no failing eps under
    _orbit_witnesses.  The candidates are tested at one eps per class of
    log eps mod the period that they share, most often all 2^n - 1 eps;
    run_search passes at most _RANK_BUDGET // n of them (_units)."""
    idx = np.arange(indices.start, indices.stop, indices.step, dtype=np.int64)
    eps = _orbit_witnesses(space.field, *space._orbit_tables, *space._orbit_terms(idx))
    return idx[eps == 0].tolist()


def _reverify(result: SearchResult) -> None:
    for f in result.hits():
        if not is_pseudoplanar(f):
            raise AssertionError(f"re-verification failed for reported hit {f.literal}")


def search_monomials(
    field: GF2n, shard: tuple[int, int] = (0, 1), checkpoint_path=None
) -> SearchResult:
    """All pseudo-planar monomials c*x^t; unexpected hits are flagged.

    A hit outside the known families (x^{2^k}, the half-field Gold-type
    exponent, the 4^k(4^k+1) family) would contradict the conjectured
    classification and is reported with a loud warning, never dropped.
    """
    space = SearchSpace(field, "monomial", *shard)
    result = run_search(space, checkpoint_path=checkpoint_path)
    result.unexpected = unexpected_monomials(field, result)
    for c, t in result.unexpected:
        warnings.warn(
            f"CONJECTURE COUNTEREXAMPLE: {c:#x}*x^{t} on {field.spec_string} "
            "is pseudo-planar but outside the known monomial families",
            stacklevel=2,
        )
    return result


def unexpected_monomials(field: GF2n, result: SearchResult) -> list[tuple[int, int]]:
    """Hits not explained by the known families (up to the scaling orbit)."""
    predicted = known_hits_closure(field)
    hits = ((c, t) for f in result.hits() for t, c in f.terms)  # one term each
    return sorted(hit for hit in hits if hit not in predicted)


def search_quad_binomials(
    field: GF2n,
    shard: tuple[int, int] = (0, 1),
    checkpoint_path=None,
    long_run: bool = False,
) -> SearchResult:
    space = SearchSpace(field, "quad_binomial", *shard)
    return run_search(space, checkpoint_path=checkpoint_path, long_run=long_run)

"""The three workloads: seeded inputs, the timed operation, and its oracle.

Each workload is driven through the package's public API only.  Inputs come
from the seed alone; the program sees nothing but the generated inputs.  An
op's output is checked outside the timed region, against an oracle that does
not share the code path being timed.

    classify_n12  functions/field vector kernels on F_4096; bypasses the ring
    search_n6     thousands of tiny pp tests plus checkpoint writes
    scheme_n9     GR(4, 9) tables, radix-4 transforms, scheme stages
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from time import perf_counter

import gf2

HERE = Path(__file__).resolve().parent

# Names the ops call on the package; the traced run swaps in wrappers.
API_NAMES = (
    "SparsePoly",
    "construct_binomial1",
    "binomial1_criterion",
    "pseudoplanar_witness",
    "search_quad_binomials",
    "construct_shifted_binomial",
    "build_df",
    "verify_rds",
    "build_report",
    "fourier_spectrum",
)


def _field_setup(pp, n: int, modulus: int):
    """Field context with its log/exp and numpy tables built."""
    t0 = perf_counter()
    field = pp.GF2n(n, modulus)
    field.power_table(1)
    return field, perf_counter() - t0


class Classify:
    """Classify functions on F_{2^{3m}}, one op per function, 1 : 4 : 2 shares.

    Per round of seven ops: one construct_binomial1 positive (full eps-loop,
    sets op_p90_s), four family negatives (early exit, set op_p50_s) and two
    binomials with an exponent of binary weight >= 3 (direct test only).
    """

    name = "classify_n12"
    round_size = 7
    trace_ops = 98
    calibration = "small"
    ring_degree = 0
    # (n, modulus, m, multiplicative orders of a that make binomial1 pseudo-planar)
    SIZES = {"full": (12, 0x1009, 4, (9, 63, 117, 819)), "tiny": (6, 0x43, 2, (9, 63))}

    def __init__(self, scale: str, workdir: Path):
        self.n, self.modulus, self.m, self.good_orders = self.SIZES[scale]
        self.order = 1 << self.n
        self._pos = None

    def setup(self, pp) -> dict:
        self.field, field_s = _field_setup(pp, self.n, self.modulus)
        return {"field.tables_s": field_s, "galois_ring.tables_s": 0.0}

    def _positives(self) -> frozenset[int]:
        """The a for which binomial1 is pseudo-planar: mult_order(a) in the set."""
        if self._pos is None:
            orders = gf2.mult_orders(self.modulus)
            self._pos = frozenset(
                a for a in range(1, self.order) if orders[a] in self.good_orders
            )
        return self._pos

    def ops(self, seed: int):
        positives = self._positives()
        pos = sorted(positives)
        neg = [a for a in range(1, self.order) if a not in positives]
        heavy = [e for e in range(1, self.order) if bin(e).count("1") >= 3]
        rng = random.Random(seed)
        while True:
            batch = [{"kind": "family", "a": rng.choice(pos)}]
            batch += [{"kind": "family", "a": rng.choice(neg)} for _ in range(4)]
            for _ in range(2):
                e1 = e2 = rng.choice(heavy)
                while e2 == e1:
                    e2 = rng.randrange(1, self.order)
                batch.append({
                    "kind": "other",
                    "terms": [[e1, rng.randrange(1, self.order)],
                              [e2, rng.randrange(1, self.order)]],
                })
            rng.shuffle(batch)
            yield from batch

    def items(self, op) -> int:
        return 1

    def run(self, api, op):
        if op["kind"] == "family":
            f = api.construct_binomial1(self.field, self.m, op["a"])
            crit = api.binomial1_criterion(self.field, self.m, op["a"])
            return crit, api.pseudoplanar_witness(f), f
        f = api.SparsePoly.make(self.field, op["terms"])
        return None, api.pseudoplanar_witness(f), f

    def check(self, pp, op, out) -> bool:
        crit, eps, f = out
        if op["kind"] == "family":
            want = op["a"] in self._positives()
            if crit != want or (eps is None) != want:
                return False
        elif eps is None:
            return False
        return eps is None or self._collides(f, eps)

    def _collides(self, f, eps: int) -> bool:
        """Scalar re-check: x -> f(x+eps) + f(x) + eps*x repeats a value."""
        if not 0 < eps < self.order:
            return False
        seen = set()
        for x in range(self.order):
            d = f.eval(x ^ eps) ^ f.eval(x) ^ gf2.mul(eps, x, self.modulus)
            if d in seen:
                return True
            seen.add(d)
        return False


class Search:
    """Shards (k, K) of the quadratic-binomial sweep, k picked by the seed.

    Each op writes its checkpoint to a fresh path; its hits must equal the
    stored full-sweep hits congruent to k mod K (data/quad_binomial_hits.json,
    made by make_reference.py).
    """

    name = "search_n6"
    round_size = 1
    trace_ops = 24
    calibration = "small"
    ring_degree = 0
    SIZES = {"full": (6, 0x43, 128), "tiny": (4, 0x13, 16)}

    def __init__(self, scale: str, workdir: Path):
        self.n, self.modulus, self.shards = self.SIZES[scale]
        self.workdir = workdir
        ref = json.loads((HERE / "data" / "quad_binomial_hits.json").read_text())
        ref = ref[f"{self.n}:{self.modulus:x}"]
        self.total, self.hits = ref["total"], ref["hits"]
        self.seq = 0

    def setup(self, pp) -> dict:
        self.field, field_s = _field_setup(pp, self.n, self.modulus)
        return {"field.tables_s": field_s, "galois_ring.tables_s": 0.0}

    def ops(self, seed: int):
        rng = random.Random(seed)
        while True:
            order = list(range(self.shards))
            rng.shuffle(order)
            yield from ({"shard": k} for k in order)

    def items(self, op) -> int:
        return len(range(op["shard"], self.total, self.shards))

    def run(self, api, op):
        self.seq += 1
        path = self.workdir / f"checkpoint-{self.seq}.json"
        result = api.search_quad_binomials(
            self.field, shard=(op["shard"], self.shards), checkpoint_path=path
        )
        return result, path

    def check(self, pp, op, out) -> bool:
        result, path = out
        want = [i for i in self.hits if i % self.shards == op["shard"]]
        ok = path.is_file() and sorted(result.hit_indices) == want
        path.unlink(missing_ok=True)
        return ok


class Scheme:
    """What rds-verify, scheme-build --out json and spectrum do, per function.

    The seed picks f from a pool of pseudo-planar functions on F_{2^{3m}}:
    f = 0 and the shifted binomials that are pseudo-planar for this m, each
    optionally plus a linear term c*x^(2^k), which keeps f pseudo-planar.
    """

    name = "scheme_n9"
    round_size = 1
    trace_ops = 3
    calibration = "large"
    SIZES = {"full": (9, 0x203, 3), "tiny": (3, 0xB, 1)}

    def __init__(self, scale: str, workdir: Path):
        self.n, self.modulus, self.m = self.SIZES[scale]
        self.ring_degree = self.n

    def setup(self, pp) -> dict:
        self.field, field_s = _field_setup(pp, self.n, self.modulus)
        t0 = perf_counter()
        self.ring = pp.GR4(self.field)
        for table in ("coord_of", "dual_perm", "neg_perm"):
            getattr(self.ring, table, None)
        return {"field.tables_s": field_s, "galois_ring.tables_s": perf_counter() - t0}

    def ops(self, seed: int):
        # variant 2 fails when m = 2 mod 3, variant 3 when m = 1 mod 3
        bases = [0] + [v for v, bad in ((2, 2), (3, 1)) if self.m % 3 != bad]
        rng = random.Random(seed)
        while True:
            linear = None
            if rng.random() < 0.5:
                linear = [rng.randrange(1, 1 << self.n), rng.randrange(self.n)]
            yield {"variant": rng.choice(bases), "linear": linear}

    def items(self, op) -> int:
        return 1

    def run(self, api, op):
        fld, ring = self.field, self.ring
        if op["variant"]:
            f = api.construct_shifted_binomial(fld, self.m, op["variant"])
        else:
            f = api.SparsePoly.zero(fld)
        if op["linear"]:
            c, k = op["linear"]
            f = api.SparsePoly.make(fld, list(f.terms) + [(1 << k, c)])
        D = api.build_df(ring, f)
        rds_ok, _ = api.verify_rds(D)
        report = api.build_report(D)
        text = report.to_json()
        spectrum = api.fourier_spectrum(ring, f)
        return rds_ok, report, text, spectrum

    def check(self, pp, op, out) -> bool:
        rds_ok, report, text, spectrum = out
        data = json.loads(text)
        return (
            rds_ok
            and report.matches_closed_forms()
            and data["pq_identity"] is True
            and data["matches_closed_forms"] is True
            and data["class_count"] == 5
            and spectrum == pp.spectrum_closed_form(self.n)
        )


WORKLOADS = {w.name: w for w in (Classify, Search, Scheme)}

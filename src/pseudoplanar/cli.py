"""Command-line front end.

Exit codes: 0 for verified-true results, 1 for verified-false (e.g. a
pp-test of a function that is not pseudo-planar, or an eigenmatrix that
fails its closed-form check), 2 for usage or domain errors.  JSON output
carries a schema version and the exact inputs needed to replay the run.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import scheme as sch
from . import search as srch
from .field import GF2n, default_modulus
from .functions import (
    MONOMIAL_FAMILIES,
    SparsePoly,
    construct_binomial1,
    construct_known_monomial,
    construct_shifted_binomial,
    pseudoplanar_witness,
)
from .galois_ring import GR4
from .groupring import build_df, verify_rds
from .scheme import SCHEMA_VERSION


def _parse_shard(s: str) -> tuple[int, int]:
    try:
        k, K = s.split("/")
        return int(k), int(K)
    except ValueError as exc:
        raise ValueError(f"bad shard spec {s!r}; expected k/K") from exc


def _emit(args, command: str, inputs: dict, result: dict, text_lines: list[str]):
    if args.out == "json":
        print(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "inputs": inputs,
            "result": result,
        }, indent=2))
    else:
        for line in text_lines:
            print(line)


# -- commands -----------------------------------------------------------------


def cmd_field_info(args):
    fld = GF2n.from_spec(args.field)
    inputs = {"field": fld.spec_string}
    result = {
        "n": fld.n,
        "order": fld.order,
        "modulus": hex(fld.modulus),
        "generator": hex(fld.generator()),
        "default_modulus": hex(default_modulus(fld.n)),
    }
    _emit(args, "field-info", inputs, result, [
        f"field: {fld.spec_string}",
        f"order: {fld.order}",
        f"modulus: 0x{fld.modulus:x}",
        f"generator: 0x{fld.generator():x}",
    ])
    return 0


def cmd_pp_test(args):
    fld = GF2n.from_spec(args.field)
    f = SparsePoly.parse(fld, args.f)
    eps = pseudoplanar_witness(f)
    inputs = {"field": fld.spec_string, "f": f.literal}
    result = {"pseudo_planar": eps is None}
    lines = [f"pseudo-planar: {'true' if eps is None else 'false'}"]
    if eps is not None:
        result["witness_eps"] = f"{eps:x}"
        lines.append(f"witness eps: 0x{eps:x}")
    _emit(args, "pp-test", inputs, result, lines)
    return 0 if eps is None else 1


def cmd_construct(args):
    fld = GF2n.from_spec(args.field)
    try:
        a = int(args.a, 16) if args.a is not None else 1
    except ValueError as exc:
        raise ValueError(f"bad --a {args.a!r}; expected a hex field element, e.g. 1f") from exc
    if args.family in MONOMIAL_FAMILIES:
        f = construct_known_monomial(fld, args.family, a, args.k)
    elif args.family == "binomial1":
        if args.m is None:
            raise ValueError("--m is required for family binomial1")
        f = construct_binomial1(fld, args.m, a)
    elif args.family in ("shifted2", "shifted3"):
        if args.m is None:
            raise ValueError(f"--m is required for family {args.family}")
        f = construct_shifted_binomial(fld, args.m, int(args.family[-1]))
    else:
        raise ValueError(f"unknown family {args.family!r}")
    eps = pseudoplanar_witness(f)
    inputs = {"field": fld.spec_string, "family": args.family, "a": f"{a:x}",
              "k": args.k, "m": args.m}
    result = {"f": f.literal, "pseudo_planar": eps is None}
    lines = [f"f: {f.literal}", f"pseudo-planar: {'true' if eps is None else 'false'}"]
    _emit(args, "construct", inputs, result, lines)
    return 0 if eps is None else 1


def cmd_rds_verify(args):
    fld = GF2n.from_spec(args.field)
    f = SparsePoly.parse(fld, args.f)
    ring = GR4(fld)
    ok, violations = verify_rds(build_df(ring, f))
    inputs = {"field": fld.spec_string, "f": f.literal}
    result = {
        "rds": ok,
        "violations": [
            {"elem": ring.elem_string(ring.pair(g)), "got": got, "want": want}
            for g, got, want in violations
        ],
    }
    lines = [f"relative difference set: {'true' if ok else 'false'}"]
    for g, got, want in violations:
        lines.append(
            f"  {ring.elem_string(ring.pair(g))}: multiplicity {got}, expected {want}"
        )
    _emit(args, "rds-verify", inputs, result, lines)
    return 0 if ok else 1


def _report_for(args):
    fld = GF2n.from_spec(args.field)
    f = SparsePoly.parse(fld, args.f)
    ring = GR4(fld)
    return fld, f, sch.build_report(build_df(ring, f))


def cmd_scheme_build(args):
    fld, f, rep = _report_for(args)
    inputs = {"field": fld.spec_string, "f": f.literal}
    result = rep.to_dict()
    ok = result["matches_closed_forms"]
    _emit(args, "scheme-build", inputs, result, [
        f"classes: {rep.class_count + 1} (incl. identity)",
        f"class sizes: {result['class_sizes']}",
        f"dual sizes: {result['dual_sizes']}",
        f"matches closed forms: {ok}",
    ])
    return 0 if ok else 1


def cmd_eigen(args):
    fld, f, rep = _report_for(args)
    data = rep.to_dict()
    ok = data["matches_closed_forms"] and data["pq_identity"]
    inputs = {"field": fld.spec_string, "f": f.literal}
    result = {
        "P": [[str(v) for v in row] for row in rep.P],
        "Q": [[str(v) for v in row] for row in rep.Q],
        "row_slots": rep.row_slots,
        "col_slots": rep.col_slots,
        "verified": ok,
    }
    lines = ["P:"]
    lines += ["  " + "  ".join(f"{str(v):>12s}" for v in row) for row in rep.P]
    lines.append("Q:")
    lines += ["  " + "  ".join(f"{str(v):>12s}" for v in row) for row in rep.Q]
    lines.append(f"verified: {ok}")
    _emit(args, "eigen", inputs, result, lines)
    return 0 if ok else 1


def cmd_spectrum(args):
    fld = GF2n.from_spec(args.field)
    f = SparsePoly.parse(fld, args.f)
    ring = GR4(fld)
    rows = sch.fourier_spectrum(ring, f)
    if f.eval(0):
        # the closed form holds for f(0) = 0; a constant term flips signs
        raise ValueError(sch.NEEDS_ZERO)
    ok = rows == sch.spectrum_closed_form(fld.n)
    if args.out == "csv":
        sys.stdout.write(sch.spectrum_csv(rows))
    else:
        inputs = {"field": fld.spec_string, "f": f.literal}
        result = {
            "spectrum": [[v.re, v.im, c] for v, c in rows],
            "matches_closed_form": ok,
        }
        lines = [f"{str(v):>8s}: {c}" for v, c in rows]
        lines.append(f"matches closed form: {ok}")
        _emit(args, "spectrum", inputs, result, lines)
    return 0 if ok else 1


def _emit_search(args, command: str, fld: GF2n, result):
    hits = [f.literal for f in result.hits()]
    flagged = result.unexpected
    inputs = {
        "field": fld.spec_string,
        "shard": [result.space.shard_index, result.space.shard_total],
    }
    res = {"total_candidates": result.space.total, "hits": hits}
    lines = [f"candidates: {result.space.total}", f"hits: {len(hits)}"]
    lines += [f"  {h}" for h in hits]
    if flagged:
        res["conjecture_counterexamples"] = [
            f"{c:x}:{t}" for c, t in flagged
        ]
        lines.append("CONJECTURE COUNTEREXAMPLES (outside known families):")
        lines += [f"  {c:#x}*x^{t}" for c, t in flagged]
    _emit(args, command, inputs, res, lines)


def cmd_search_monomials(args):
    fld = GF2n.from_spec(args.field)
    shard = _parse_shard(args.shard)
    result = srch.search_monomials(fld, shard=shard, checkpoint_path=args.checkpoint)
    _emit_search(args, "search-monomials", fld, result)
    return 0


def cmd_search_binomials(args):
    fld = GF2n.from_spec(args.field)
    shard = _parse_shard(args.shard)
    result = srch.search_quad_binomials(fld, shard=shard, checkpoint_path=args.checkpoint)
    _emit_search(args, "search-binomials", fld, result)
    return 0


def cmd_bm_fuse(args):
    fld = GF2n.from_spec(args.field)
    f = SparsePoly.parse(fld, args.f)
    try:
        cells = [
            sorted(int(c) for c in cell.split(","))
            for cell in args.cols.split(";")
        ]
    except ValueError as exc:
        raise ValueError(f"bad --cols {args.cols!r}; expected e.g. 0;1,2;3;4,5") from exc
    rep = sch.build_report(build_df(GR4(fld), f))
    try:
        fused, row_partition = sch.bm_fuse(rep.P, cells)
    except sch.FusionError as exc:
        print(f"fusion refused: {exc}", file=sys.stderr)
        return 1
    inputs = {"field": fld.spec_string, "f": f.literal, "cols": args.cols}
    result = {
        "fused_P": [[str(v) for v in row] for row in fused],
        "row_partition": row_partition,
    }
    lines = ["fused P:"]
    lines += ["  " + "  ".join(f"{str(v):>10s}" for v in row) for row in fused]
    lines.append(f"row partition: {row_partition}")
    _emit(args, "bm-fuse", inputs, result, lines)
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pseudoplanar",
        description="Pseudo-planar functions over F_2^n, their relative "
        "difference sets in GR(4,n), and the derived association schemes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_f=False, outs=("json", "text")):
        sp.add_argument("--field", required=True, metavar="n:POLYHEX",
                        help="field degree and modulus, e.g. 4:13")
        sp.add_argument("--out", choices=outs, default="text")
        if needs_f:
            sp.add_argument("--f", required=True, metavar="POLY",
                            help='function literal "e1:cHEX,e2:cHEX" (0:0 for f=0)')

    sp = sub.add_parser("field-info", help="field parameters")
    common(sp)
    sp.set_defaults(fn=cmd_field_info)

    sp = sub.add_parser("pp-test", help="test pseudo-planarity of f")
    common(sp, needs_f=True)
    sp.set_defaults(fn=cmd_pp_test)

    sp = sub.add_parser("construct", help="build a known pseudo-planar function")
    common(sp)
    sp.add_argument("--family", required=True,
                    choices=list(MONOMIAL_FAMILIES) + ["binomial1", "shifted2", "shifted3"])
    sp.add_argument("--a", metavar="HEX", help="coefficient (hex), default 1")
    sp.add_argument("--k", type=int, help="exponent index for the linear family")
    sp.add_argument("--m", type=int, help="cubic-tower parameter (n = 3m)")
    sp.set_defaults(fn=cmd_construct)

    sp = sub.add_parser("rds-verify", help="verify D_f is a relative difference set")
    common(sp, needs_f=True)
    sp.set_defaults(fn=cmd_rds_verify)

    sp = sub.add_parser("scheme-build", help="build and validate the scheme")
    common(sp, needs_f=True)
    sp.set_defaults(fn=cmd_scheme_build)

    sp = sub.add_parser("eigen", help="first and second eigenmatrices")
    common(sp, needs_f=True)
    sp.set_defaults(fn=cmd_eigen)

    sp = sub.add_parser("spectrum", help="Fourier spectrum of f")
    common(sp, needs_f=True, outs=("json", "csv", "text"))
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("search-monomials", help="exhaustive monomial search")
    common(sp)
    sp.add_argument("--shard", default="0/1", metavar="k/K")
    sp.add_argument("--checkpoint", metavar="PATH")
    sp.set_defaults(fn=cmd_search_monomials)

    sp = sub.add_parser("search-binomials", help="exhaustive quadratic binomial search")
    common(sp)
    sp.add_argument("--shard", default="0/1", metavar="k/K")
    sp.add_argument("--checkpoint", metavar="PATH")
    sp.set_defaults(fn=cmd_search_binomials)

    sp = sub.add_parser("bm-fuse", help="fuse scheme classes")
    common(sp, needs_f=True)
    sp.add_argument("--cols", required=True,
                    help='column partition, e.g. "0;1,2;3;4,5"')
    sp.set_defaults(fn=cmd_bm_fuse)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except sch.SchemeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, srch.CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

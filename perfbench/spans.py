"""Spans for the traced run, and the per-layer metrics computed from them.

The traced run replaces a function with a recording wrapper where its caller
looks it up: a module global (search.is_pseudoplanar), a class attribute
(GroupVec.convolve), or the benchmark's own api namespace.  Nothing is
patched in an untraced run.  A name that the package no longer has is
skipped, so its metrics read 0 rather than breaking the benchmark.

A span is (name, start, end, parent span, op index, flag, value); spans stay
in memory and are written to one .npz file when the process ends.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from types import SimpleNamespace

import numpy as np

NAN = float("nan")


def _decision_note(args, out):
    return (1 if out else 0), NAN


def _witness_note(args, out):
    """pos/neg, and the share of the eps-loop the witness examined."""
    if out is None:
        return 1, 1.0
    return 0, int(out) / (args[0].field.order - 1)


def _size_note(args, out):
    return -1, float(os.path.getsize(args[0]))


# (owner inside the package, attribute looked up by the caller, span, note)
PATCHES = (
    ("functions.SparsePoly", "value_table", "functions.value_table", None),
    ("functions", "pseudoplanar_witness", "functions.pp_test", _witness_note),
    ("search", "is_pseudoplanar", "functions.pp_test", _decision_note),
    ("search.SearchSpace", "candidate", "search.candidate", None),
    ("search", "checkpoint_save", "search.checkpoint_save", _size_note),
    ("search", "_reverify", "search.reverify", None),
    ("groupring.GroupVec", "convolve", "groupring.convolve", None),
    ("groupring.GroupVec", "char_transform", "groupring.char_transform", None),
    ("groupring.SpectrumVec", "inverse_transform", "groupring.inverse_transform", None),
    ("scheme", "pseudoplanar_witness", "functions.pp_test", _witness_note),
    ("scheme", "build_df", "groupring.build_df", None),
    ("scheme", "verify_rds", "groupring.verify_rds", None),
    ("scheme", "build_partition", "scheme.build_partition", None),
    ("scheme", "verify_schur", "scheme.verify_schur", None),
    ("scheme", "dual_partition", "scheme.dual_partition", None),
    ("scheme", "eigen_P", "scheme.eigen_P", None),
    ("scheme", "eigen_Q", "scheme.eigen_Q", None),
    ("scheme", "mat_inverse", "exact.mat_inverse", None),
    ("scheme.SchemeReport", "to_json", "scheme.to_json", None),
)

# The benchmark's own calls into the package: api name -> (span, note)
API_SPANS = {
    "binomial1_criterion": ("functions.criterion", None),
    "pseudoplanar_witness": ("functions.pp_test", _witness_note),
    "search_quad_binomials": ("search.shard", None),
    "build_df": ("groupring.build_df", None),
    "verify_rds": ("groupring.verify_rds", None),
    "build_report": ("scheme.build_report", None),
    "fourier_spectrum": ("scheme.fourier_spectrum", None),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.rows: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, span: str, fn, note=None):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        rows, stack, clock = self.rows, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows[sid] = (nid, start, end, parent, self.op, -1, NAN)
            if note is not None:
                try:
                    flag, value = note(args, out)
                except (AttributeError, IndexError, TypeError, ValueError, OSError):
                    flag, value = -1, NAN
                rows[sid] = rows[sid][:5] + (flag, value)
            return out

        return traced

    def install(self, pp) -> None:
        """Patch every lookup site in PATCHES that the package still has."""
        for owner, attr, span, note in PATCHES:
            module, _, cls = owner.partition(".")
            try:
                target = importlib.import_module(f"{pp.__name__}.{module}")
            except ImportError:
                continue
            if cls:
                target = getattr(target, cls, None)
            if target is not None and hasattr(target, attr):
                setattr(target, attr, self.wrap(span, getattr(target, attr), note))

    def api(self, plain: SimpleNamespace) -> SimpleNamespace:
        out = dict(vars(plain))
        for name, (span, note) in API_SPANS.items():
            out[name] = self.wrap(span, out[name], note)
        return SimpleNamespace(**out)

    def save(self, path) -> None:
        rows = np.array(self.rows, dtype=np.float64).reshape(-1, 7)
        np.savez(path, names=np.array(self.names, dtype=str), rows=rows)


# -- per-layer metrics ----------------------------------------------------------

SELF_SPANS = (
    "functions.criterion",
    "functions.value_table",
    "search.candidate",
    "search.shard",
    "groupring.build_df",
    "groupring.verify_rds",
    "scheme.build_partition",
    "scheme.verify_schur",
    "scheme.dual_partition",
    "scheme.eigen_P",
    "scheme.eigen_Q",
    "scheme.to_json",
    "scheme.fourier_spectrum",
    "exact.mat_inverse",
)


def layer_metrics(path, speed: list[float], ring_degree: int) -> dict[str, tuple[float, str, int]]:
    """name -> (value per op, unit, samples) from a saved span file.

    speed[i] scales the times of op i to the reference machine speed.
    """
    data = np.load(path)
    names = [str(s) for s in data["names"]]
    rows = data["rows"]
    ops = len(speed)
    name = rows[:, 0].astype(np.int64)
    dur = (rows[:, 2] - rows[:, 1]) * np.asarray(speed)[rows[:, 4].astype(np.int64)]
    parent = rows[:, 3].astype(np.int64)
    flag = rows[:, 5].astype(np.int64)
    value = rows[:, 6].copy()
    count = len(rows)

    has_parent = parent >= 0
    child = np.zeros(count)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child

    # A span inside a span of the same name (the witness inside
    # is_pseudoplanar) is folded into it: one pp test, one call.
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    owner = np.arange(count)
    for s in np.flatnonzero(parent_name == name):  # parents precede children
        o = owner[s] = owner[parent[s]]
        if flag[o] < 0:
            flag[o] = flag[s]
        if math.isnan(value[o]):
            value[o] = value[s]
    top = owner == np.arange(count)

    def is_(span):
        return name == names.index(span) if span in names else np.zeros(count, bool)

    def under(span):
        return parent_name == names.index(span) if span in names else np.zeros(count, bool)

    def per_op(mask):
        return float(mask.sum()) / ops

    def self_s(mask):
        return float(self_t[mask].sum()) / ops

    out: dict[str, tuple[float, str, int]] = {}
    pp = is_("functions.pp_test")
    for label, want in (("pos", 1), ("neg", 0)):
        group = pp & (flag[owner] == want)
        out[f"functions.pp_test.{label}.calls"] = (per_op(group & top), "calls/op", int((group & top).sum()))
        out[f"functions.pp_test.{label}.self_s"] = (self_s(group), "s/op", int((group & top).sum()))
    known = pp & top & ~np.isnan(value)
    eps = float(value[known].mean()) if known.any() else 0.0
    out["functions.pp_test.eps_fraction"] = (eps, "ratio", int(known.sum()))
    for span in SELF_SPANS:
        out[f"{span}.self_s"] = (self_s(is_(span)), "s/op", int(is_(span).sum()))

    tested = pp & top & under("search.shard")
    in_search = pp & under("search.shard")[owner]
    out["search.pp_test.self_s"] = (self_s(in_search), "s/op", int(tested.sum()))
    hits = float((flag[tested] == 1).sum()) / tested.sum() if tested.any() else 0.0
    out["search.hit_ratio"] = (hits, "ratio", int(tested.sum()))
    reverified = pp & top & under("search.reverify")
    out["search.reverify_calls"] = (per_op(reverified), "calls/op", int(reverified.sum()))
    saves = is_("search.checkpoint_save")
    out["search.checkpoint_save.calls"] = (per_op(saves), "calls/op", int(saves.sum()))
    out["search.checkpoint_save.self_s"] = (self_s(saves), "s/op", int(saves.sum()))
    saved = float(np.nansum(value[saves])) / ops
    out["search.checkpoint_save.bytes"] = (saved, "B/op", int(saves.sum()))

    conv = is_("groupring.convolve")
    fwd = is_("groupring.char_transform")
    inv = is_("groupring.inverse_transform")
    out["groupring.convolve.calls"] = (per_op(conv), "calls/op", int(conv.sum()))
    out["groupring.convolve.self_s"] = (self_s(conv), "s/op", int(conv.sum()))
    out["groupring.char_transform.calls"] = (per_op(fwd), "calls/op", int(fwd.sum()))
    out["groupring.char_transform.self_s"] = (self_s(fwd), "s/op", int(fwd.sum()))
    # Computed, not measured: a convolution is 3 radix-4 passes, a forward or
    # inverse transform 1; a pass is n stages, each reading and writing the
    # 4^n int64 re and im arrays.  Cache misses are ignored.
    passes = 3 * int(conv.sum()) + int(fwd.sum()) + int(inv.sum())
    pass_bytes = ring_degree * 4 * 8 * 4**ring_degree
    out["groupring.radix4_passes"] = (passes / ops, "passes/op", passes)
    out["groupring.bytes_computed"] = (passes * pass_bytes / ops, "B/op", passes)
    out["scheme.convolutions_per_op"] = (per_op(conv), "convolutions/op", int(conv.sum()))
    out["scheme.transforms_per_op"] = (passes / ops, "transforms/op", passes)
    return out

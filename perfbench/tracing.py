"""Spans around sphyper's public functions, and the per-layer metrics they give.

Tracing works from outside the library.  `traced()` rebinds each function in
`LAYERS` under every name a loaded sphyper module binds it to, so a call
from one module into another (quadrature.mz_constant ->
quadrature.discrete_gram -> harmonics.eval_basis_block) is recorded with
its parent span.  The original functions are restored on exit, so untraced
passes run the library unchanged.  Spans stay in memory; the caller writes
them out when the run ends.

Work counts in `COMPUTED` come from array shapes, not from timers, so they
repeat exactly from pass to pass; run.py labels them "computed".
"""

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# dim above which quadrature.mz_constant switches from eigvalsh to eigsh
EIGSH_DIM = 2000


def _basis_values(args, result):
    return {"values": result.size}


def _gram_flop(args, result):
    rule = args[0]
    return {"flop": 2 * result.shape[0] ** 2 * rule.m}


def _eigsh(args, result):
    return {"eigsh": int(result.dim > EIGSH_DIM)}


def _points(args, result):
    return {"points": result.shape[0]}


def _rule_points(args, result):
    return {"points": result.m}


def _samples(args, result):
    return {"samples": result.size}


def _cells(args, result):
    return {"cells": len(result)}


# (module, function) -> (span name, attributes computed from args and result)
LAYERS = {
    ("harmonics", "eval_basis_block"): ("harmonics.eval_basis_block", _basis_values),
    ("pointsets", "random_uniform"): ("pointsets.random_uniform", _points),
    ("pointsets", "equal_area"): ("pointsets.equal_area", _points),
    ("pointsets", "product_gauss_rule"): ("pointsets.product_gauss_rule", _rule_points),
    ("pointsets", "equal_weight_rule"): ("pointsets.equal_weight_rule", None),
    ("quadrature", "discrete_gram"): ("quadrature.discrete_gram", _gram_flop),
    ("quadrature", "mz_constant"): ("quadrature.mz_constant", _eigsh),
    ("quadrature", "exactness_degree"): ("quadrature.exactness_degree", None),
    ("testfuncs", "f1"): ("testfuncs.sample", _samples),
    ("testfuncs", "f2"): ("testfuncs.sample", _samples),
    ("testfuncs", "f3"): ("testfuncs.sample", _samples),
    ("hyperinterp", "fit"): ("hyperinterp.fit", None),
    ("hyperinterp", "audited_fit"): ("hyperinterp.audited_fit", None),
    ("hyperinterp", "evaluate_block"): ("hyperinterp.evaluate_block", None),
    ("hyperinterp", "project_reference"): ("hyperinterp.project_reference", None),
    ("analysis", "reference_rule_for"): ("analysis.reference_rule_for", None),
    ("analysis", "l2_error"): ("analysis.l2_error", None),
    ("experiments", "run_sweep"): ("experiments.run_sweep", _cells),
}

# per-layer metrics derived from array shapes
COMPUTED = ("harmonics.basis_values", "harmonics.basis_passes_per_cell",
            "quadrature.gram_gflop", "quadrature.eigsh_calls",
            "pointsets.points_generated", "testfuncs.samples")

# spans that build the nodes of a rule; under run_sweep each one is a rule
# the sweep's cache did not have
POINT_BUILDERS = ("pointsets.random_uniform", "pointsets.equal_area",
                  "pointsets.product_gauss_rule")


class Tracer:
    """In-memory span log: one dict per call, with the id of its parent."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, attrs=None):
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans),
                    "parent": self._open[-1] if self._open else None,
                    "name": name}
            self.spans.append(span)
            self._open.append(span["id"])
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                self._open.pop()
            if attrs is not None:
                span.update(attrs(args, result))
            return result

        return wrapper


def _sphyper_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "sphyper" or name.startswith("sphyper.")]


@contextmanager
def traced(tracer):
    """Record spans of every LAYERS function while the block runs."""
    import sphyper.testfuncs as testfuncs

    originals = {}
    for (modname, fname), (span_name, attrs) in LAYERS.items():
        fn = getattr(sys.modules[f"sphyper.{modname}"], fname)
        originals[id(fn)] = (fn, tracer.wrap(span_name, fn, attrs))
    # f4(sigma) builds its evaluator on each call: wrap what it returns
    f4 = testfuncs.f4
    originals[id(f4)] = (f4, lambda sigma: tracer.wrap(
        "testfuncs.sample", f4(sigma), _samples))

    rebound = []
    for mod in _sphyper_modules():
        for attr, value in list(vars(mod).items()):
            entry = originals.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(mod, attr, entry[1])
                rebound.append((mod, attr, value))
    try:
        yield tracer
    finally:
        for mod, attr, value in rebound:
            setattr(mod, attr, value)


def self_times(spans):
    """Span id -> duration minus the time covered by its child spans (ns)."""
    child_ns = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    return {s["id"]: s["end_ns"] - s["start_ns"] - child_ns[s["id"]] for s in spans}


def layer_metrics(spans, pass_wall_s, op_work):
    """Per-layer metrics of one traced pass.

    `op_work` is the sum over the pass's operations of (n+1)^2 * m, the
    basis values one evaluation per operation would take.  Times ending in
    `_s` are self times unless the name ends in `_total_s`.
    """
    own = self_times(spans)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    attr = defaultdict(int)
    by_id = {s["id"]: s for s in spans}
    rule_builds = 0
    for s in spans:
        name = s["name"]
        self_s[name] += own[s["id"]] * 1e-9
        total_s[name] += (s["end_ns"] - s["start_ns"]) * 1e-9
        calls[name] += 1
        for key in ("values", "flop", "eigsh", "points", "samples", "cells"):
            attr[key] += s.get(key, 0)
        parent = by_id.get(s["parent"])
        if name in POINT_BUILDERS and parent and parent["name"] == "experiments.run_sweep":
            rule_builds += 1

    def ratio(a, b):
        return a / b if b else 0.0

    basis_s = self_s["harmonics.eval_basis_block"]
    gram_s = self_s["quadrature.discrete_gram"]
    sweep_self = self_s["experiments.run_sweep"]
    layer_self = sum(self_s.values()) - sweep_self
    requests = attr["cells"]
    return {
        "harmonics.eval_basis_block_s": basis_s,
        "harmonics.eval_basis_block_calls": calls["harmonics.eval_basis_block"],
        "harmonics.basis_values": attr["values"],
        "harmonics.basis_passes_per_cell": ratio(attr["values"], op_work),
        "harmonics.mvalues_per_s": ratio(attr["values"] * 1e-6, basis_s),
        "quadrature.discrete_gram_s": gram_s,
        "quadrature.gram_gflop": attr["flop"] * 1e-9,
        "quadrature.gram_gflop_per_s": ratio(attr["flop"] * 1e-9, gram_s),
        "quadrature.eigensolve_s": self_s["quadrature.mz_constant"],
        "quadrature.mz_constant_total_s": total_s["quadrature.mz_constant"],
        "quadrature.eigsh_calls": attr["eigsh"],
        "quadrature.exactness_degree_s": self_s["quadrature.exactness_degree"],
        "hyperinterp.fit_s": self_s["hyperinterp.fit"],
        "hyperinterp.fit_total_s": total_s["hyperinterp.fit"],
        "hyperinterp.evaluate_block_s": self_s["hyperinterp.evaluate_block"],
        "hyperinterp.audited_fit_s": self_s["hyperinterp.audited_fit"],
        "hyperinterp.audited_fit_total_s": total_s["hyperinterp.audited_fit"],
        "hyperinterp.project_reference_s": self_s["hyperinterp.project_reference"],
        "hyperinterp.project_reference_total_s": total_s["hyperinterp.project_reference"],
        "pointsets.random_uniform_s": self_s["pointsets.random_uniform"],
        "pointsets.equal_area_s": self_s["pointsets.equal_area"],
        "pointsets.product_gauss_rule_s": self_s["pointsets.product_gauss_rule"],
        "pointsets.equal_weight_rule_s": self_s["pointsets.equal_weight_rule"],
        "pointsets.points_generated": attr["points"],
        "testfuncs.sample_s": self_s["testfuncs.sample"],
        "testfuncs.samples": attr["samples"],
        "analysis.reference_rule_for_s": self_s["analysis.reference_rule_for"],
        "analysis.l2_error_s": self_s["analysis.l2_error"],
        "analysis.l2_error_total_s": total_s["analysis.l2_error"],
        "experiments.run_sweep_s": total_s["experiments.run_sweep"],
        "experiments.cell_self_s": sweep_self,
        "experiments.rule_requests": requests,
        "experiments.rule_builds": rule_builds,
        "experiments.rule_cache_hit_ratio": ratio(requests - rule_builds, requests),
        "trace.layer_share": ratio(layer_self, pass_wall_s),
        "trace.spans": len(spans),
    }


# unit of every per-layer metric: layer_metrics() plus what run.py adds
UNITS = {
    "harmonics.eval_basis_block_s": "s",
    "harmonics.eval_basis_block_calls": "count",
    "harmonics.basis_values": "count",
    "harmonics.basis_passes_per_cell": "ratio",
    "harmonics.mvalues_per_s": "Mvalue/s",
    "quadrature.discrete_gram_s": "s",
    "quadrature.gram_gflop": "GFLOP",
    "quadrature.gram_gflop_per_s": "GFLOP/s",
    "quadrature.eigensolve_s": "s",
    "quadrature.mz_constant_total_s": "s",
    "quadrature.eigsh_calls": "count",
    "quadrature.eigsh_eta_rel_spread": "ratio",
    "quadrature.eigvalsh_eta_rel_spread": "ratio",
    "quadrature.exactness_degree_s": "s",
    "hyperinterp.fit_s": "s",
    "hyperinterp.fit_total_s": "s",
    "hyperinterp.evaluate_block_s": "s",
    "hyperinterp.audited_fit_s": "s",
    "hyperinterp.audited_fit_total_s": "s",
    "hyperinterp.project_reference_s": "s",
    "hyperinterp.project_reference_total_s": "s",
    "pointsets.random_uniform_s": "s",
    "pointsets.equal_area_s": "s",
    "pointsets.product_gauss_rule_s": "s",
    "pointsets.equal_weight_rule_s": "s",
    "pointsets.points_generated": "count",
    "testfuncs.sample_s": "s",
    "testfuncs.samples": "count",
    "analysis.reference_rule_for_s": "s",
    "analysis.l2_error_s": "s",
    "analysis.l2_error_total_s": "s",
    "experiments.run_sweep_s": "s",
    "experiments.cell_self_s": "s",
    "experiments.rule_requests": "count",
    "experiments.rule_builds": "count",
    "experiments.rule_cache_hit_ratio": "ratio",
    "trace.layer_share": "ratio",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

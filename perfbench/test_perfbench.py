"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run two traced passes of every workload (about a minute), so they are
kept out of the library's test suite.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sphyper import quadrature  # noqa: E402

# counts that must repeat exactly: the computed work counts and call counts
COUNTS = tracing.COMPUTED + ("harmonics.eval_basis_block_calls",
                             "experiments.rule_requests",
                             "experiments.rule_builds", "trace.spans")


@pytest.fixture(scope="module")
def traced_passes():
    """Two traced passes of each workload, with the same seed."""
    workloads.warm_up()
    out = {}
    for name, (fn, _) in workloads.WORKLOADS.items():
        passes = [run.run_pass(fn, 0, traced=True) for _ in range(2)]
        metrics = [tracing.layer_metrics(p["spans"], p["wall_s"],
                                         sum(op.work for op in p["ops"]))
                   for p in passes]
        out[name] = (passes, metrics)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(traced_passes, name):
    _, (first, second) = traced_passes[name]
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_outputs_pass_their_checks(traced_passes, name):
    passes, _ = traced_passes[name]
    goldens = workloads.load_goldens()
    for p in passes:
        workloads.check_pass(name, p["seed"], p["ops"], goldens)
        assert [(op.key, op.error, op.problems) for op in p["ops"] if op.failed] == []


def test_sweep_random_shows_the_double_basis_pass(traced_passes):
    _, (m, _) = traced_passes["sweep_random"]
    assert m["harmonics.basis_passes_per_cell"] == pytest.approx(2.0, abs=0.01)
    assert m["trace.layer_share"] >= 0.9
    assert m["experiments.rule_builds"] == m["experiments.rule_requests"] == 4
    assert m["quadrature.eigsh_calls"] == 0
    assert m["testfuncs.samples"] > 2_200_000


def test_sweep_equal_area_reuses_rules(traced_passes):
    _, (m, _) = traced_passes["sweep_equal_area"]
    assert m["experiments.rule_requests"] == 22
    assert m["experiments.rule_builds"] == 2
    assert m["harmonics.basis_passes_per_cell"] > 2.0


def test_audit_takes_the_eigsh_branch_at_n_44_and_46(traced_passes):
    _, (m, _) = traced_passes["audit_high_degree"]
    assert m["quadrature.eigsh_calls"] == 4
    assert m["quadrature.exactness_degree_s"] > 0


def test_gram_flop_count_is_computed_from_shapes(traced_passes):
    _, (m, _) = traced_passes["sweep_random"]
    # discrete_gram once per cell: 2 * dim^2 * m
    want = sum(2 * (n + 1) ** 4 * mm for n in (6, 15) for mm in (100_000, 1_000_000))
    assert m["quadrature.gram_gflop"] == pytest.approx(want * 1e-9, rel=1e-15)


def test_spans_nest_under_their_callers(traced_passes):
    passes, _ = traced_passes["sweep_random"]
    spans = passes[0]["spans"]
    by_id = {s["id"]: s for s in spans}
    gram = next(s for s in spans if s["name"] == "quadrature.discrete_gram")
    assert by_id[gram["parent"]]["name"] == "quadrature.mz_constant"
    basis = next(s for s in spans if s["parent"] == gram["id"])
    assert basis["name"] == "harmonics.eval_basis_block"
    for s in spans:
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]


def test_tracing_restores_the_library():
    original = quadrature.discrete_gram
    with tracing.traced(tracing.Tracer()):
        assert quadrature.discrete_gram is not original
    assert quadrature.discrete_gram is original


def test_checks_catch_wrong_outputs(traced_passes):
    passes, _ = traced_passes["audit_high_degree"]
    goldens = workloads.load_goldens()
    ops = [workloads.Op(op.key, op.n, op.m, op.seconds, dict(op.values), op.exact)
           for op in passes[0]["ops"]]
    inexact = next(op for op in ops if not op.exact and "eta" in op.values)
    inexact.values["eta"] *= 1 + 1e-9
    exact = next(op for op in ops if op.exact)
    exact.values["eta"] = 1e-10
    nan = next(op for op in ops if op.key.startswith("project_reference"))
    nan.values["coeff_norm"] = math.nan
    workloads.check_pass("audit_high_degree", 0, ops, goldens)
    assert [op.key for op in ops if op.failed] == [inexact.key, exact.key, nan.key]


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_random",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

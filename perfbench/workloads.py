"""The benchmark's workloads, their operations, and the checks on their outputs.

Each workload is one closed-loop pass of calls into sphyper, made by one
caller.  A pass returns one `Op` per operation: a sweep cell, an
`audited_fit` or a `project_reference`.  Calls go through the module
attributes (`hyperinterp.audited_fit`, not an imported name) so that
`tracing.traced` sees them.

Outputs are checked against goldens recorded at the seed commit
(`goldens.json`, written by `make_goldens.py`) at a relative tolerance of
1e-12, and against invariants that hold for every seed.
"""

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import sph_harm_y

from sphyper import analysis, experiments, hyperinterp, pointsets, testfuncs

GOLDENS = Path(__file__).resolve().parent / "goldens.json"

# |x - golden| <= RTOL * max(|golden|, 1).  eta and l2_error are differences
# of O(1) quantities (Gram eigenvalues and 1, f and its fit), so below 1
# their rounding is absolute, not relative to their size.
RTOL = 1e-12
# eta of a rule exact to degree 2n is 0 in exact arithmetic (the paper's
# claim); what remains is rounding in the Gram accumulation and eigensolve
EXACT_ETA_MAX = 1e-11
# quadrature.mz_constant switches from eigvalsh to eigsh above this dim
EIGSH_DIM = 2000

SWEEP_RANDOM = dict(experiment="sweep_random", function="f3", points="random",
                    n_list=(6, 15), m_list=(100_000, 1_000_000), repetitions=1)
SWEEP_EQUAL_AREA = dict(experiment="sweep_equal_area", function="f4_2",
                        points="equal_area", n_list=tuple(range(4, 25, 2)),
                        m_list=(10_000, 100_000))
AUDIT_DEGREES = (30, 36, 40, 44, 46)


@dataclass
class Op:
    """One operation of a pass: its size, time, outputs and verdict."""

    key: str
    n: int
    m: int = 0                    # nodes of the rule the op fits with
    seconds: float = math.nan
    values: dict = field(default_factory=dict)
    exact: bool = False           # rule exact to degree 2n, so eta must be ~0
    error: str | None = None
    problems: list = field(default_factory=list)

    @property
    def work(self):
        """(n+1)^2 * m: basis values in one evaluation at the op's nodes."""
        return (self.n + 1) ** 2 * self.m

    @property
    def failed(self):
        return self.error is not None or bool(self.problems)

    @property
    def eigsh(self):
        """Whether the op's MZ audit took the eigsh branch (None: no audit)."""
        if "eta" not in self.values:
            return None
        return (self.n + 1) ** 2 > EIGSH_DIM


def warm_up():
    """One small audited fit, so that first-call costs stay out of a pass."""
    import scipy.sparse.linalg  # noqa: F401  (mz_constant imports it for dim > 2000)

    rule = pointsets.equal_weight_rule(pointsets.random_uniform(500, 0), "random")
    hyperinterp.audited_fit(rule, testfuncs.f3, 6)


def _sweep(params, seed):
    config = experiments.SweepConfig(seed=seed, **params)
    ops = [Op(f"n={n} m={m}", n, m) for n in config.n_list for m in config.m_list]
    try:
        rows = experiments.run_sweep(config)
    except Exception as exc:  # a sweep that raises fails every cell
        for op in ops:
            op.error = f"run_sweep raised {exc!r}"
        return ops
    if len(rows) != len(ops):
        for op in ops:
            op.error = f"run_sweep returned {len(rows)} rows for {len(ops)} cells"
        return ops
    for op, row in zip(ops, rows):
        op.seconds = row.wall_time
        if f"n={row.n} m={row.m}" != op.key:
            op.error = f"row for n={row.n} m={row.m} where {op.key} was expected"
        op.values = {"eta": row.eta, "l2_error": row.l2, "coeff_norm": row.coeff_norm}
    return ops


def sweep_random(seed):
    return _sweep(SWEEP_RANDOM, seed)


def sweep_equal_area(seed):
    return _sweep(SWEEP_EQUAL_AREA, seed)


def _coeff_values(h):
    c = h.coeffs
    return {"coeff_norm": float(np.linalg.norm(c)),
            "coeff_checksum": float(c @ np.cos(np.arange(c.size)))}


def _run(op, body):
    start = time.perf_counter()
    try:
        op.values = body(op)
    except Exception as exc:  # counted as a failed operation
        op.error = repr(exc)
    op.seconds = time.perf_counter() - start
    return op


def _audit(op, f, rule):
    op.m = rule.m
    h = hyperinterp.audited_fit(rule, f, op.n)
    return {"eta": h.eta_used, **_coeff_values(h)}


def _project(op, f, ref):
    op.m = ref.m
    return _coeff_values(hyperinterp.project_reference(f, op.n, ref))


def audit_high_degree(seed):
    """For each n: audited fits on an equal-area and an exact Gauss rule,
    then the reference projection.  The inputs do not depend on the seed.
    Each op's time includes building its rule."""
    f = testfuncs.by_name("f3")
    ops = []
    for n in AUDIT_DEGREES:
        ops.append(_run(Op(f"audited_fit equal_area n={n}", n), lambda op: _audit(
            op, f, pointsets.equal_weight_rule(
                pointsets.equal_area(4 * (op.n + 1) ** 2), "equal_area"))))
        ops.append(_run(Op(f"audited_fit gauss n={n}", n, exact=True), lambda op: _audit(
            op, f, pointsets.product_gauss_rule(op.n + 1))))
        ops.append(_run(Op(f"project_reference n={n}", n), lambda op: _project(
            op, f, analysis.reference_rule_for(op.n))))
    return ops


# name -> (pass function, whether its inputs depend on the seed)
WORKLOADS = {
    "sweep_random": (sweep_random, True),
    "sweep_equal_area": (sweep_equal_area, False),
    "audit_high_degree": (audit_high_degree, False),
}


def golden_key(workload, seed):
    return f"seed={seed}" if WORKLOADS[workload][1] else "any"


def load_goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def close(value, golden):
    return abs(value - golden) <= RTOL * max(abs(golden), 1.0)


def check_pass(workload, seed, ops, goldens):
    """Record in each op's `problems` every check its outputs fail."""
    golden = goldens.get(workload, {}).get(golden_key(workload, seed), {})
    seeded = WORKLOADS[workload][1]
    for op in ops:
        if op.error is not None:
            continue
        if not seeded and op.key not in golden:
            op.problems.append("no golden recorded")
        for name, value in op.values.items():
            if not math.isfinite(value):
                op.problems.append(f"{name} = {value}")
        eta = op.values.get("eta")
        if eta is not None and not 0.0 <= eta < 1.0:
            op.problems.append(f"eta = {eta} outside [0, 1)")
        if op.exact and eta is not None and eta > EXACT_ETA_MAX:
            op.problems.append(f"exact rule: eta = {eta:.3e} > {EXACT_ETA_MAX:g}")
        if op.values.get("l2_error", 1.0) <= 0.0:
            op.problems.append("l2_error <= 0")
        for name, want in golden.get(op.key, {}).items():
            if op.exact and name == "eta":
                continue  # rounding noise; checked against EXACT_ETA_MAX above
            got = op.values.get(name)
            if got is None or not close(got, want):
                op.problems.append(f"{name} = {got!r}, golden {want!r}")
    if workload == "sweep_random":
        _check_against_oracle(seed, ops)


def _oracle_basis(n, points):
    """Real orthonormal basis from scipy's complex Y_l^m; any such basis gives
    the same eta, coefficient norm and fitted polynomial."""
    theta = np.arccos(np.clip(points[:, 2], -1.0, 1.0))
    phi = np.arctan2(points[:, 1], points[:, 0])
    rows = []
    for ell in range(n + 1):
        for k in range(ell + 1):
            y = sph_harm_y(ell, k, theta, phi)
            rows += [y.real] if k == 0 else [math.sqrt(2) * y.real, math.sqrt(2) * y.imag]
    return np.array(rows)


def _check_against_oracle(seed, ops):
    """Recompute the smallest sweep_random cell without sphyper's basis,
    Gram, fit or error code, so that every seed gets an exact check."""
    op = min(ops, key=lambda o: o.work)
    if op.failed:
        return
    n, m = op.n, op.m
    f = testfuncs.by_name(SWEEP_RANDOM["function"])
    points = pointsets.random_uniform(m, experiments.cell_seed(seed, n, m, 0))
    weights = np.full(m, 4.0 * math.pi / m)
    ref = analysis.reference_rule_for(n)
    B = _oracle_basis(n, points)
    lam = np.linalg.eigvalsh((B * weights) @ B.T)
    coeffs = B @ (weights * f(points))
    diff = f(ref.points) - coeffs @ _oracle_basis(n, ref.points)
    oracle = {"eta": max(abs(lam[0] - 1.0), abs(lam[-1] - 1.0)),
              "l2_error": math.sqrt(float(ref.weights @ (diff * diff))),
              "coeff_norm": float(np.linalg.norm(coeffs))}
    for name, want in oracle.items():
        if not close(op.values[name], want):
            op.problems.append(f"{name} = {op.values[name]!r}, oracle {want!r}")


def eta_rel_spread(workload, passes, goldens, eigsh):
    """Largest (max - min) / |median| of eta over repeated identical inputs.

    `passes` holds (seed, ops) pairs.  Ops with the same key and golden key
    had the same inputs; the golden value joins them.  Only inexact rules
    on the given eigensolver branch count.
    """
    seen = {}
    for seed, ops in passes:
        gkey = golden_key(workload, seed)
        golden = goldens.get(workload, {}).get(gkey, {})
        for op in ops:
            if op.exact or op.failed or op.eigsh != eigsh:
                continue
            etas = seen.setdefault((gkey, op.key), [])
            if not etas and "eta" in golden.get(op.key, {}):
                etas.append(golden[op.key]["eta"])
            etas.append(op.values["eta"])
    return max([(max(e) - min(e)) / abs(float(np.median(e))) for e in seen.values()],
               default=0.0)

"""Command-line harness: point-set generation, eta reports, sweeps, checks.

Exit codes: 0 on success, 1 when a check fails, 2 on bad input (unknown
kinds, malformed config or point files, invalid grids).
"""

import argparse
import dataclasses
import filecmp
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from .analysis import uniform_norm_refined
from .harmonics import SPHERE_AREA, eval_basis_block
from .hyperinterp import evaluate_block, evaluate_kernel, fit
from .pointsets import (
    bundled_tdesign_rule,
    bundled_tdesigns,
    equal_area,
    equal_weight_rule,
    product_gauss_rule,
    random_uniform,
    source_points,
    source_rule,
)
from .quadrature import discrete_gram, exactness_degree, mz_constant
from .testfuncs import by_name, wendland_delta, wendland_phi
from . import experiments

# CLI kind -> point source of pointsets.source_points
POINT_KINDS = {"random": "random", "equal-area": "equal_area",
               "gauss-product": "gauss_product", "load": "loaded"}


def _source_args(args):
    return dict(source=POINT_KINDS[args.kind], m=args.m, seed=args.seed,
                order=args.gauss_order, path=args.path)


def _write_points(out, points, weights):
    lines = []
    for i, p in enumerate(points):
        row = " ".join(f"{c:+.17e}" for c in p)
        if weights is not None:
            row += f" {weights[i]:.17e}"
        lines.append(row)
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_points(args):
    _write_points(args.out, *source_points(**_source_args(args)))
    return 0


def cmd_eta(args):
    rule = source_rule(**_source_args(args))
    report = mz_constant(rule, args.n)
    print("n,dim,m,eta,lambda_min,lambda_max,rank_deficient")
    print(f"{report.n},{report.dim},{rule.m},{report.eta:.17g},"
          f"{report.lambda_min:.17g},{report.lambda_max:.17g},"
          f"{str(report.rank_deficient).lower()}")
    return 0


def parse_config(path):
    """Plain `key = value` text; '#' starts a comment; a key appears once."""
    raw = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        if key in raw:
            raise ValueError(f"{path}:{lineno}: key {key!r} is set twice")
        raw[key] = value
    return raw


# config keys that differ from the SweepConfig field they set
_FIELD_KEYS = {"n_list": "n", "m_list": "m"}
# output-path keys, and the default path's suffix after the experiment name
_OUTPUT_KEYS = {"out": ".csv", "aggregate_out": "_agg.csv", "times_out": "_times.csv"}


def config_from_file(path):
    """SweepConfig and output paths of a config file.  Its keys are the
    fields that are not per-run; a key it leaves out keeps the default."""
    raw = parse_config(path)
    fields = {_FIELD_KEYS.get(f.name, f.name): f
              for f in dataclasses.fields(experiments.SweepConfig)
              if not f.metadata.get("per_run")}
    unknown = set(raw) - set(fields) - set(_OUTPUT_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    missing = {key for key, f in fields.items()
               if f.default is dataclasses.MISSING} - set(raw)
    if missing:
        raise ValueError(f"{path}: missing config keys {sorted(missing)}")
    try:
        # a tuple field is a comma-separated list of integers
        config = experiments.SweepConfig(**{
            f.name: (tuple(int(v) for v in raw[key].split(","))
                     if f.type is tuple else f.type(raw[key]))
            for key, f in fields.items() if key in raw})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    outs = {key: raw.get(key, config.experiment + suffix)
            for key, suffix in _OUTPUT_KEYS.items()}
    return config, outs


def cmd_sweep(args):
    config, outs = config_from_file(args.config)
    config = dataclasses.replace(config, force=args.force, workers=args.workers)
    if args.out:
        outs["out"] = args.out
    rows = experiments.run_sweep(config)
    experiments.write_cells(outs["out"], rows)
    experiments.write_aggregates(outs["aggregate_out"], rows)
    experiments.write_times(outs["times_out"], rows)
    for line in experiments.advisory_lines(rows):
        print(line)
    print(f"{config.experiment}: {len(rows)} cells -> {outs['out']}, "
          f"{outs['aggregate_out']}, {outs['times_out']}")
    return 0


# ---------------------------------------------------------------------------
# checks


def check_addition_theorem():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((20, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y = rng.standard_normal((20, 3))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    bx = eval_basis_block(10, x)
    by = eval_basis_block(10, y)
    worst = 0.0
    for ell in range(11):
        lo, hi = ell * ell, (ell + 1) ** 2
        lhs = (bx[lo:hi] * by[lo:hi]).sum(axis=0)
        rhs = (2 * ell + 1) / SPHERE_AREA * np.polynomial.legendre.legval(
            (x * y).sum(axis=1), [0.0] * ell + [1.0])
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst < 1e-12, f"max deviation {worst:.3e}"


def check_gauss_exactness():
    eta = mz_constant(product_gauss_rule(8), 7).eta
    degree = exactness_degree(product_gauss_rule(4), max_scan=8).degree
    ok = eta < 1e-10 and degree == 7
    return ok, f"eta(order 8, n=7)={eta:.3e}, exactness(order 4)={degree}"


def check_design_exactness():
    details = []
    ok = True
    for t in sorted(bundled_tdesigns()):
        rule = bundled_tdesign_rule(t)
        degree = exactness_degree(rule, max_scan=t + 1).degree
        ok = ok and degree >= t
        details.append(f"t={t}:{degree}")
    return ok, "verified degrees " + " ".join(details)


def _lemma31_rules():
    return (
        ("random-20000", equal_weight_rule(random_uniform(20000, 123), "random")),
        ("equal-area-5000", equal_weight_rule(equal_area(5000), "equal_area")),
        ("design-t20", bundled_tdesign_rule(20)),
    )


# random polynomials per lemma31_deviations call
_LEMMA31_SAMPLES = 100
_LEMMA31_SEED = 99


def lemma31_deviations(rule, n):
    """Worst signed slack of the three discrete-vs-continuous norm bounds.

    For _LEMMA31_SAMPLES random degree-n polynomials chi with coefficients
    alpha (so the true norm is |alpha|), U_n chi has coefficients G alpha.
    Returns the largest violation (positive = broken) of
      (a) (1-eta)|chi|^2 <= <U_n chi, chi> <= (1+eta)|chi|^2,
      (b) (1-eta)|chi|  <= |U_n chi|    <= (1+eta)|chi|,
      (c) |U_n chi - chi|^2 <= (eta^2 + 4 eta)|chi|^2.
    """
    report = mz_constant(rule, n)
    eta = report.eta
    gram = discrete_gram(rule, n)
    rng = np.random.default_rng(_LEMMA31_SEED)
    alpha = rng.standard_normal((gram.shape[0], _LEMMA31_SAMPLES))
    g_alpha = gram @ alpha
    norm2 = (alpha * alpha).sum(axis=0)
    inner = (alpha * g_alpha).sum(axis=0)
    u_norm = np.sqrt((g_alpha * g_alpha).sum(axis=0))
    diff2 = ((g_alpha - alpha) ** 2).sum(axis=0)
    worst = max(
        float(((1 - eta) * norm2 - inner).max()),
        float((inner - (1 + eta) * norm2).max()),
        float(((1 - eta) * np.sqrt(norm2) - u_norm).max()),
        float((u_norm - (1 + eta) * np.sqrt(norm2)).max()),
        float((diff2 - (eta * eta + 4 * eta) * norm2).max()),
    )
    return worst, eta


def check_lemma31():
    worst_all = -math.inf
    details = []
    for name, rule in _lemma31_rules():
        worst, eta = lemma31_deviations(rule, 10)
        worst_all = max(worst_all, worst)
        details.append(f"{name}: eta={eta:.3g} slack={worst:.2e}")
    return worst_all <= 1e-8, "; ".join(details)


def check_stability():
    ok = True
    details = []
    for fname in ("f1", "f3"):
        f = by_name(fname)
        rule = equal_weight_rule(equal_area(2000), "equal_area")
        eta = mz_constant(rule, 8).eta
        h = fit(rule, f, 8)
        lhs = float(np.linalg.norm(h.coeffs))
        bound = math.sqrt(1 + eta) * math.sqrt(rule.weight_sum) \
            * uniform_norm_refined(f) * (1 + 1e-6)
        ok = ok and lhs <= bound
        details.append(f"{fname}: |U_n f|={lhs:.4g} <= {bound:.4g}")
    return ok, "; ".join(details)


def check_reproducibility():
    with tempfile.TemporaryDirectory() as tmp:
        cfg = experiments.SweepConfig(experiment="repro", function="f1",
                                      points="random", n_list=(3,),
                                      m_list=(200,), repetitions=3, seed=7)
        paths = []
        for tag in ("a", "b"):
            rows = experiments.run_sweep(cfg)
            cell = str(Path(tmp) / f"cells_{tag}.csv")
            agg = str(Path(tmp) / f"agg_{tag}.csv")
            experiments.write_cells(cell, rows)
            experiments.write_aggregates(agg, rows)
            paths.append((cell, agg))
        same = (filecmp.cmp(paths[0][0], paths[1][0], shallow=False)
                and filecmp.cmp(paths[0][1], paths[1][1], shallow=False))
    return same, "two runs byte-identical (cells + aggregates)"


def check_equal_area_geometry():
    for m in (10, 100, 1000):
        pts = equal_area(m)
        if len(pts) != m:
            return False, f"m={m}: wrong count {len(pts)}"
        norms = np.linalg.norm(pts, axis=1)
        if np.abs(norms - 1).max() > 1e-12:
            return False, f"m={m}: points off the sphere"
        dots = np.clip(pts @ pts.T, -1, 1)
        np.fill_diagonal(dots, -1)
        min_dist = float(np.arccos(dots.max()))
        if min_dist <= 0:
            return False, f"m={m}: duplicate points"
        rule = equal_weight_rule(pts, "equal_area")
        if abs(rule.weight_sum - SPHERE_AREA) > 1e-12:
            return False, f"m={m}: weights do not sum to 4*pi"
    return True, "counts, unit norms, separation, weight sums for m in {10,100,1000}"


def check_wendland_values():
    checks = [
        (wendland_delta(0), 3 * math.sqrt(math.pi) / 2),
        (wendland_delta(1), 3 * math.sqrt(math.pi) / 2),
        (wendland_delta(2), 27 * math.sqrt(math.pi) / 16),
        (wendland_phi(1, wendland_delta(1) / 2), 3.0 / 16.0),
    ]
    worst = max(abs(a - b) for a, b in checks)
    zero_ok = all(wendland_phi(s, 10.0) == 0.0 for s in range(5))
    one_ok = all(abs(wendland_phi(s, 0.0) - 1.0) < 1e-15 for s in range(5))
    ok = worst < 1e-13 and zero_ok and one_ok
    return ok, f"max deviation {worst:.2e}; phi(0)=1 and phi(10)=0 for all sigma"


def check_kernel_consistency():
    rng = np.random.default_rng(11)
    rule = equal_weight_rule(random_uniform(400, 42), "random")
    f = by_name("f3")
    h = fit(rule, f, 5)
    x = rng.standard_normal((10, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    direct = evaluate_block(h, x)
    kernel = evaluate_kernel(rule, f, 5, x)
    worst = float(np.abs(direct - kernel).max())
    return worst < 1e-9, f"basis vs kernel evaluation, max deviation {worst:.2e}"


CHECKS = (
    ("addition-theorem", check_addition_theorem),
    ("gauss-exactness", check_gauss_exactness),
    ("design-exactness", check_design_exactness),
    ("lemma31", check_lemma31),
    ("stability", check_stability),
    ("kernel-consistency", check_kernel_consistency),
    ("reproducibility", check_reproducibility),
    ("equal-area-geometry", check_equal_area_geometry),
    ("wendland-values", check_wendland_values),
)


def cmd_check(args):
    selected = [(name, fn) for name, fn in CHECKS
                if args.filter is None or args.filter in name]
    if not selected:
        raise ValueError(f"no checks match filter {args.filter!r}; "
                         f"available: {', '.join(name for name, _ in CHECKS)}")
    failures = 0
    for name, fn in selected:
        ok, detail = fn()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{len(selected) - failures}/{len(selected)} checks passed")
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sphyper",
        description="Hyperinterpolation on the sphere with inexact quadrature")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("points", help="generate or echo a point set")
    p.add_argument("--kind", choices=POINT_KINDS, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gauss-order", type=int,
                   help="rule order for gauss-product (2*order^2 points)")
    p.add_argument("--path", help="input file for kind 'load'")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("eta", help="spectral deviation of a rule's Gram matrix")
    p.add_argument("--kind", choices=POINT_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gauss-order", type=int)
    p.add_argument("--path")
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser("sweep", help="run an experiment grid from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override the per-cell CSV path")
    p.add_argument("--force", action="store_true",
                   help="allow rank-deficient cells ((n+1)^2 > m)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", help="run the invariant suite")
    p.add_argument("--filter", help="run only checks whose name contains this")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

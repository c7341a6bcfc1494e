"""Command-line harness: point-set generation, eta reports, sweeps, checks.

Exit codes: 0 on success, 1 when a check fails, 2 on bad input (unknown
kinds, malformed config or point files, invalid grids).
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from .checks import CHECKS
from .pointsets import source_points, source_rule
from .quadrature import mz_constant
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

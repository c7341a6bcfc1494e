"""Benchmark of the sphyper library, run from the root of a source checkout.

    python3 perfbench/run.py --workload sweep_random --seed 0 --seconds 36 --trace 0

Imports sphyper from the checkout's `src/` and runs the workload in this
one process, as repeated closed-loop passes, until the next pass would end
after `--seconds`.  Set-up time is measured in child processes started
between the passes.
Every operation's outputs are checked.  The last line of standard output is
a JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
A traced run alternates untraced and traced passes, so it also reports the
tracing overhead.  A record of the run (environment, passes, spans) is
written to `perfbench/out/`.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up probes (child processes) run before each pass and after the last;
# spread over the run, they sample the host's slow and fast spells alike
PROBES_PER_GAP = 2
BLAS_THREADS = 1

END_TO_END_UNITS = {"wall_s": "s", "largest_cell_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "success_frac": "ratio"}


def limit_blas_threads():
    """Pin BLAS to one thread, never more than nproc; returns nproc.

    On a shared 2-core VM, two BLAS threads made pass times spread twice as
    wide (about 7% against 3.5%) for a 1.3x speed-up, and single-threaded
    self times attribute work to layers without counting spin-waits.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def setup_seconds():
    """Import of numpy, scipy and sphyper plus one warm-up call, timed in a
    fresh process (it cannot be repeated inside one)."""
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def environment(seed, nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "sphyper").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS,
            "nproc": nproc, "cpu_model": cpu_model(), "seed": seed}


def cpu_model():
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def run_pass(workload_fn, seed, traced):
    tracer = tracing.Tracer()
    scope = tracing.traced(tracer) if traced else contextlib.nullcontext()
    with scope:
        start = time.perf_counter()
        ops = workload_fn(seed)
        wall = time.perf_counter() - start
    return {"seed": seed, "traced": traced, "wall_s": wall, "ops": ops,
            "spans": tracer.spans}


def run_passes(workload_fn, seed, seconds, trace):
    """Closed loop: start another pass while it is predicted to end in time.

    Pass i runs with seed + i.  A traced run alternates untraced and traced
    passes and always makes at least one of each.  Returns the passes and
    the set-up times of the probes run between them.
    """
    passes, setup = [], []
    start = time.perf_counter()
    while True:
        setup += [setup_seconds() for _ in range(PROBES_PER_GAP)]
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload_fn, seed + len(passes), traced))
        elapsed = time.perf_counter() - start
        need_traced = trace and not any(p["traced"] for p in passes)
        if elapsed * (len(passes) + 1) / len(passes) > seconds and not need_traced:
            setup += [setup_seconds() for _ in range(PROBES_PER_GAP)]
            return passes, setup


def end_to_end(passes, setup, failed, attempted):
    largest = [max(p["ops"], key=lambda op: op.work).seconds for p in passes]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "largest_cell_s": statistics.median(largest),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_frac": 1.0 - failed / attempted,
    }


def per_layer(workload, passes, goldens):
    import workloads

    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    per_pass = [tracing.layer_metrics(p["spans"], p["wall_s"],
                                      sum(op.work for op in p["ops"]))
                for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    by_seed = [(p["seed"], p["ops"]) for p in passes]
    metrics["quadrature.eigsh_eta_rel_spread"] = workloads.eta_rel_spread(
        workload, by_seed, goldens, eigsh=True)
    metrics["quadrature.eigvalsh_eta_rel_spread"] = workloads.eta_rel_spread(
        workload, by_seed, goldens, eigsh=False)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return metrics


def write_record(args, env, setup, passes, metrics):
    OUT.mkdir(exist_ok=True)
    record = {
        "env": env, "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "setup_s": setup, "metrics": metrics,
        "passes": [{"seed": p["seed"], "traced": p["traced"], "wall_s": p["wall_s"],
                    "ops": [vars(op) for op in p["ops"]], "spans": p["spans"]}
                   for p in passes],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sphyper" / "__init__.py").is_file():
        print(f"error: no sphyper sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    nproc = limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import sphyper
    import workloads

    if not Path(sphyper.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported sphyper from {sphyper.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(args.seed, nproc)
    print("env", json.dumps(env))

    workloads.warm_up()
    workload_fn = workloads.WORKLOADS[args.workload][0]
    passes, setup = run_passes(workload_fn, args.seed, args.seconds, bool(args.trace))

    goldens = workloads.load_goldens()
    attempted = failed = 0
    for p in passes:
        workloads.check_pass(args.workload, p["seed"], p["ops"], goldens)
        attempted += len(p["ops"])
        failed += sum(op.failed for op in p["ops"])
        print(f"pass seed={p['seed']} traced={int(p['traced'])} wall_s={p['wall_s']:.4f}")
        for op in p["ops"]:
            if op.failed:
                print(f"  FAIL {op.key}: {op.error or '; '.join(op.problems)}")

    if args.trace:
        metrics = per_layer(args.workload, passes, goldens)
    else:
        metrics = end_to_end(passes, setup, failed, attempted)
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(f"record {write_record(args, env, setup, passes, metrics)}")
    units = tracing.UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        label = " (computed)" if name in tracing.COMPUTED else ""
        print(f"{name} {value:.6g} {units[name]}{label}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

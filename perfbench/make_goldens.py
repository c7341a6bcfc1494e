"""Record the outputs the benchmark checks its runs against.

    python3 perfbench/make_goldens.py

Runs one untraced pass of every workload with the library in `src/` and
writes perfbench/goldens.json: per operation, eta, l2_error and the
coefficient norm (and a coefficient checksum where the coefficients are
visible).  sweep_random gets one entry per seed in GOLDEN_SEEDS: 0 is the
default seed, 1 is held out (not used while the tolerance was chosen).  The
other workloads do not depend on the seed and get one entry.  Regenerate
only when a change is meant to alter these outputs.
"""

import json
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
GOLDEN_SEEDS = (0, 1)


def main():
    run.limit_blas_threads()
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    workloads.warm_up()
    goldens = {}
    for name, (fn, seeded) in workloads.WORKLOADS.items():
        for seed in GOLDEN_SEEDS if seeded else (0,):
            ops = fn(seed)
            bad = [op.key for op in ops if op.error is not None]
            if bad:
                raise SystemExit(f"{name}: operations failed, no goldens written: {bad}")
            goldens.setdefault(name, {})[workloads.golden_key(name, seed)] = {
                op.key: op.values for op in ops}
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.GOLDENS}")


if __name__ == "__main__":
    main()

"""Run every preset sweep config and drop the CSVs in an output directory.

    python scripts/run_figures.py [--outdir results] [--only fig3]

Each config in scripts/configs/ becomes three CSVs ({experiment}.csv,
{experiment}_agg.csv, {experiment}_times.csv).  fig2b reaches m = 1e6 and
dominates the runtime: all twelve configs took 16.0-16.8 s on a 2-vCPU VM
at the default BLAS threads, 12.1-13.0 s of it fig2b and under 3 s each
for the others.  The library's sums run on one BLAS thread at any thread
count, so the CSVs are the same bytes.
"""

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sphyper.cli import main as cli_main  # noqa: E402

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--only", help="run only configs whose name contains this")
    args = parser.parse_args()

    configs = sorted(CONFIG_DIR.glob("*.cfg"))
    if args.only:
        configs = [c for c in configs if args.only in c.stem]
    if not configs:
        raise SystemExit(f"no configs match {args.only!r}")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)

    for config in configs:
        start = time.perf_counter()
        code = cli_main(["sweep", "--config", str(config)])
        if code != 0:
            raise SystemExit(f"{config.name} failed with exit code {code}")
        print(f"{config.stem}: done in {time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()

"""Times, in a fresh process, what every benchmark run pays before its first
pass: importing numpy, scipy and sphyper from the checkout, and one warm-up
call.  Prints the seconds.  Started by run.py, which reports the median."""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402  (imports numpy, scipy and sphyper)

workloads.warm_up()
print(time.perf_counter() - start)

"""Set-up time in a fresh interpreter: import cpmoments and build a job list.

Run by run.py as ``python3 perfbench/setup_probe.py <workload> <seed> <out_dir>``;
prints the elapsed seconds and then the time of one host-speed reference
computation (median of three) made right after (see hostspeed.py).  Interpreter start-up is not
included.
"""

import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

start = time.perf_counter()
import cpmoments.cli  # noqa: E402,F401
from workloads import build_jobs  # noqa: E402

build_jobs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
elapsed = time.perf_counter() - start

import hostspeed  # noqa: E402  (after the timed region)

print(repr(elapsed), repr(statistics.median(hostspeed.reference_time() for _ in range(3))))

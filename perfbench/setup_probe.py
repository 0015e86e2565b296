"""Print the seconds a fresh interpreter needs to import priopoll and build
and validate one workload's models, then the median time of the reference
kernel of ``speed.py`` in the same interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

start = time.perf_counter()
import priopoll  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
setup_s = time.perf_counter() - start

import speed  # noqa: E402

for _ in range(2):   # warm-up: the first calls are slower in a fresh interpreter
    speed.time_reference()
print(setup_s, statistics.median(speed.time_reference() for _ in range(7)))

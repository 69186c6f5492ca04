"""Time a workload's set-up in a fresh process.

Usage: python3 bench/probe.py <src dir> <workload> <input files...>

Prints the seconds taken to import groupoidlab, parse the workload's
input documents and build its model graphs.
"""

import sys
import time

import workloads

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
workloads.setup(sys.argv[2], sys.argv[3:])
print(time.perf_counter() - start)

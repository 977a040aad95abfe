"""CPU speed probe: ``python3 bench/probe.py CPU``.

Pins itself to one CPU and, every PERIOD_S, times a fixed piece of
reference work (small NumPy eigensolves and a Python loop, the same mix of
work as the package) in thread CPU time.  Each sample is printed as
``<start> <end> <cpu seconds>``, the first two from perf_counter.  It stops
when its stdin is closed.

On a shared virtual machine a CPU can run the same code 1.7 times slower for
seconds at a time while a neighbour is busy.  The benchmark scales each
measured interval by the probe samples of the CPUs that did the work, so the
reported timings are at reference speed and do not depend on that phase.
"""

from __future__ import annotations

import os
import select
import sys
from time import perf_counter, thread_time

import numpy as np

PERIOD_S = 0.05
_MATRIX = np.add.outer(np.arange(4.0), np.arange(4.0))


def reference_work() -> None:
    for _ in range(40):
        np.linalg.eigh(_MATRIX)
    total = 0
    for i in range(4000):
        total += i * i


def main(cpu: int) -> int:
    os.sched_setaffinity(0, {cpu})
    while True:
        start, cpu_start = perf_counter(), thread_time()
        reference_work()
        cpu = thread_time() - cpu_start
        print(f"{start!r} {perf_counter()!r} {cpu!r}", flush=True)
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))

"""Reference kernel that bench/run.py times to follow the host's speed.

    python3 bench/speed.py

Runs in a process of its own, so that nothing rgcl leaves in the
workload's process (heap, imported modules, threads) moves its time.  For
each line read from stdin it runs the kernel once and writes the seconds it
took as one line to stdout; it exits at the end of its input.
"""

import sys
import time

import numpy as np


def reference_kernel():
    """Fixed work in about equal parts like the workloads' three kinds:
    Python bytecode (the oracle), small dense products with exp (a B=128
    step) and row blocks of an n=2000 product (a full-batch evaluation).
    Blocks of 100 rows keep its memory far below any workload's peak."""
    acc = 0.0
    for i in range(120000):
        acc += (i * i) % 7
    x = np.linspace(-1.0, 1.0, 128 * 16).reshape(128, 16)
    for _ in range(150):
        acc += float(np.exp(x @ x.T / 0.3).sum())
    y = np.linspace(-1.0, 1.0, 2000 * 16).reshape(2000, 16)
    for rows in range(0, 600, 100):
        acc += float(np.exp(y[rows:rows + 100] @ y.T).sum())
    return acc


def main():
    for _ in sys.stdin:
        t0 = time.perf_counter()
        reference_kernel()
        print(repr(time.perf_counter() - t0), flush=True)


if __name__ == "__main__":
    main()

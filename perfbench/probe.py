"""Time one benchmark set-up in a fresh interpreter and print the seconds.

Usage: ``python3 perfbench/probe.py <workload>``.  The timed region is the
one the benchmark process times of itself, through the same function
(:func:`perfbench.run.timed_setup`): importing ``repro``, and with it NumPy,
and warming the workload.  The seconds are scaled to the reference host
speed (:mod:`perfbench.speed`) with reference samples taken right after the
set-up; the reference kernel is imported only then, so that its NumPy
import stays inside the timed region.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Reference kernel runs behind one set-up sample.
REFERENCE_SAMPLES = 15


def main(argv) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.run import timed_setup
    from perfbench.workloads import WORKLOADS

    elapsed = timed_setup(WORKLOADS[argv[0]])
    from perfbench.speed import ReferenceKernel, speed_factor

    kernel = ReferenceKernel()
    print(repr(elapsed * speed_factor([kernel.sample() for _ in range(REFERENCE_SAMPLES)])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

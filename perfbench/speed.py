"""Host-speed reference: a fixed kernel timed between requests.

The machines this benchmark runs on share their CPUs; their speed drifts by
up to a third within minutes, and every wall-clock figure drifts with it.
The benchmark therefore times a fixed reference kernel after every request
(outside the request's own timing) and scales its timings by
``REFERENCE_SECONDS / median(reference samples)``: a timing is reported in
seconds of a host on which the kernel takes ``REFERENCE_SECONDS``.  Run
totals use the median of the whole run; a single request's latency uses the
median of the few samples around it (:func:`local_speed_factors`), because
the host also slows down for seconds at a time and a slow spell would
otherwise become the latency tail.  The kernel
spends about half its time in NumPy sorting (as in the BFS kernels) and half
in an interpreted loop (as in the experiment code): when the host slows down,
interpreted code slows down more than NumPy code, and that balance tracked
every workload's drift better than a NumPy-heavy kernel.  It touches no
``repro`` code, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy as np

__all__ = ["REFERENCE_SECONDS", "ReferenceKernel", "speed_factor", "local_speed_factors"]

#: Reference samples around a request that scale its latency.
LOCAL_WINDOW = 5

#: Nominal duration of one reference kernel run (2-CPU x86 container, NumPy 2.4).
REFERENCE_SECONDS = 0.0125


class ReferenceKernel:
    """The fixed reference work; :meth:`sample` times one run of it."""

    def __init__(self) -> None:
        self._keys = np.random.default_rng(2024).integers(0, 10**9, 30_000)

    def sample(self) -> float:
        started = time.perf_counter()
        unique = np.unique(self._keys)
        ordered = np.sort(self._keys)
        total = 0
        for value in range(80_000):
            total += value * value % 7
        elapsed = time.perf_counter() - started
        if unique.size > ordered.size or total < 0:  # consume every result
            raise AssertionError("reference kernel produced an impossible result")
        return elapsed


def speed_factor(samples: Sequence[float]) -> float:
    """Scale from measured wall seconds to reference seconds."""
    return REFERENCE_SECONDS / statistics.median(samples)


def local_speed_factors(samples: Sequence[float]) -> List[float]:
    """Per-sample scale: :data:`REFERENCE_SECONDS` over the median of the
    :data:`LOCAL_WINDOW` samples centred on it (fewer at the ends)."""
    half = LOCAL_WINDOW // 2
    return [
        REFERENCE_SECONDS / statistics.median(samples[max(0, index - half) : index + half + 1])
        for index in range(len(samples))
    ]

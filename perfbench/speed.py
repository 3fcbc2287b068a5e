"""Speed probes: fixed work, timed around each operation, that tracks how
fast the shared machine runs this kind of operation at the moment.

A latency is scaled by `ref_s / probe time`, where `ref_s` is about the
probe's time on an idle 2-vCPU Intel Xeon VM; the probes are the
benchmark's own code, so a library change cannot move them.
"""

import statistics
import subprocess
import sys
import time

import numpy as np

KERNEL_REF_S = 3.0e-4
START_REF_S = 0.2


def reference_kernel() -> float:
    """Seconds taken by fixed interpreter and small-array work, like the
    library's inner loops: the median of seven runs."""
    a = np.arange(3.0)
    times = []
    for _ in range(7):
        t = time.perf_counter()
        s = 0.0
        for i in range(400):
            s += float(np.dot(a, a)) + (i % 7) * 0.5
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def reference_start() -> float:
    """Seconds taken by a fresh interpreter that imports numpy and exits,
    like the start of a CLI process (process creation, unmarshalling and
    loading shared libraries), which the in-process kernel does not track."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t

"""Wall time scaled to a fixed machine speed ("reference seconds").

The host the benchmark was built on changes speed by up to 1.8x over tens
of seconds because other tenants share it, so the raw wall time of one pass
over a workload spread 8-27% between 25-second runs.  The benchmark
therefore times a fixed kernel of interpreter arithmetic and small dense
numpy operations (it calls no package code) right before and right after
each operation, and scales the operation's wall time by REFERENCE_SECONDS
over the mean of the two kernel times.  That removes the slow drift: the
spread fell to 6-10%.  It does not remove the fast jitter inside one
operation (about 15% per operation), which only more samples average out.
"""

import statistics
import time

import numpy

# about the reference_kernel() time on the machine the baseline was recorded
# on (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6) when its host is quiet, so
# that reference seconds are close to wall seconds there
REFERENCE_SECONDS = 0.006


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter arithmetic and small numpy
    operations, the two things the verifier spends its time on."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(10_000):
        acc += (i % 7) * 0.5
    b = numpy.linspace(-0.3, 0.3, 64).reshape(8, 8)
    a = numpy.eye(8)
    for _ in range(1_200):
        a = numpy.tanh(a @ b)
        a[1] -= a[2] * 0.1
    return time.perf_counter() - t0


def machine_speed() -> float:
    """Median of three kernel timings: the current cost of the kernel."""
    return statistics.median(reference_kernel() for _ in range(3))


def reference_seconds(wall_s: float, before: float, after: float) -> float:
    """wall_s at the reference speed, given machine_speed() around it."""
    return wall_s * 2.0 * REFERENCE_SECONDS / (before + after)

"""Calibration kernel: fixed work, written with numpy alone, that slows down
with the machine.

On the shared 2-vCPU virtual machine (Xeon) the benchmark was measured on,
co-tenants slow every process by 1.3-2x for seconds to minutes at a time.
The runner times ``kernel()`` before every operation and scales the
workload's times by ``REFERENCE_S`` over the run's median kernel time,
raised to the workload's ``SENSITIVITY`` (see workloads.py): how far that
workload follows the kernel.  The machine's slow phases are not alike; in
some the kernel slows more than the workloads, in others less, and
numpy-bound work follows it least.  The kernel does not call spokesense, so a
change to the program moves the calibrated time as it moves wall time, while
a slow phase of the machine moves the kernel too.
"""

from __future__ import annotations

import time

import numpy as np

_SIGNAL = np.linspace(0.0, 1.0, 4096)
_SMALL = np.arange(8, dtype=np.float64)

# Seconds the kernel takes on that machine in a quiet phase (Xeon vCPU,
# Python 3.11, numpy 2.4).  Calibrated times are times on a machine that runs
# the kernel this fast.
REFERENCE_S = 0.004



def kernel() -> float:
    """Seconds for a fixed mix of interpreter work, small numpy calls and a
    4096-point numpy FFT, the three kinds of work spokesense does."""
    start = time.perf_counter()
    acc = 0
    for i in range(10000):
        acc += i * i % 7
    for _ in range(1000):
        _SMALL.sum()
        np.maximum(_SMALL, 1.0)
    for _ in range(40):
        np.fft.fft(_SIGNAL)
    return time.perf_counter() - start

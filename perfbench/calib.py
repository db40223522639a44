"""Machine-speed calibration for the end-to-end times.

The 2-core host the benchmark was built on is shared, and the speed of the
same code on it drifts by up to 2x over minutes (verify's median op time read
279 ms in one run and 542 ms four runs later).  A fixed kernel that uses no
dgsym code is therefore timed right after every op and every set-up probe,
and the end-to-end times are reported at reference speed:

    t_reported = t_measured * REF_MS / (kernel time measured beside it)

A change to dgsym moves the op times and not the kernel, so it shows in full;
a change of machine speed moves both.  The kernel mixes the two kinds of work
the workloads do: exact Python arithmetic and containers, and numpy stencils.
A workload whose op is mostly file writing and reading (simulate) adds a
file part: on this host file I/O slows down more than computation when the
host is busy, so a CPU-only kernel under-corrects it.
"""

from __future__ import annotations

import os
from fractions import Fraction
from time import perf_counter

import numpy as np

REF_MS = 20.0  # reported times are scaled to a machine where kernel() takes this

_GRID = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
_ROW = ("0.123456789012345678e+00," * 800 + "\n").encode()


def kernel():
    total = Fraction(0)
    for i in range(1, 700):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)
    table = {str(i): (i, 2 * i) for i in range(3500)}
    a = _GRID
    for _ in range(90):
        a = 0.25 * (np.roll(a, 1, 0) + np.roll(a, -1, 0) + np.roll(a, 1, 1)
                    + np.roll(a, -1, 1)) + 0.01 * np.sin(a)
    return total, len(table), float(a[0, 0])


def file_io(path) -> int:
    """Write, read back and remove twelve 20 kB files under ``path``."""
    os.makedirs(path, exist_ok=True)
    names = [os.path.join(path, f"calib{i}.csv") for i in range(12)]
    for name in names:
        with open(name, "wb") as fh:
            fh.write(_ROW)
    total = 0
    for name in names:
        with open(name, "rb") as fh:
            total += len(fh.read())
        os.remove(name)
    return total


def measure(io_dir=None) -> float:
    """Seconds one kernel() call (plus file_io(io_dir), if given) takes now."""
    t0 = perf_counter()
    kernel()
    if io_dir is not None:
        file_io(io_dir)
    return perf_counter() - t0


def scaled(elapsed: float, kernel_s: float) -> float:
    """``elapsed`` seconds at reference speed, given the kernel time beside it."""
    return elapsed * REF_MS * 1e-3 / kernel_s

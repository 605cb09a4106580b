"""A fixed reference kernel that measures the machine's current speed.

On a shared VM the speed of the same code drifts by up to about 1.6x over
minutes, as other tenants load the host; the slowdown shows in CPU time
too, so the process cannot tell it from its own work. The benchmark runs
this kernel between the timed calls, in the same process and the same
minutes, and scales its times by ``REFERENCE_S / median(kernel times)``.
As far as a slow phase slows the kernel and the solve alike, it cancels
out; perfbench/README.md gives the spreads with and without the scaling.

The kernel uses numpy only, never the package, so a change to the package
cannot move it. Its mix follows the workloads': about two fifths
interpreted Python, element-wise passes and small-array calls, which is
where ``tables``, ``da_trace`` and the set-up spend their time, and three
fifths BLAS products, partly on a block that fits in L3 but not in L2,
which is where ``rings`` and ``grid100`` spend theirs. In trial runs a kernel of Python alone tracked ``tables`` but made
the ``rings`` spread worse, and BLAS alone did the reverse. It runs with
the BLAS thread count of the process and adds about 10 MiB to the peak
resident memory of the process.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# A round figure near the median time of one kernel() call on a 2-vCPU
# Intel Xeon VM (2.1 GHz nominal, OpenBLAS on one thread), where the
# median of one run ranged from about 0.08 s to 0.14 s with the machine's
# phase. It only fixes the unit: scaled times are seconds on a machine of
# that speed.
REFERENCE_S = 0.1

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((5, 5))
_LONG = _rng.standard_normal(100_000)
_SQUARE = _rng.standard_normal((200, 200))
_BLOCK = _rng.standard_normal((400, 400))
_WIDE = _rng.standard_normal((700, 700))      # 3.9 MB: past L2, in L3
_VEC = _rng.standard_normal(700)
# Results go to these buffers, so the kernel makes no large temporary
# allocation that could change how the allocator serves the workload's own
# arrays (glibc moves its mmap threshold after large frees).
_OUT = {a.shape: np.empty(a.shape) for a in (_LONG, _SQUARE, _BLOCK, _VEC)}


def kernel() -> float:
    """Run the reference kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    x = 0
    for i in range(500_000):
        x += i & 7
    for _ in range(1600):
        np.linalg.norm(_SMALL @ _SMALL)
    for _ in range(100):
        np.exp(_LONG, out=_OUT[_LONG.shape]).sum()
    for _ in range(25):
        np.matmul(_SQUARE, _SQUARE, out=_OUT[_SQUARE.shape])
    for _ in range(8):
        np.matmul(_BLOCK, _BLOCK, out=_OUT[_BLOCK.shape])
    for _ in range(130):
        np.matmul(_WIDE, _VEC, out=_OUT[_VEC.shape])
    return time.perf_counter() - t0


def scale(kernel_times) -> float:
    """Factor that turns times measured beside these kernel runs into
    seconds at the reference speed."""
    return REFERENCE_S / statistics.median(kernel_times)

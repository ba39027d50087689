"""The host's speed, measured by a fixed kernel that does not touch fracrat.

The benchmark shares its host with others. The host's speed flips between
faster and slower states several times a second, and the mix of states
drifts over seconds to minutes, so the same fracrat command can take 1.9
times as long in one 30-second run as in another, whatever the seed. To
compare runs made at different moments, the benchmark runs this kernel
between every two commands. It scales each command's time by REFERENCE_S
over the mean of the kernel times on either side of it, to the power
SENSITIVITY (factors()). The figures then read as on a host where the
kernel takes REFERENCE_S.

The kernel is the kind of Python-level work fracrat spends its time on:
Fraction arithmetic on small and 200-bit integers, numpy polynomial
evaluation, float formatting and dict traffic. Products of 10,000-bit
integers, and pointer chases over large lists, tracked the drift worse
and are left out. Over ten sweep runs, the spread (IQR/median) of wall_s,
cmd_p50_ms and cmd_tail_ms was 0.37-0.48 raw, 0.08-0.09 scaled with
SENSITIVITY 1 and 0.02-0.05 with 1.15. A change to fracrat cannot change
the kernel's time, so it moves the scaled figures as it moves the raw ones.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import numpy as np

# Kernel time that the scaled figures assume; about its median on a shared
# 2-vCPU x86-64 host with CPython 3.11.
REFERENCE_S = 0.005

# fracrat's commands slow down more than the kernel when the host does: on
# that host, over ten runs of each workload, run medians still rose with
# the kernel time after scaling by it, and a kernel slowdown of r matched a
# command slowdown of about r ** 1.15 (sweep about r ** 1.25, numeric about
# r ** 1.0, symbolic between).
SENSITIVITY = 1.15

_RNG = random.Random(0)
_MID = [Fraction(_RNG.getrandbits(200) + 1, _RNG.getrandbits(200) + 1) for _ in range(30)]
_GRID = 1j * np.logspace(-4, 4, 8000)
_POLY = np.arange(1.0, 12.0)


def _kernel():
    small = Fraction(0)
    for k in range(1, 150):
        small += Fraction(k, k * k + 1)
    mid = sum(_MID, Fraction(0))
    y = np.polyval(_POLY, _GRID)
    mag, phase = 20 * np.log10(np.abs(y)), np.angle(y)
    text = "\n".join(f"{m:.17g},{p:.17g}" for m, p in zip(mag[:800].tolist(), phase[:800].tolist()))
    counts = {}
    for i in range(3000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    return small, mid, text, counts


def kernel_seconds() -> float:
    """Time of one run of the kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def factors(kernel_times: list) -> list:
    """For each run of the kernel in a chronological list, the factor that
    scales the work timed right after it to the reference host speed:
    REFERENCE_S over the mean of that kernel time and the next one. The
    host flips between faster and slower states several times a second, so
    the kernel runs on each side of a command tell its state best."""
    after = kernel_times[1:] + kernel_times[-1:]
    return [(2 * REFERENCE_S / (a + b)) ** SENSITIVITY for a, b in zip(kernel_times, after)]

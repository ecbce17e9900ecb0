"""The machine's speed, read from a fixed reference loop that does not use ma_lin.

A virtual machine on a shared host, like the one under README.md's reference
figures, changes speed by up to 2x over minutes, and by less over seconds,
for reasons outside the program (README.md, "Why times are scaled").  Every timed stretch is therefore
bracketed by samples of `reference_loop`, and the time is reported scaled to
the speed at which that loop takes REFERENCE_LOOP_S:

    scaled = measured * REFERENCE_LOOP_S / (loop time around the measurement)

A change to ma_lin moves the measured time and not the loop, so it moves the
scaled time by the same factor; a slow spell of the machine moves both.
"""

from __future__ import annotations

import time

import numpy as np

# the loop's time at the reference speed.  It only fixes the unit: on the
# machine of README.md's reference figures the loop's mean over a run ranged
# from 7.2 to 11.4 ms, so scaled times read above the measured ones there.
REFERENCE_LOOP_S = 0.012

_N = 64
_PARITY = np.add.outer(np.arange(_N - 2), np.arange(_N - 2)) % 2
_COLORS = (_PARITY == 0, _PARITY == 1)


def reference_loop() -> float:
    """About 12 ms at the reference speed: red-black relaxation sweeps over a
    64x64 array, the shape of the SOR solver at the median lift-solve request
    (n = 65).  Of the loops tried, this one followed the program's operations
    through the machine's slow spells best, the closed-form cases included
    (README.md, "Why times are scaled")."""
    U = np.linspace(0.0, 1.0, _N * _N).reshape(_N, _N)
    for _ in range(40):
        for mask in _COLORS:
            nb = U[1:-1, 2:] + U[1:-1, :-2] + U[2:, 1:-1] + U[:-2, 1:-1]
            delta = 0.25 * nb - U[1:-1, 1:-1]
            U[1:-1, 1:-1][mask] += delta[mask]
    return float(U[1, 1])


class Speedometer:
    """Samples of the reference loop's time, taken between measurements."""

    def __init__(self):
        self.loops = 0
        self.seconds = 0.0  # loop time summed over all samples

    def sample(self, at_least: float) -> float:
        """Run the loop for at least `at_least` seconds (and at least three
        times); return its median time in this sample."""
        times = []
        spent = 0.0
        while spent < at_least or len(times) < 3:
            t0 = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - t0)
            spent += times[-1]
        self.loops += len(times)
        self.seconds += spent
        times.sort()
        return times[len(times) // 2]


def scale(measured: float, loop_before: float, loop_after: float) -> float:
    """`measured` seconds scaled to the reference speed, by the loop times
    sampled just before and just after the measurement."""
    return measured * REFERENCE_LOOP_S / (0.5 * (loop_before + loop_after))

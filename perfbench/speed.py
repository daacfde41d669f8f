"""Fixed reference loops that read the host's current speed.

The benchmark runs on a few vCPUs of a shared machine. Its speed moves by a
third or more, over periods from under a second to minutes, as other tenants
load the cores and caches. Run medians of raw time then differ by that much
between runs of the same code. So a loop that never touches the package runs
just before every timed package call (before each batch of sub-millisecond
coefficient queries), and the call's time is rescaled by the loop's time: to
what it would be at the speed at which the loop takes its reference time. A
slower moment of the host slows the call and the loop alike, and the
rescaled time stays put. A faster program still reads faster; a faster host
does not. Medians are then taken over the rescaled samples.

A loaded host slows interpreter-bound code far more than long passes of
compiled numpy code, so there are two loops, and each operation is rescaled
by the one whose work resembles its own:

- "python": pure-Python bookkeeping and many numpy calls on tiny arrays, like
  the per-path sweeps, the chain counts and the coefficient queries;
- "array": integer and floating-point numpy passes over arrays of a few
  hundred kilobytes, like the subset tables and the packed characterization
  evaluator.

Both write into preallocated outputs, since a fresh allocation would add page
faults whose cost depends on what ran before.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# Time of each loop at the reference speed: about its median on the host
# the bounds were set on (2 vCPUs of a shared x86-64 VM) when lightly loaded.
# Rescaled times are seconds at that speed.
REFERENCE_S = {"python": 0.002, "array": 0.00125}


class Speedometer:
    """The reference loops with their inputs, and the times they took."""

    def __init__(self):
        self.readings: dict[str, list[float]] = {name: [] for name in REFERENCE_S}
        self._ints = np.arange(1 << 16, dtype=np.int64)     # 512 KiB, as _buf and _out
        self._buf = np.empty_like(self._ints)
        self._out = np.zeros_like(self._ints)
        self._grid = np.linspace(0.0, 8.0, self._ints.size)
        self._vals = np.empty_like(self._grid)
        self._loops = {"python": self.python_loop, "array": self.array_loop}
        for loop in self._loops.values():
            loop()      # first calls of numpy routines pay one-off set-up

    @staticmethod
    def python_loop() -> float:
        """Fixed interpreter-bound work; returns a checksum so none of it is
        skipped."""
        table: dict[int, int] = {}
        acc = 0
        for j in range(7000):
            key = j & 63
            table[key] = table.get(key, 0) + j * 3 // 7
            acc += len(table)
        rng = np.random.default_rng(12345)
        small = 0.0
        for _ in range(200):
            x = rng.uniform(size=20)
            small += float(np.exp(-x).sum())
        return acc + small

    def array_loop(self) -> float:
        """Fixed work in numpy passes over arrays that fit in a core's L2
        cache; returns a checksum."""
        for shift in range(1, 17):
            np.right_shift(self._ints, shift, out=self._buf)
            np.bitwise_and(self._buf, 1, out=self._buf)
            np.add(self._out, self._buf, out=self._out)
        for _ in range(8):
            np.multiply(self._grid, -0.5, out=self._vals)
            np.exp(self._vals, out=self._vals)
        return float(self._out[-1]) + float(self._vals[-1])

    def read(self, loop: str) -> float:
        """Time one run of a loop; returns, and keeps, how many times slower
        than the reference speed the host runs this kind of work now."""
        t0 = perf_counter()
        self._loops[loop]()
        slowdown = (perf_counter() - t0) / REFERENCE_S[loop]
        self.readings[loop].append(slowdown)
        return slowdown

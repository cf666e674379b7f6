"""Host-speed calibration: a fixed piece of work that uses no ``repro`` code.

The benchmark runs on a shared host whose speed drifts by tens of per
cent over minutes, far more than the bounds a regression check needs.
The worker times this fixed mix right after set-up and after every timed
sweep, and ``run.py`` divides each measured time by the host's slowdown
(the mean of the calibrations around it over ``REFERENCE_S``).  The
end-to-end times are thus seconds at the reference host speed; since
the mix runs no ``repro`` code, a change to the program moves them and
a change of host speed mostly does not.

The mix covers the kinds of work the workloads do, about 0.1 s each at
the reference speed: a Python interpreter loop, numpy streaming
arithmetic, numpy random gathers and scatters into a 2 MB table (the
predictor tables' access pattern), and two C loops, one pure compute
(SHA-256) and one branchy with table lookups (zlib).  Its buffers are
small and freed, so it does not raise the worker's peak memory.
"""

from __future__ import annotations

import hashlib
import time
import zlib

import numpy as np

#: Seconds one ``calibrate()`` takes at the reference host speed: the
#: median of 30 calls on a 2-vCPU Xeon VM at 2.0 GHz, rounded.
REFERENCE_S = 0.5


def _python_loop() -> int:
    s, table = 0, {}
    for i in range(450_000):
        s = (s * 31 + i) & 0xFFFF
        table[s & 1023] = i
    return s


def _numpy_stream() -> int:
    a = np.random.default_rng(0).integers(0, 1 << 30, 1 << 19, dtype=np.int64)
    for _ in range(20):
        a = np.cumsum((a * 5 + 3) ^ (a >> 3)) & 0x3FFFFFFF
    return int(a[-1])


def _numpy_gather() -> int:
    rng = np.random.default_rng(1)
    table = rng.integers(0, 4, 1 << 21, dtype=np.uint8)
    index = rng.integers(0, 1 << 21, 1 << 19)
    for _ in range(14):
        values = table[index]
        table[index[::2]] = values[::2] ^ 1
    return int(table.sum())


def _c_hash() -> bytes:
    data = bytes(range(256)) * (1 << 14)
    for _ in range(24):
        digest = hashlib.sha256(data).digest()
    return digest


def _c_zlib() -> int:
    data = np.random.default_rng(3).integers(0, 16, 1_400_000, dtype=np.uint8).tobytes()
    return len(zlib.compress(data, 6))


def calibrate() -> float:
    """Seconds the fixed mix takes on this host now."""
    t0 = time.perf_counter()
    for part in (_python_loop, _numpy_stream, _numpy_gather, _c_hash, _c_zlib):
        part()
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(f"{calibrate():.4f} s (reference {REFERENCE_S} s)")

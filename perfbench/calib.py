"""Machine-speed calibration.

The shared hosts this benchmark runs on change speed in phases: the same
pass can take 70% longer for minutes at a time, with set-up slowing alike.
No repetition inside one run averages that out.  Each worker therefore
times a fixed reference kernel that does not touch hypcensus (an
interpreter loop and a numpy matmul/gather of the shapes the oracle engine
uses) right after its set-up and then about once a second between
operations.  The worker's times are scaled by REFERENCE_S / (median kernel
time in that worker): seconds on a host that runs the kernel in
REFERENCE_S.  The raw figures are printed beside them.
"""

from __future__ import annotations

import statistics
import time

# nominal kernel time: about its median on an idle 2-core Xeon host with
# one BLAS thread
REFERENCE_S = 0.05
INTERVAL_S = 1.0
ROWS = 20_000
REPS = 9


class Calibrator:
    """Reference-kernel samples of one worker process.

    The arrays are int16 from the start and the kernel writes only into
    buffers made here, so the calibrator holds a constant 1.2 MB (plus
    the BLAS work buffer its first matmul maps, about 3 MB, kept for the
    life of the process) and allocates nothing while it runs: a transient
    of its own would raise the worker's ru_maxrss and hide the program's
    allocations under it.
    """

    def __init__(self) -> None:
        import numpy as np

        shape = (ROWS, 7)
        i = np.arange(ROWS)
        self._v = np.empty(shape, np.int16)  # (i*i + i//7 + 3j) % 7
        np.add(((i * i + i // 7) % 7).astype(np.int16)[:, None],
               np.arange(0, 21, 3, dtype=np.int16), out=self._v)
        np.remainder(self._v, 7, out=self._v)
        self._t = np.arange(49, dtype=np.float32).reshape(7, 7) % 5
        self._table = np.arange(49, dtype=np.int16) % 7  # flat 7 x 7
        self._vf = np.empty(shape, np.float32)
        self._prod = np.empty(shape, np.float32)
        self._col = np.empty((ROWS, 1), np.int16)
        self._idx = np.empty(shape, np.int16)
        self._out = np.empty(shape, np.int16)
        self.samples: list[float] = []
        self._last = 0.0

    def kernel(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        acc = 0
        d: dict[int, int] = {}
        for i in range(40_000):
            acc += (i * i) % 7
            d[i & 511] = d.get(i & 511, 0) + acc
        for _ in range(REPS):
            # the engine's shapes: an (n, 7) matmul mod q, then a table gather
            np.copyto(self._vf, self._v)
            np.matmul(self._vf, self._t, out=self._prod)
            np.remainder(self._prod, 7, out=self._prod)
            np.copyto(self._idx, self._prod, casting="unsafe")
            np.multiply(self._idx[:, :1], 7, out=self._col)
            np.add(self._col, self._v, out=self._idx)
            np.take(self._table, self._idx, out=self._out)
            acc += int(self._out.sum())
        return time.perf_counter() - t0

    def sample(self) -> None:
        self.samples.append(self.kernel())
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self) -> float:
        """Calibrated seconds per raw second in this process."""
        return REFERENCE_S / statistics.median(self.samples)

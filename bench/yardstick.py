"""A fixed reference computation timed next to every measured unit.

The speed of a shared host drifts by tens of percent over seconds to
minutes, for every computation alike.  The yardstick is a fixed numpy
computation of the same kind as the workloads (small complex Hermitian
matrices, pseudoinverses, SVDs, contractions, Python loop overhead), run
just before each timed call or scan point.  A raw time divided by the
yardstick time around it and multiplied by ``NOMINAL_S`` reads as
seconds on a machine where the yardstick takes ``NOMINAL_S``; drift that
slows both cancels.  The yardstick does not touch hermitia, so no change
to the program moves it.
"""

import statistics
import time

import numpy as np

NOMINAL_S = 2.0e-3
ROUNDS = 20
WARM_TICKS = 30  # the interpreter specializes the loop only after repeated runs


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(np.random.SeedSequence([2022, 10, 5]))
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self._g = a @ a.conj().T
        self._eye = np.eye(6)
        self._v = rng.standard_normal(6) + 0j
        self.samples = []  # seconds per run, in run order
        for _ in range(WARM_TICKS):
            self.tick()
        self.samples.clear()

    def tick(self):
        """Run the yardstick once; returns the index of its sample."""
        start = time.perf_counter()
        acc = 0.0
        for i in range(ROUNDS):
            g = self._g + (1e-3 * i) * self._eye
            p = np.linalg.pinv(g, rcond=1e-8, hermitian=True)
            s = np.linalg.svd(g, compute_uv=False)
            acc += float(np.einsum("ab,b,a->", p, self._v, s).real)
            acc += float(np.kron(g[:2, :2], p[:3, :3]).trace().real)
        self.samples.append(time.perf_counter() - start)
        self._sink = acc
        return len(self.samples) - 1

    def local(self, index):
        """Yardstick time around the unit timed after sample ``index``:
        the mean of that sample and the next one, which bracket it."""
        return statistics.fmean(self.samples[index : index + 2])

    def spanning(self, first, last):
        """Median yardstick time over samples first..last inclusive."""
        return statistics.median(self.samples[first : last + 1])

    def normalize(self, seconds, reference):
        return seconds * NOMINAL_S / reference

"""A fixed reference task that tracks how fast the host runs at the moment.

On a shared host the speed of this process can swing by half or more over a
few seconds (another tenant on the same core), so a 30 s run lands anywhere
between the fast and the slow speed. The benchmark times this task right
before and after every timed interval and reports the interval normalised to
a host on which the task takes ``REF_S`` seconds. The task mixes many small
numpy calls with one vectorised block, as the workloads do, and never calls
simbal, so a change to simbal does not move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About what the task takes on an uncontended Xeon core. It sets only the
# scale of normalised times: any constant would compare commits alike.
REF_S = 0.003


class Reference:
    def __init__(self):
        self._rng = np.random.Generator(np.random.PCG64(0))
        self._points = self._rng.normal(size=(160, 8))
        self._alpha = np.ones(4)
        for _ in range(3):  # the first runs pay numpy's lazy set-up
            self.time()

    def time(self) -> float:
        """Seconds one run of the task takes now."""
        t0 = perf_counter()
        total = 0.0
        for _ in range(200):
            total += float(self._rng.dirichlet(self._alpha) @ self._points[:4, 0])
        diff = self._points[:, None, :] - self._points[None, :, :]
        total += float((diff * diff).sum())
        return perf_counter() - t0


def normalise(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled to a host on which the task takes REF_S, from its times around them."""
    return seconds * REF_S / (before * after) ** 0.5

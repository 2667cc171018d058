"""Host-speed probe: fixed kernels timed between the benchmark's tasks.

On a shared host the speed of a core can change by a factor of two from
one second to the next, as other tenants come and go, and the time of a
pass follows it. The probe times three small kernels that do not touch
crda, for the kinds of work the workloads do:

* ``python``: dict updates on tuple keys, integer bit work and complex
  arithmetic, as in Pauli-sum algebra;
* ``stream``: element-wise updates of a 2 MiB complex vector, as in
  vector updates and matvecs;
* ``matmul``: small dense complex matrix products, as in eigensolves.

Each workload slows by its own share when the host does, and no one kernel
follows all three; in trial runs the mean of the three did. A sample is the
slowness of the host: the mean over the kernels of each kernel's time (the
median of ``REPS`` runs) over its time on the reference host,
``REFERENCE_S``. ``scale`` divides a time measured next to
a set of samples by their mean, which gives reference-host seconds: the
time it would take on a host where every kernel takes its reference time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel times on the reference host: near their medians on a 2-core share
# of an Intel Xeon host with one BLAS thread.
REFERENCE_S = {"python": 0.003, "stream": 0.0012, "matmul": 0.0015}
REPS = 3  # a kernel's time in a sample is the median of this many runs


class HostProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._kernels = [(ref, getattr(self, "_" + kind)) for kind, ref in REFERENCE_S.items()]
        self._m = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self._v = rng.standard_normal(1 << 17) + 1j * rng.standard_normal(1 << 17)
        self._w = np.empty_like(self._v)

    def _python(self) -> None:
        table: dict[tuple[int, int], complex] = {}
        x = 12345
        for i in range(3000):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
            key = (x & 0xFFFFF, x >> 12)
            table[key] = table.get(key, 0j) + complex(i & 7, (x ^ i).bit_count())

    def _stream(self) -> None:
        for _ in range(3):
            np.multiply(self._v, 1.0001, out=self._w)
            np.add(self._w, self._v, out=self._w)

    def _matmul(self) -> None:
        for _ in range(8):
            self._m @ self._m

    def sample(self) -> float:
        """Slowness of the host now; 1.0 on the reference host."""
        ratios = []
        for reference, kernel in self._kernels:
            times = []
            for _ in range(REPS):
                started = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - started)
            ratios.append(statistics.median(times) / reference)
        return statistics.fmean(ratios)

    def scale(self, seconds: float, samples: list[float]) -> float:
        """``seconds`` in reference-host seconds, by the mean of ``samples``."""
        return seconds / statistics.fmean(samples)

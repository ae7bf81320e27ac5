"""A fixed reference kernel, owned by the benchmark, that measures the speed
the host gives this run.

The machines the benchmark runs on are shared: for a minute or more at a
time, co-tenants make every phase of a run 20-40% slower, even in its
fastest iterations. The runner times this kernel once per round, beside the
phases, and scales the run's timed metrics by how fast the kernel ran
(``REFERENCE_S`` over its fast tail), so that such spells largely cancel
out.

The kernel mixes the three kinds of work the phases do: an interpreted loop over numpy scalars (like the instrumented flop
counter), many reshapes, transposed copies and small matmuls (like the fold
maps and per-batch Python of the training loops), and BLAS matmuls (like the
dense twin). It uses only numpy, never kronblock, so a change to the program
cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's fast-tail time on a quiet 2-vCPU host (Xeon, Python 3.11,
# numpy 2.4, OpenBLAS 0.3.31 on one thread); it only fixes the scale.
REFERENCE_S = 0.27


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((70, 40))
        self.b = rng.standard_normal((40, 40))
        self.x = rng.standard_normal((64, 784))
        self.w = rng.standard_normal((5, 392))
        self.big = rng.standard_normal((256, 1024))
        self.weight = rng.standard_normal((1024, 1024))
        self.times: list[float] = []
        self.run()  # warm-up, not recorded

    def run(self) -> float:
        """One timed pass of the kernel; returns its seconds."""
        t0 = time.perf_counter()
        a, b = self.a, self.b
        acc = 0.0
        for i in range(70):
            for j in range(40):
                for k in range(40):
                    acc += a[i, k] * b[k, j]
        for _ in range(1950):
            folded = self.x.reshape(64, 392, 2).transpose(0, 2, 1).copy()
            mid = folded @ self.w.T
            acc += float(mid.transpose(0, 2, 1).reshape(64, 10).sum())
        for _ in range(9):
            acc += float((self.big @ self.weight).sum())
        seconds = time.perf_counter() - t0
        if not np.isfinite(acc):
            raise RuntimeError("reference kernel produced a non-finite value")
        return seconds

    def probe(self) -> None:
        self.times.append(self.run())

"""Reference kernels that gauge the machine's speed while a run measures.

On a shared machine the same code can run 40% faster or slower from one
minute to the next.  Each timed quantity is therefore paired with a fixed
reference kernel run next to it, and reported as if the kernel had taken
its reference time: ``measured * REF / kernel``.  On a shared two-vCPU
Intel Xeon VM, a qudit document ranged from 127 to 201 ms within 80 s
while its ratio to the compute kernel stayed within 8.08 to 8.34.

Neither kernel calls convexop, so a change to convexop moves the reported
numbers and leaves the kernels alone.

- :class:`ComputeProbe` parses a fixed YAML text in pure Python and runs
  small dense LAPACK calls, the two kinds of work an in-process document
  does.  Reference: :data:`COMPUTE_REF_S`.
- :func:`start_probe` starts an interpreter that imports numpy and PyYAML,
  the work every CLI call does before convexop.  Reference:
  :data:`START_REF_S`.
"""

from __future__ import annotations

import subprocess
import sys
import time

COMPUTE_REF_S = 0.020
START_REF_S = 0.150


class ComputeProbe:
    """About 20 ms of fixed work in this process; calling it returns seconds."""

    def __init__(self):
        import numpy as np
        import yaml

        rng = np.random.default_rng(0)
        rows = ", ".join(
            "[" + ", ".join(repr(float(x)) for x in row) + "]"
            for row in rng.normal(size=(16, 16))
        )
        self._text = f"matrix: [{rows}]\n"
        self._load = yaml.safe_load
        self._matrix = rng.normal(size=(64, 64))
        self._eigvalsh = np.linalg.eigvalsh

    def __call__(self) -> float:
        start = time.perf_counter()
        self._load(self._text)
        for _ in range(40):
            self._eigvalsh(self._matrix)
            self._matrix @ self._matrix
        return time.perf_counter() - start


def start_probe(env: dict) -> float:
    """Seconds to start an interpreter that imports numpy and PyYAML."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, yaml"], env=env,
                   capture_output=True, timeout=60, check=True)
    return time.perf_counter() - start

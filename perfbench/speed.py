"""Machine-speed references that the benchmark's timings are scaled by.

On a shared 2-vCPU virtual machine, identical work took from 0.75 s to 1.6 s
within one minute. Process CPU time moved with wall time, so the vCPU itself
ran slower, and a 20-25 s run could not average that away. Runs of the same
workload spread by 12-23% between their quartiles.

The benchmark therefore times a fixed reference kernel next to the
workload: ``WINDOW`` samples at the start of each pass, one between
consecutive units and ``WINDOW`` at the end. Each unit's time is scaled by
``REF_S / median(the WINDOW samples before it and the WINDOW after it)``,
which is the time it would take at the speed where the kernel takes
``REF_S``. The machine's speed changes within a second: in three 40 s runs
of coherent_sweep, scaling each 150 ms job by its neighbours cut the
coefficient of variation of pass times from 10-13% (one factor for the
whole pass) to 3-5%. No
kernel uses osp22 code, so a change to the library cannot move it. The raw
wall times are recorded next to the scaled ones.

There are two kernels, one for each kind of work a workload spends its time
on, because the speed of one kind does not follow the other on a shared
machine:

- ``mixed``: dict and complex-scalar arithmetic, as in the Grassmann layer,
  plus small complex matrix products, as in the representation layer at the
  default truncation.  For interpreter-bound workloads.
- ``dense``: one 256x256 complex matrix product, an add and a scaled
  conjugate transpose, as in ``SuperOperator.__matmul__``, ``__add__`` and
  ``superadjoint`` at n_max=128.  For BLAS-bound workloads.  Against five
  40 s runs of the algebra suite at n_max=128, it brought the coefficient
  of variation of the run medians from 3.1% raw (4.1% scaled by ``mixed``)
  to 1.6%.
"""

from __future__ import annotations

import statistics
import time

# Each REF_S is near the kernel's fastest median of 8 samples on the machine
# the benchmark was tuned on: x86_64 with AVX-512, 2 vCPUs, Python 3.11,
# single-threaded OpenBLAS 0.3.31.
REF_S = {"mixed": 4.5e-3, "dense": 4.3e-3}
WINDOW = 2  # reference samples on each side of a unit that scale its time


class Reference:
    def __init__(self, kind: str = "mixed"):
        import numpy as np

        rng = np.random.default_rng(0)
        self.kind = kind
        self.ref_s = REF_S[kind]
        if kind == "mixed":
            self._matrix = rng.standard_normal((64, 64)) * (1.0 + 1.0j)
            self._kernel = self._mixed
        else:
            self._matrix = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
            self._kernel = self._dense

    def _mixed(self) -> None:
        m = self._matrix
        acc: dict[int, complex] = {}
        for i in range(8000):
            k = i & 63
            acc[k] = acc.get(k, 0j) + complex(i, 1.0) * (-1.0 if i & 3 else 0.5)
        for _ in range(32):
            m @ m

    def _dense(self) -> None:
        m = self._matrix
        (m + m @ m).conj().T * 1.5

    def sample(self) -> float:
        """Seconds taken by one run of the fixed kernel."""
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def scale(self, samples: list[float]) -> float:
        """Factor that takes times measured beside ``samples`` to reference speed."""
        return self.ref_s / statistics.median(samples)

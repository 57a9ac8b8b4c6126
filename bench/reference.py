"""Host-speed reference: a fixed kernel timed next to every measurement.

On a shared 2-vCPU host the same code runs up to 1.6x slower in spells
that last from seconds to several minutes, longer than a benchmark run.
No choice of estimator within a run removes that, so every gated timing
is taken together with the time of this kernel, just before and just
after it, and reported scaled to a host on which the kernel takes its
reference time:

    scaled = measured * reference time / mean(kernel before, kernel after)

Interpreter-bound and memory-bound code slow by different factors, so a
workload names the kernel of its own kind.  Both run with the same single
BLAS thread as the workloads.  They belong to the benchmark, so a change
to the package cannot change them.  The raw times are reported beside the
scaled ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_A = np.linspace(-1.0, 1.0, 300 * 60).reshape(300, 60) ** 3 + np.eye(300, 60)
_B = _A[:, :3].copy()
_X = np.linspace(-1.0, 1.0, 5000 * 150).reshape(5000, 150)
_Y = _X[:, :40].copy()


def _interpreter_kernel() -> None:
    """Interpreter work and small least squares: the mix of the fits,
    reductions and symbolic work on a few hundred points."""
    total = 0
    for i in range(10_000):
        total += i * i
    for _ in range(3):
        np.linalg.lstsq(_A, _B, rcond=None)


def _array_kernel() -> None:
    """Elementwise passes, a concatenation and a product over arrays of
    5000 x 150: the mix of fit and replay on thousands of points, which is
    bound by memory traffic and slows less than interpreter work."""
    z = _X * 1.0001
    z += 1.0
    np.concatenate([z, _Y], axis=1)
    z.T @ _Y


# kind -> (kernel, seconds of one run on a quiet host)
KERNELS = {
    "interpreter": (_interpreter_kernel, 0.002),
    "array": (_array_kernel, 0.007),
}
REPEATS = 3


def kernel_seconds(kind: str = "interpreter") -> float:
    """The fastest of ``REPEATS`` runs of the kernel, in seconds."""
    kernel = KERNELS[kind][0]
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


def scaled(seconds: float, before: float, after: float, kind: str = "interpreter") -> float:
    """``seconds`` measured between two timings of the ``kind`` kernel,
    scaled to the reference host."""
    return seconds * KERNELS[kind][1] / (0.5 * (before + after))

"""A fixed probe of the host's speed, for putting CPU times at a reference speed.

The benchmark runs on a few virtual CPUs of a shared host, whose speed
for the same work steps up and down by a third and more, within seconds
and over minutes, with its neighbours' load.  Around each timed step the
benchmark times this fixed kernel, which uses nothing from the program,
and reports the step's CPU time at the reference speed:
``cpu * REFERENCE_S / kernel_time``.  A change to the program moves the
step's time but not the kernel's, so it moves the scaled figure by the
same share.

The kernel mixes the two kinds of work the workloads do: interpreted
Python (heaps, dicts, float arithmetic, as in the serve simulation) and
numpy passes over frame-sized float32 arrays (as in rendering,
gradients and LK).
"""

from __future__ import annotations

import heapq
import time

# About what the kernel takes on a 2-vCPU Intel Xeon at 2.0 GHz with a
# quiet host, so a scaled time reads as seconds on that host.
REFERENCE_S = 0.04

_image = None


def _kernel() -> float:
    heap: list[tuple[float, int]] = []
    table: dict[int, float] = {}
    x = 0.5
    for i in range(15000):
        x = (x * 1.000001 + 0.1) % 7.0
        heapq.heappush(heap, (x, i))
        table[i & 1023] = x
        if len(heap) > 512:
            heapq.heappop(heap)
    a = _image
    total = 0.0
    for _ in range(60):
        gx = a[:, 2:] - a[:, :-2]
        gy = a[2:, :] - a[:-2, :]
        total += float((gx[1:-1] * gy[:, 1:-1]).sum())
    return x + total


def kernel_s() -> float:
    """The CPU seconds of one run of the kernel."""
    global _image
    if _image is None:
        import numpy as np

        _image = np.random.default_rng(0).random((240, 320), dtype=np.float32)
    start = time.process_time()
    _kernel()
    return time.process_time() - start


class ScaledClock:
    """Times consecutive steps: their wall and CPU seconds and, with
    ``scale``, their CPU seconds at the reference speed, each step's from
    the kernel run just before and just after it.  The kernel runs
    between steps, outside every step's times."""

    def __init__(self, scale: bool = True) -> None:
        self.scale = scale
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.scaled_cpu_s = 0.0
        self._kernel = kernel_s() if scale else 0.0

    def step(self, fn, *args, **kwargs):
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        out = fn(*args, **kwargs)
        cpu = time.process_time() - cpu0
        self.wall_s += time.perf_counter() - wall0
        self.cpu_s += cpu
        if self.scale:
            after = kernel_s()
            self.scaled_cpu_s += cpu * REFERENCE_S / ((self._kernel + after) / 2)
            self._kernel = after
        return out

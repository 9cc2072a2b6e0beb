"""Speed reference: rescales op times to a fixed machine speed.

On a shared virtual machine the speed of Python-bound code drifts by 20-40%
over tens of seconds, and every op time drifts with it. Two fixed kernels are
timed every REFERENCE_INTERVAL_S during a run, and each op's wall time is
scaled by NOMINAL_S / (the kernel's time around that op). The kernels belong
to the benchmark, so a change to the library cannot move them.

The machine switches between a fast and a slow state, and not all code
changes speed by the same ratio between them: a Python loop of small numpy
operations ran about twice as fast in the fast state, while imports,
enumeration and CSV/SVG formatting (plain interpreter work) and the large
list allocations of the N=1e6 without-replacement sampler ran about 1.5
times as fast. So each workload names the kernel its code resembles:

- ``numpy``: a Python loop of small numpy operations, in the style of the
  library's gradient loops;
- ``python``: a fixed, precompiled module body of frozen dataclasses and
  enums (string annotations, as in the library), executed afresh.
"""
from __future__ import annotations

import bisect
import statistics
import sys
import types
from time import perf_counter

import numpy as np

NOMINAL_S = 0.005  # kernel time the scaled op times correspond to
REFERENCE_INTERVAL_S = 0.5
SMOOTH_S = 1.0
REPS = 7  # kernel runs per measurement; their median is the measurement
KERNELS = ("numpy", "python")
MIN_INSIDE = 3

_MODULE_NAME = "_bench_reference_module"
_MODULE_SOURCE = (
    "from __future__ import annotations\n"
    "from dataclasses import dataclass\n"
    "from enum import Enum\n"
) + "".join(
    f"""
@dataclass(frozen=True)
class Record{i}:
    name: str
    size: int = 0
    weight: float = 1.0
    tags: tuple = ()

    def total(self) -> float:
        return self.size * self.weight


class Kind{i}(Enum):
    A = 1
    B = 2
    C = 3
"""
    for i in range(6)
)


class SpeedReference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._rows = rng.standard_normal((2000, 10))
        self._targets = rng.standard_normal(2000)
        self._x = np.zeros(10)
        self._code = compile(_MODULE_SOURCE, "<reference module>", "exec", dont_inherit=True)
        # dataclasses looks the defining module up in sys.modules.
        sys.modules.setdefault(_MODULE_NAME, types.ModuleType(_MODULE_NAME))
        self._kernels = {"numpy": self._numpy_kernel, "python": self._python_kernel}
        self.times: list[float] = []  # midpoints of the measurements
        self.kernel_s: dict[str, list[float]] = {name: [] for name in KERNELS}
        self.spent_s = 0.0  # total time spent measuring

    def _numpy_kernel(self) -> None:
        acc = np.zeros(10)
        for row, target in zip(self._rows, self._targets):
            acc += row * (float(row @ self._x) - target)

    def _python_kernel(self) -> None:
        exec(self._code, {"__name__": _MODULE_NAME})

    def measure(self) -> None:
        start = perf_counter()
        for name, kernel in self._kernels.items():
            reps = []
            for _ in range(REPS):
                begin = perf_counter()
                kernel()
                reps.append(perf_counter() - begin)
            self.kernel_s[name].append(sorted(reps)[REPS // 2])
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.spent_s += end - start

    def maybe_measure(self) -> None:
        """Measure if the last measurement is older than the interval."""
        if not self.times or perf_counter() - self.times[-1] >= REFERENCE_INTERVAL_S:
            self.measure()

    def factor(self, start: float, end: float, kernel: str, smooth: float = SMOOTH_S) -> float:
        """NOMINAL_S over the time of ``kernel`` during or near the op.

        An op with at least MIN_INSIDE measurements inside it (a paced long
        op) takes their mean: its time adds up over the speeds it ran at, so
        a median would pick one of them. Any other op takes the median of the
        measurements within ``smooth`` seconds before its start or after its
        end, or with none there, of the nearest one on each side.
        """
        kernel_s = self.kernel_s[kernel]
        inside = kernel_s[bisect.bisect_left(self.times, start):bisect.bisect_right(self.times, end)]
        if len(inside) >= MIN_INSIDE:
            return NOMINAL_S / statistics.fmean(inside)
        lo = bisect.bisect_left(self.times, start - smooth)
        hi = bisect.bisect_right(self.times, end + smooth)
        near = kernel_s[lo:hi]
        if not near:
            before = max(bisect.bisect_right(self.times, start) - 1, 0)
            after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
            near = [kernel_s[before], kernel_s[after]]
        return NOMINAL_S / statistics.median(near)

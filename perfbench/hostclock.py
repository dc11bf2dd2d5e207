"""Host-speed-normalized timing for a shared, noisy host.

On a shared machine the speed of one core swings by up to ~1.8x, within
seconds and from one minute to the next, because other tenants contend for
the physical core and its caches.  Raw times of the same code then differ
more between runs than any change worth measuring.  The benchmark therefore
also times a fixed *reference computation* every ``REFERENCE_INTERVAL_S``
between calls; the median reference time of a run measures how contended
the host was during it.  Every time the run reports is scaled to *nominal
seconds*, the time on a host where the reference takes
``NOMINAL_REFERENCE_S``:

    nominal = measured * NOMINAL_REFERENCE_S / median reference

The plain ratio assumes the program slows down as much as the reference.
Fits across runs, of log CPU time per unit of work against the log median
reference over forty 15 s runs per workload on such a host, gave slopes of
1.00 (serve-stream), 0.86 (serve-fleet), 0.80 (decode), 1.17
(decode-batched) and 1.15 (paper-claims).  Against scaling by the 0.75th
power of the ratio, the plain ratio cut the drift of the work_per_s median
between sets of ten runs from up to 22% to under 10% on every workload.

Calls and references are timed in process CPU time, so that moments when
the process is descheduled count for neither; the host work is
single-threaded, so CPU time is the time the work keeps the host busy.  The
reference is benchmark code, not program code, so a change to the program
moves nominal times exactly as it moves raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: CPU seconds the reference computation takes on an uncontended core of a
#: 2-vCPU x86-64 host with Python 3.11 and NumPy 2.x.  It only sets the scale
#: of normalized times: one normalized second is the time the host needs for
#: ``1 / NOMINAL_REFERENCE_S`` reference runs.
NOMINAL_REFERENCE_S = 0.020

#: A reference sample is taken before a call when the last one is older than
#: this, so the samples cover the whole run.
REFERENCE_INTERVAL_S = 0.4

_REFERENCE_MATRIX = np.linspace(-1.0, 1.0, 48 * 48, dtype=np.float32).reshape(48, 48)
# A working set of a few MiB, read at scattered places: contention for the
# shared caches slows the program's object-heavy code, and this part with it.
_REFERENCE_TABLE = {key: float(key) for key in range(50_000)}
_REFERENCE_KEYS = [(key * 7_919) % 50_000 for key in range(4_000)]
_REFERENCE_ARRAY = np.arange(262_144, dtype=np.float64)
_REFERENCE_INDEX = (np.arange(8_000, dtype=np.int64) * 104_729) % 262_144


def _reference_part() -> float:
    """A fixed mix of interpreter-bound, small-array and cache-bound work.

    The serving simulator is interpreter-bound (dict, list, tuple and float
    work), the analytic model builds many small objects, and the functional
    simulator issues many small NumPy operations.  The mix tracks all three.
    """
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(7000):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += (i * 1.25) % 3.0
    ordered = sorted(table.items(), key=lambda item: (item[1] % 7.0, item[0]))
    events = [(float(i % 13), i, (i * 7) % 5) for i in range(2500)]
    events.sort()
    matrix = _REFERENCE_MATRIX
    for _ in range(70):
        product = matrix @ matrix[:, :16]
        acc += float(np.tanh(product[:4]).sum()) + float(product.astype(np.float16)[0, 0])
    scattered = _REFERENCE_TABLE
    for key in _REFERENCE_KEYS:
        acc += scattered[key]
    acc += float(_REFERENCE_ARRAY[_REFERENCE_INDEX].sum())
    pairs = sorted((key % 977, key) for key in _REFERENCE_KEYS)
    return acc + ordered[0][1] + events[-1][1] + pairs[0][1]


def reference_cpu_s() -> float:
    """CPU seconds of one reference sample: the median of three parts, so
    that one interrupted part does not skew it."""
    parts = []
    for _ in range(3):
        start = time.process_time()
        _reference_part()
        parts.append(time.process_time() - start)
    return 3 * sorted(parts)[1]


class HostClock:
    """Times closed-loop calls in CPU seconds and samples the reference."""

    def __init__(self) -> None:
        self.references: list[float] = []
        #: When false, ``call`` takes no reference samples (a traced region
        #: keeps them out of its spans).
        self.sampling = True
        self._last_reference_at = float("-inf")
        self._calls: list[float] = []

    def sample_reference(self) -> None:
        self.references.append(reference_cpu_s())
        self._last_reference_at = time.perf_counter()

    def call(self, fn, *args):
        """Run ``fn(*args)``; return ``(result, call_index)``."""
        if self.sampling and (
                time.perf_counter() - self._last_reference_at >= REFERENCE_INTERVAL_S):
            self.sample_reference()
        start = time.process_time()
        result = fn(*args)
        self._calls.append(time.process_time() - start)
        return result, len(self._calls) - 1

    def raw_s(self, index: int) -> float:
        """The call's CPU seconds as measured."""
        return self._calls[index]

    def nominal(self, cpu_s: float) -> float:
        """CPU seconds measured during this run, in nominal seconds."""
        return cpu_s * NOMINAL_REFERENCE_S / statistics.median(self.references)

    def nominal_s(self, index: int) -> float:
        """The call's duration in nominal seconds."""
        return self.nominal(self._calls[index])

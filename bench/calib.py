"""Machine-speed calibration, interleaved with the timed calls.

On a shared machine the CPU speed a process gets drifts by a factor of up
to two over tens of seconds, so raw wall times of one code version spread
more between runs than the changes worth detecting.  Before and after
every timed call the benchmark runs four fixed kernels of its own, which
share no code with the program: a pure-Python integer loop, small NumPy
calls, a vector ``scipy.special.log_ndtr`` and object/string handling,
the four kinds of work the program does.  ``speed()`` is the geometric
mean of their rates relative to ``REFERENCE_RATES``; a call's time in
reference seconds is its wall time multiplied by the mean speed of the
calibrations on either side of it, i.e. the time the call would take on a
machine running the kernels at the reference rates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import special as sps

# kernel calls per second on a 2-core Xeon (Sapphire Rapids class, KVM)
# running undisturbed; any fixed values would do, these keep reference
# seconds close to wall seconds on that machine
REFERENCE_RATES = {"python": 9000.0, "numpy_calls": 14000.0, "log_ndtr": 27000.0, "objects": 50000.0}
_BUDGET_S = 0.008

_VECTOR = np.linspace(-4.0, 4.0, 2000)
_SMALL = np.linspace(-1.0, 1.0, 8)
_LINE = "F0000001|200301||0|||N||01"


@dataclass(frozen=True)
class _Row:
    loan_id: str
    month: str
    code: str


def _python() -> None:
    total = 0
    for i in range(2000):
        total += i * i


def _numpy_calls() -> None:
    for _ in range(50):
        np.exp(_SMALL).sum()


def _log_ndtr() -> None:
    sps.log_ndtr(_VECTOR)


def _objects() -> None:
    rows = {}
    for i in range(20):
        fields = _LINE.split("|")
        rows[i] = _Row(fields[0], fields[1], fields[8].strip())


KERNELS = {"python": _python, "numpy_calls": _numpy_calls, "log_ndtr": _log_ndtr, "objects": _objects}


def _rate(kernel) -> float:
    start = time.perf_counter()
    n = 0
    while True:
        kernel()
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed >= _BUDGET_S:
            return n / elapsed


def speed() -> float:
    """Current machine speed relative to the reference (1.0 = reference)."""
    logs = [math.log(_rate(k) / REFERENCE_RATES[name]) for name, k in KERNELS.items()]
    return math.exp(sum(logs) / len(logs))

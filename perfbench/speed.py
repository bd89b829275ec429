"""The host's current speed, read from a fixed probe of interpreted and array work.

On a shared host the core a process runs on slows down and speeds up by as
much as 1.9x, in phases of seconds to minutes, as other tenants' load comes
and goes.  Process CPU time swings with wall time (there is no steal time to
subtract), so neither repeats between runs.  The benchmark therefore times
the probe right before and right after every timed pass, and right after
every set-up, in the same process, and scales the measured time by
``REFERENCE_S / probe time``: the result is the time the work would take at
the speed where one probe takes ``REFERENCE_S`` seconds.  The probe mixes
interpreter-bound and numpy work because the program does both and they slow
by different factors (a pure-Python loop alone over-corrects).  Raw times
are printed beside the scaled ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.047  # one probe in a quiet phase of a 2-CPU Xeon VM, Python 3.11, numpy 2.4


def _interpreted() -> int:
    """Interpreter-bound work of the program's kind: dicts, strings, floats, lists."""
    counts: dict[str, int] = {}
    acc = 0.0
    items = []
    for i in range(50_000):
        key = f"q{i % 97}"
        counts[key] = counts.get(key, 0) + 1
        acc += (i % 13) * 0.5 - acc * 1e-3
        items.append(key.upper())
    items.sort()
    return len(counts) + len(items) + int(acc)


def _vectorised(values: np.ndarray) -> int:
    """Array work of the program's kind: sorts and scans over a few MB."""
    total = 0
    for _ in range(6):
        total += int((np.cumsum(np.sort(values)) > 5.0).sum())
    return total


_VALUES = np.random.default_rng(0).random(200_000)


def probe() -> float:
    """Seconds for one fixed mix of interpreted and array work."""
    t0 = time.perf_counter()
    _interpreted()
    _vectorised(_VALUES)
    return time.perf_counter() - t0


def scaled(wall: float, before: float, after: float) -> float:
    """``wall`` at the reference speed, given probes taken before and after it."""
    return wall * REFERENCE_S / math.sqrt(before * after)

"""Timing that does not move with the host's load: wall time scaled to a
reference core by a probe that keeps sampling how fast the core runs.

On a 2-vCPU KVM guest whose cores are shared with other tenants, this
process's Python ran up to 2.2 times slower while a neighbour was busy, in
spells of seconds to minutes, and the slowdown did not show as steal or as
lost CPU time.  Wall time alone then measures the neighbour, not the program.

``Probe.section`` times a block of code while a ``SIGALRM`` handler, in
the benchmark's own process and thread, runs a fixed calibration kernel
every ``INTERVAL_S`` seconds: tuple permutation composition, dict lookups
and membership tests on small ints, the operations the program spends its
time on.
Each reading says how fast the core ran Python at that moment, relative to
``REFERENCE_KERNEL_S``, the kernel's time on an unloaded core.  A section's
reference time is the sum, over the intervals between readings, of each
interval's wall time times that speed: the seconds the same work would
have taken on the unloaded core.  The probe's own time is left out of both
the wall and the reference time; it is under 0.5% of a section.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import time
from dataclasses import dataclass

INTERVAL_S = 0.02

# the kernel's median time on an unloaded core of a 2-vCPU KVM guest
# (Intel Xeon, family 6 model 143) under CPython 3.11
REFERENCE_KERNEL_S = 45e-6

_SHIFT = (1, 2, 0, 4, 3, 6, 5, 8, 7)
_START = tuple(range(9))
_TABLE = {i: i * 3 for i in range(64)}
_ROUNDS = 64


def kernel():
    """The calibration kernel; allocates no object that outlives it."""
    p, total, table, shift = _START, 0, _TABLE, _SHIFT
    for i in range(_ROUNDS):
        p = tuple([shift[x] for x in p])
        total += table[(i * total + p[0]) & 63]
        if (i, total & 7) in table:
            total += 1
    return total


def read_kernel():
    """One timed run of the kernel.  The collector is held off so that a
    collection the program's garbage is due for does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


@dataclass
class Section:
    """What ``Probe.section`` measured: wall and reference seconds, both
    without the probe's own time, and the number of readings."""

    wall: float = 0.0
    reference: float = 0.0
    readings: int = 0


class Probe:
    """Times sections of code in reference seconds.  One section at a
    time; it owns ``SIGALRM`` while it runs."""

    def __init__(self):
        self._current = None
        self._last = 0.0

    def _read(self):
        now = time.perf_counter()
        span = now - self._last
        taken = read_kernel()
        section = self._current
        section.wall += span
        section.reference += span * REFERENCE_KERNEL_S / taken
        section.readings += 1
        self._last = time.perf_counter()

    def _on_alarm(self, signum, frame):
        if self._current is not None:
            self._read()

    @contextlib.contextmanager
    def section(self):
        """Time the block; the yielded ``Section`` is filled in when it
        ends, also when it raises.  Each reading weights the interval
        before it, and readings open and close the section."""
        if self._current is not None:
            raise RuntimeError("probe sections do not nest")
        result = Section()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._current = result
        self._last = time.perf_counter()
        self._read()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield result
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._read()
            self._current = None
            signal.signal(signal.SIGALRM, previous)

"""Host-speed normalisation for the end-to-end timings.

On a shared host the speed of one core drifts by up to 2x within minutes,
and that drift moves every wall-clock timing of the program with it. So
every timed region runs under a ``Sampler``: an interval timer interrupts
the program every ``PERIOD_S`` (``SETUP_PERIOD_S`` in set-up) and times
one fixed ``reference_slice``, a small pure-Python kernel in the program's
style (object creation, attribute and dict access, sorting with a key, a
set comprehension). The sampler's own time is excluded from the program's
clock (``Sampler.clock``). Every ``WINDOW`` consecutive slices give the
host's speed over that stretch of the program's clock, and a timed
interval is reported at a fixed reference speed:

    normalised seconds = sum over windows of
        host seconds in the window * REFERENCE_SLICE_S / mean slice time

A slower program moves the host seconds but not the slices, so a
regression shows in full; a slower host moves both, and cancels. Only the
built-in ``signal`` and ``time`` modules are used, so this module can be
imported before the program without importing any module the program would
import (``import_seconds`` in ``run.py`` depends on that).
"""

import signal
import time

perf = time.perf_counter

PERIOD_S = 0.01
# set-up and import take a fraction of a second, so they are sampled faster
SETUP_PERIOD_S = 0.002
WINDOW = 10
# the slice's time at the reference speed; its value only sets the scale
REFERENCE_SLICE_S = 0.3e-3
# slices taken on entry and on exit, so that short regions are sampled too
EDGE_SLICES = 8


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def key(self) -> int:
        return self.a ^ self.b


def reference_slice() -> int:
    """Fixed work of about 0.3 ms on an idle 2-vCPU Xeon VM."""
    d: dict[int, int] = {}
    items = []
    x = 12345
    for i in range(400):
        k = (i * 7919) % 509
        d[k] = d.get(k, 0) + i
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        items.append(_Item(k, x & 15))
    items.sort(key=_Item.key)
    odd = {it.a for it in items if it.b & 1}
    return len(odd) + len(d)


class Sampler:
    """Context manager: samples the host's speed while its block runs.

    ``clock()`` is ``perf_counter`` minus the time spent in the sampler.
    After the block, ``normalised`` maps ascending ``clock()`` readings
    taken inside it to a clock that runs at the reference speed; the
    difference of two mapped readings is the interval in normalised
    seconds. Not re-entrant; main thread only.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.stamps: list[float] = []   # clock() when each slice started
        self.slices: list[float] = []   # each slice's host seconds
        self.spent = 0.0
        self._windows: list[tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, *_args) -> None:
        t0 = perf()
        self.stamps.append(t0 - self.spent)
        reference_slice()
        self.slices.append(perf() - t0)
        self.spent += perf() - t0

    def clock(self) -> float:
        return perf() - self.spent

    def normalised(self, times: list[float]) -> list[float]:
        out, w, i = [], self._windows, 0
        for t in times:
            while i + 1 < len(w) and w[i + 1][0] <= t:
                i += 1
            start, factor, at_start = w[i]
            out.append(at_start + (t - start) * factor)
        return out

    def __enter__(self) -> "Sampler":
        for _ in range(EDGE_SLICES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SLICES):
            self._sample()
        # window k starts at slice k * WINDOW and runs to the next window
        for k in range(0, len(self.slices), WINDOW):
            chunk = self.slices[k:k + WINDOW]
            factor = REFERENCE_SLICE_S * len(chunk) / sum(chunk)
            at_start = 0.0
            if self._windows:
                start, f, at = self._windows[-1]
                at_start = at + (self.stamps[k] - start) * f
            self._windows.append((self.stamps[k], factor, at_start))

"""A gauge of how fast the host runs Python while a sample runs.

On a shared host the speed of a CPU drifts by tens of percent from one
second to the next and from one minute to the next, for every program
on it alike. A ``Gauge`` interrupts its process every ``PERIOD_S``
seconds with a timer signal and times one slice of fixed work in the
signal handler. The sample's times exclude the slices, and ``run.py``
scales them by the slices' mean duration, so that they are stated at
one host speed.

The slice uses none of the program's code, so no change to the program
can move it. Its parts are the kinds of work the simulator's time goes
to, in about equal shares: small-integer arithmetic (keccak), big-integer
modular arithmetic (the curves and pairings), Python function calls,
object and dict traffic (the protocol layers) and compiling source
(set-up). A slice takes about 9 ms on a 2-vCPU Xeon VM, so the gauge
costs the workload about 5% of its samples.
"""

import signal
import time
from typing import List, Tuple

PERIOD_S = 0.2

P = 2**255 - 19
MASK = (1 << 64) - 1
SOURCE = "\n".join(
    f"def f{i}(a, b):\n    c = [a * {i}, b + {i}]\n    return {{'k': c, 'n': len(c)}}\n"
    for i in range(30))


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y


def _small_ints() -> int:
    s = 0
    for i in range(18_000):
        s = (s * 31 + i) % 1_000_003
    return s


def _big_ints() -> int:
    x = 0x1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF
    for _ in range(3_600):
        x = x * x % P
    return x


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def _objects() -> int:
    table = {}
    a = _Point(3, 5)
    for i in range(900):
        b = _Point((a.x * a.y + i) % P, (a.y * a.y + a.x) % P)
        table[(i & 255, b.x & 7)] = (b, a)
        a = b
    return len(table) ^ (a.x & MASK)


def work() -> int:
    """One slice; returns a checksum so that none of it is idle."""
    return (_small_ints() ^ _big_ints() ^ _fib(18) ^ _fib(18) ^ _objects()
            ^ len(compile(SOURCE, "<reference>", "exec").co_consts))


class Gauge:
    """Times one slice every PERIOD_S seconds of the process's wall
    time, from ``start`` to ``stop``. Only the main thread can run it.
    """

    def __init__(self):
        self.slices: List[Tuple[float, float]] = []  # (start, seconds)
        self._running = False

    def _tick(self, _signum, _frame) -> None:
        if not self._running:  # delivered just before stop()
            return
        start = time.monotonic()
        work()
        self.slices.append((start, time.monotonic() - start))
        # re-armed after the slice: the program runs PERIOD_S between slices
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self) -> None:
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> None:
        # The handler stays installed, so a signal still in flight is
        # ignored instead of ending the process.
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def within(self, begin: float, end: float) -> float:
        """Seconds of slices that started in [begin, end)."""
        return sum(took for at, took in self.slices if begin <= at < end)

    def slice_s(self) -> float:
        """Mean seconds per slice; 0.0 if none ran."""
        return sum(took for _, took in self.slices) / len(self.slices) if self.slices else 0.0

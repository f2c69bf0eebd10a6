"""The CPU's current speed, sampled during a repetition.

On a shared host the speed of a vCPU changes by up to ~1.8x for stretches
of seconds to minutes, so raw wall times of the same work on the same input
differ by that much between runs.  A ``SpeedProbe`` times a fixed kernel
every ``INTERVAL_S`` seconds from a ``SIGALRM`` handler, i.e. on the thread
and vCPU that run the repetition, and at the moments it runs.  The speed
switches between a fast and a slow state (the kernel takes ~0.25 or
~0.45 ms), so the mean speed over a stretch is the mean of ``1 / kernel
time`` over samples spread evenly in time.  A wall time multiplied by that
mean speed and by ``KERNEL_REF_S`` is the time the same work takes at the
speed where the kernel takes ``KERNEL_REF_S``: host slowdowns cancel,
program changes do not, because the kernel uses no levikit code.

The kernel is of the kind levikit's hot paths are made of: a memoised
recursive walk over a small frozen tree of complex constants and
variables.  It is pure Python and allocates no reference cycles, so that
it leaves levikit's memory as it found it.
"""

from __future__ import annotations

import signal
import statistics
from dataclasses import dataclass
from time import perf_counter, thread_time

# a kernel call takes about this long on the 2-vCPU VM the bounds were set
# on, in its slow state
KERNEL_REF_S = 0.4e-3
INTERVAL_S = 0.02
# set-up lasts a fraction of a second, so it is sampled more often
SETUP_INTERVAL_S = 0.01
# kernel calls timed right after set-up and after the run
EDGE_SAMPLES = 4


@dataclass(frozen=True)
class _Node:
    kind: str
    children: tuple = ()
    value: complex = 0j
    index: int = 0


def _tree(depth: int, i: int = 0) -> _Node:
    if depth == 0:
        if i % 2:
            return _Node("var", index=i % 3)
        return _Node("const", value=complex(0.5, 0.25 * (i % 5)))
    return _Node(("add", "mul", "sub")[i % 3],
                 (_tree(depth - 1, 2 * i + 1), _tree(depth - 1, 2 * i + 2)))


_TREE = _tree(6)
_POINT = (0.1 + 0j, 0.3j, 0.2 + 0.1j)


def _walk(e: _Node, z, memo: dict) -> complex:
    # a module-level function, not a closure over ``memo``: a recursive
    # closure is a reference cycle, and cycles promoted to the oldest GC
    # generation grew the peak RSS of ``hartogs-logdist`` by ~30 kB per tick
    got = memo.get(id(e))
    if got is not None:
        return got
    k = e.kind
    if k == "const":
        v = e.value
    elif k == "var":
        v = z[e.index]
    elif k == "add":
        v = _walk(e.children[0], z, memo) + _walk(e.children[1], z, memo)
    elif k == "sub":
        v = _walk(e.children[0], z, memo) - _walk(e.children[1], z, memo)
    else:
        v = _walk(e.children[0], z, memo) * _walk(e.children[1], z, memo)
    memo[id(e)] = v
    return v


def kernel() -> float:
    acc = 0.0
    for _ in range(4):
        acc += abs(_walk(_TREE, _POINT, {}))
    return acc


def timed_kernel() -> float:
    """CPU time of one kernel call on this thread: a wait for the GIL
    (levikit's worker threads) does not count, a slow vCPU does."""
    start = thread_time()
    kernel()
    return thread_time() - start


def edge_samples() -> list:
    return [timed_kernel() for _ in range(EDGE_SAMPLES)]


class SpeedProbe:
    """Times ``kernel`` every ``interval`` s between ``start`` and ``stop``
    (or inside a ``with`` block).

    ``samples`` holds the kernel times; ``spent_s`` is the wall time the
    probe itself took, which callers subtract from their wall times.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(timed_kernel())
        self.spent_s += perf_counter() - start

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "SpeedProbe":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def rescale(wall_s: float, samples: list) -> float:
    """``wall_s`` at the speed where the kernel takes ``KERNEL_REF_S``."""
    return wall_s * KERNEL_REF_S * statistics.fmean(1.0 / k for k in samples)

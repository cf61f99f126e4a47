"""Speed probe that turns measured seconds into reference-speed seconds.

On a shared host, neighbouring tenants slow each vCPU down by up to 1.8x for
seconds to minutes at a time.  A plain median of the program's wall time then
moves by 20-50% from run to run.  The probe is a fixed mix of the operations
the program spends its time on: frozen integer dataclasses, ``Fraction``
signs, complex Moebius maps, square roots, short numpy q-products and the
small-matrix inverses and products of representation images.  It
runs between the timed stretches, in the same process.  Each stretch is
scaled by ``NOMINAL_S / probe time``, so a stretch measured while the host
runs slow reads as it would at reference speed.  In interleaved runs, the
ratio of program time to probe time stayed within a few percent while the
raw times moved by 1.6x.

The scaling assumes the program runs on one CPU.  If it runs threads or
worker processes of its own, they slow the probe just as other tenants do,
and scaling would then credit the program for its own load.  So the CPU time
of the process tree (proctree.py) is read around every probe, and a stretch
in which the program used more than PARALLEL_LIMIT CPUs per wall second is
left at its measured length.

This code is part of the benchmark and must not change between the commits
it compares.
"""

from __future__ import annotations

import cmath
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from proctree import cpu_s

# probe time at reference speed: its quiet floor on a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4
NOMINAL_S = 1.8e-3
TICK_S = 0.25  # probe interval inside a long call
# CPU seconds per wall second above which a stretch counts as parallel and is not scaled
PARALLEL_LIMIT = 1.25


@dataclass(frozen=True)
class _M:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c not in (1, -1):
            raise ValueError("determinant")

    def __mul__(self, o: "_M") -> "_M":
        return _M(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                  self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)


_ONE, _S, _T = _M(1, 0, 0, 1), _M(0, -1, 1, 0), _M(1, 1, 0, 1)
_NS = np.arange(1, 21)
_IMAGES = (np.array([[0.6 + 0.8j]]), np.array([[0, 1j], [1j, 0]]))


def _mix() -> complex:
    g, acc = _ONE, 0j
    for i in range(40):
        g = g * (_S if i % 3 else _T)
        if g.c:
            acc += complex(Fraction(g.d, g.c) > 0)
        z = complex(0.1 * (i % 7), 0.3 + 0.01 * i)
        w = (g.a * z + g.b) / (g.c * z + g.d)
        acc += cmath.sqrt(w) + complex(np.prod(1.0 - np.exp((2j * np.pi * z) * _NS)))
        if i % 4 == 0:
            img = _IMAGES[i % 8 // 4]
            acc += complex((np.eye(len(img), dtype=complex) @ np.linalg.inv(img) @ img)[0, 0])
        if abs(g.a) > 50:
            g = _ONE
    return acc


def probe() -> float:
    """Seconds for one fixed slice of program-like work (about NOMINAL_S)."""
    t0 = time.perf_counter()
    for _ in range(4):
        _mix()
    return time.perf_counter() - t0


def startup_probe() -> float:
    """Median of three probes after one warm-up, for a process that just started."""
    _mix()
    return statistics.median(probe() for _ in range(3))


def parallel(cpu: float, wall: float) -> bool:
    """Whether a stretch of ``wall`` seconds that used ``cpu`` CPU seconds ran on more than one CPU."""
    return cpu > PARALLEL_LIMIT * wall


def factor(probe_s: float, cpu: float, wall: float) -> float:
    """Scale of such a stretch next to a probe of ``probe_s`` seconds."""
    return 1.0 if parallel(cpu, wall) else NOMINAL_S / probe_s


class SpeedLog:
    """Probes taken between timed stretches, as (start, end, probe seconds, CPU before, CPU after)."""

    def __init__(self):
        self.ticks: list[tuple[float, float, float, float, float]] = []

    def tick(self, *_signal_args) -> None:
        start = time.perf_counter()
        cpu0 = cpu_s()
        p = probe()
        cpu1 = cpu_s()
        self.ticks.append((start, time.perf_counter(), p, cpu0, cpu1))

    @contextmanager
    def ticking(self):
        """Probe before, every TICK_S during (from SIGALRM), and after the block."""
        self.tick()
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self.tick()

    def _stretches(self) -> list[tuple[float, float, float, float]]:
        """(start, end, mean probe seconds, CPU seconds) of each stretch between consecutive probes."""
        return [(e0, s1, (p0 + p1) / 2, c1 - c0)
                for (_, e0, p0, _, c0), (s1, _, p1, c1, _) in zip(self.ticks, self.ticks[1:])]

    def factors(self) -> list[float]:
        """Scale of each stretch between consecutive probes."""
        return [factor(p, cpu, end - start) for start, end, p, cpu in self._stretches()]

    def unscaled(self) -> int:
        """Number of stretches left at their measured length because the program ran in parallel."""
        return sum(parallel(cpu, end - start) for start, end, _, cpu in self._stretches())

    def span(self, t0: float, t1: float) -> tuple[float, float]:
        """(measured, reference-speed) seconds of [t0, t1], probes excluded."""
        raw = scaled = 0.0
        for (start, end, _, _), f in zip(self._stretches(), self.factors()):
            length = min(end, t1) - max(start, t0)
            if length > 0:
                raw += length
                scaled += length * f
        return raw, scaled

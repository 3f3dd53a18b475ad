"""Speedometers: one process per CPU that keeps measuring how fast that CPU runs.

The virtual machines this benchmark runs on change speed by a factor of
1.5 to 1.8 whatever runs on them, each vCPU on its own and within a
second, so two runs of identical work can differ by more than any useful
bound. While a run measures, one speedometer process is pinned to each
CPU. Every PERIOD seconds it runs a fixed unit of work for BURST seconds
and records the CPU time one unit took. A call of T seconds that saw unit
times u_1..u_k did about T * mean(1/u_i) units of work, which is its length
in "ref" units: a slow stretch slows both alike and cancels. The
speedometers take a fixed BURST/PERIOD share of each CPU.

The unit imports nothing from hamclass, so no change to the program can
move it, and it does the kind of work the program does: bitmask
depth-first search with small-integer arithmetic, plus breadth-first
search over lists and dicts (`builders.girth`). Never change either:
every number recorded in "ref" units is relative to them.
"""

from __future__ import annotations

import os
import statistics
import time
from multiprocessing import get_context

from .builders import generalized_petersen, girth

PERIOD = 0.05
BURST = 0.005
# a call's speed is read from the samples within this margin of it
MARGIN = 0.25

_PETERSEN = generalized_petersen(5, 2)
_ROWS = [0] * 10
for _u, _v in _PETERSEN:
    _ROWS[_u] |= 1 << _v
    _ROWS[_v] |= 1 << _u


def _simple_paths(v: int, used: int) -> int:
    total = 1
    free = _ROWS[v] & ~used
    while free:
        low = free & -free
        total += _simple_paths(low.bit_length() - 1, used | low)
        free ^= low
    return total


def unit() -> int:
    """The fixed unit of work; returns a checksum so nothing is optimised away."""
    return _simple_paths(0, 1) + girth(10, _PETERSEN)


def _measure(cpu: int, conn) -> None:
    """Speedometer process body: sample until the parent asks for the samples."""
    os.sched_setaffinity(0, {cpu})
    conn.send("ready")
    samples = []
    clock, cpu_clock = time.perf_counter, time.thread_time
    while not conn.poll(PERIOD - BURST):
        t0, c0, units = clock(), cpu_clock(), 0
        # at least one unit, even when the process was descheduled for a
        # whole burst right after reading the clock
        while not units or clock() - t0 < BURST:
            unit()
            units += 1
        samples.append(((t0 + clock()) / 2, (cpu_clock() - c0) / units))
    conn.send(samples)
    conn.close()


class Speedometers:
    """Context manager running one speedometer per CPU; samples are read after exit."""

    def __init__(self, cpus: list[int]) -> None:
        self.cpus = cpus
        self.samples: dict[int, list[tuple[float, float]]] = {}

    def __enter__(self) -> "Speedometers":
        ctx = get_context("spawn")
        self._running = []
        for cpu in self.cpus:
            here, there = ctx.Pipe()
            proc = ctx.Process(target=_measure, args=(cpu, there), daemon=True)
            proc.start()
            there.close()
            self._running.append((cpu, proc, here))
        for _, _, conn in self._running:
            conn.recv()
        return self

    def __exit__(self, *exc) -> None:
        for cpu, proc, conn in self._running:
            try:
                conn.send(None)
                self.samples[cpu] = conn.recv()
            except (OSError, EOFError):
                self.samples[cpu] = []
            finally:
                conn.close()
                proc.join(10)
                if proc.is_alive():
                    proc.kill()
                    proc.join()

    def unit_seconds(self, cpus: list[int], start: float, end: float) -> float:
        """Harmonic mean unit time on `cpus` from MARGIN before start to MARGIN after end."""
        lo, hi = start - MARGIN, end + MARGIN
        times = [s for cpu in cpus for t, s in self.samples[cpu] if lo <= t <= hi]
        if not times:
            raise RuntimeError(f"no speedometer samples between {lo:.3f} and {hi:.3f}")
        return statistics.harmonic_mean(times)

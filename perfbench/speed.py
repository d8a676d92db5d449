"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host whose speed is not
steady: the same fixed work takes up to twice as long at one time as at
another, in states that change within seconds and regimes that last
minutes.  Wall-clock alone then measures the host as much as the
program.

A :class:`Monitor` thread runs a fixed calibration every
``INTERVAL_S`` and records how much CPU time each sample took.  The
calibration is pure-Python code of the kinds the program runs:
regular-expression compiles and a ``difflib`` match (standard-library
code of some size) and a small stack-machine interpreter loop.  A
timing from ``t0`` to ``t1`` is then rescaled to the host's reference
speed::

    rescaled = (t1 - t0) * REFERENCE_MS / (mean sample ms in [t0, t1])

so it reads the seconds the same work would take with a calibration
sample of ``REFERENCE_MS``.  The calibration never changes with the
program, so a faster program reads faster and a slower host does not.
Samples are timed with the thread's CPU clock, so time the thread spent
waiting for the interpreter lock or for a vCPU is not counted as slow.

Each vCPU of such a host changes speed on its own, so the samples only
describe the work they are compared with when both run on the same
vCPU: :func:`pin_to_one_cpu` keeps an in-process workload's sessions and
the sampling thread together.
"""

from __future__ import annotations

import bisect
import difflib
import os
import re
import statistics
import threading
import time
from typing import List, Tuple

#: the calibration sample's CPU time, in ms, on the host the benchmark
#: was written on; rescaled timings read in seconds at that speed
REFERENCE_MS = 3.5
#: pause between two calibration samples
INTERVAL_S = 0.1
#: samples slower than this many times the median of an interval are
#: left out (a garbage collection that happened to run in the sample)
OUTLIER = 3.0

_PATTERNS = [
    r"(?P<a>[a-z]+)\s*=\s*(?P<b>\d+(?:\.\d*)?)",
    r"^(\w+)(?:\[(\d+)\])?\s*(?:->|=>)\s*([A-Z][a-z]*|\*)$",
    r"(?:0x[0-9a-fA-F]+|\d+)(?:[uUlL]{0,3})",
    r"\b(if|else|while|for|return)\b(?!\s*\()",
]
_LEFT = [f"line {i} value {i * 7 % 13}" for i in range(60)]
_RIGHT = [f"line {i} value {i * 5 % 13}" for i in range(60)]
#: a loop for :func:`_interpret`: x = 3 + 4; y = x * 2.5; repeat
_PROGRAM = [("push", 3), ("push", 4), ("add", None), ("store", "x"),
            ("load", "x"), ("push", 2.5), ("mul", None), ("store", "y"),
            ("load", "y"), ("jump", 0)]


def _interpret(steps: int) -> dict:
    regs: dict = {}
    stack: list = []
    pc = 0
    for _ in range(steps):
        op, arg = _PROGRAM[pc]
        pc += 1
        if op == "push":
            stack.append(arg)
        elif op == "add":
            b = stack.pop()
            stack.append(stack.pop() + b)
        elif op == "mul":
            b = stack.pop()
            stack.append(stack.pop() * b)
        elif op == "store":
            regs[arg] = stack.pop()
        elif op == "load":
            stack.append(regs[arg])
        elif op == "jump":
            stack.pop()
            pc = arg
    return regs


def calibrate() -> None:
    """One calibration sample's fixed work."""
    for _ in range(3):
        re.purge()
        for p in _PATTERNS:
            re.compile(p)
    difflib.SequenceMatcher(None, _LEFT, _RIGHT).ratio()
    _interpret(6000)


def pin_to_one_cpu() -> None:
    """Run this process (its sessions and the sampling thread) on one
    vCPU only: the highest-numbered one it may use."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Monitor:
    """Samples the calibration in a background thread while running."""

    def __init__(self):
        #: (start on the perf_counter clock, CPU ms the sample took)
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-speed")

    def __enter__(self) -> "Monitor":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.is_set():
            t = time.perf_counter()
            c = time.thread_time()
            calibrate()
            self.samples.append((t, 1000.0 * (time.thread_time() - c)))
            self._stop.wait(INTERVAL_S)

    def sample_ms(self, t0: float, t1: float) -> float:
        """Mean calibration time of the samples started in [t0, t1]
        (outliers left out), or of the nearest sample if none did."""
        starts = [t for t, _ in self.samples]
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_right(starts, t1)
        ms = [m for _, m in self.samples[lo:hi]]
        if not ms:
            if not self.samples:
                raise RuntimeError("no calibration sample was taken")
            near = min(max(lo, 0), len(self.samples) - 1)
            return self.samples[near][1]
        cap = OUTLIER * statistics.median(ms)
        return statistics.fmean(m for m in ms if m <= cap)

    def rescale(self, t0: float, t1: float) -> float:
        """Seconds from ``t0`` to ``t1`` at the reference speed."""
        return (t1 - t0) * REFERENCE_MS / self.sample_ms(t0, t1)

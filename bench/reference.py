"""Reference kernel: a fixed piece of work that does not use inloop, timed to
gauge how fast the host runs at that moment.

A shared host's speed drifts by tens of percent over minutes, which would
swamp the bounds of the time metrics.  The benchmark therefore times this
kernel right before and right after each measured interval and scales the
interval by NOMINAL_S over the mean of those two readings, then takes the
median over the run's intervals: a time metric reads in seconds on a host
that runs this kernel in NOMINAL_S.  The kernel mixes the two kinds of work
the workloads do, interpreter-bound Python and numpy arithmetic on
ensemble-sized arrays, and never changes with the program, so a change to
inloop moves the scaled time exactly as it moves the raw one.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the 2-vCPU Xeon host the bounds were set on.
NOMINAL_S = 0.13
INTERPRETER_ITERATIONS = 600_000
ARRAY_STEPS = 2400
ARRAY_SIZE = 1000


def _interpreter() -> float:
    total = 0.0
    for i in range(INTERPRETER_ITERATIONS):
        total += i * 0.5
    return total


def _arrays() -> np.ndarray:
    rng = np.random.default_rng(0)
    x = np.zeros(ARRAY_SIZE)
    for _ in range(ARRAY_STEPS):
        x += 0.01 * (np.tanh(x) - x) + 0.1 * rng.standard_normal(ARRAY_SIZE)
    return x


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _interpreter()
    _arrays()
    return time.perf_counter() - t0


def scaled(times: list[float], readings: list[float]) -> list[float]:
    """`times` at reference speed; `readings` holds one reading of the
    kernel before the first interval and one after each."""
    return [t * NOMINAL_S / (0.5 * (readings[i] + readings[i + 1]))
            for i, t in enumerate(times)]

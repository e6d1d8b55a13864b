"""A fixed reference computation that measures how fast the host runs now.

On a shared host the speed of the processor itself changes: the same
pure-Python loop can take 1.5 to 2 times as long in a busy phase as in a
quiet one, for minutes at a time, and CPU time slows exactly as wall time
does (README.md, "Noise"). No statistic of the program's own timings can
tell such a phase from a slower program. This module times a fixed
computation that does not depend on the package, interleaved with the
ops, so each op's time can be scaled to one fixed host speed:

    scaled = measured * NOMINAL_NS / reference_ns

where `reference_ns` is the reference's time measured next to the op, and
NOMINAL_NS is a fixed round value near what the reference took on the
machine the bounds were set on. A slower program still reads slower; a
slower host does not.

The reference is numpy linear algebra on 8x8 matrices (eigenvalues and a
solve), which spends its time in numpy's Python wrappers and in small C
calls, as the oracle's frame algebra does. Of the candidates tried, it
tracked the speed of the program's ops best: over four minutes in which
the host's speed changed by 1.6x, the ratio of op time to reference time
varied by 4% (coefficient of variation of 7-second medians), against 8%
for a pure-Python expression-tree evaluator, 5% for numpy on 1500-point
grids and 7% for arithmetic on small arrays.

Set-up time is mostly the start of a fresh interpreter and the import of
numpy, which the host's phases slow differently from computation. It is
scaled the same way by a second reference, `startup()`: the time a bare
interpreter takes to start and import numpy.

It imports neither ricciforge nor anything from the benchmark, so no change
to the program can change it.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter, perf_counter_ns

import numpy as np

# Round values near what one call took on the 2.1 GHz host the bounds were
# set on (1.5 to 2 ms and 0.14 to 0.21 s as its speed changed).
NOMINAL_NS = 2_000_000
STARTUP_NOMINAL_S = 0.15

_MATRIX = np.eye(8) * 3.0 + np.fromfunction(lambda i, j: 1.0 / (1.0 + i + j), (8, 8))
_ROUNDS = 64


def _work() -> float:
    acc = 0.0
    for k in range(_ROUNDS):
        m = _MATRIX + k * 0.01 * np.eye(8)
        acc += float(np.linalg.eigvalsh(m)[0] + np.linalg.solve(m, _MATRIX[0])[0])
    return acc


_EXPECTED = _work()


def reference() -> int:
    """Run the reference computation once; return its wall time in ns."""
    t0 = perf_counter_ns()
    out = _work()
    ns = perf_counter_ns() - t0
    if out != _EXPECTED:  # the result is consumed, so the work cannot be skipped
        raise RuntimeError(f"reference computation gave {out!r}, expected {_EXPECTED!r}")
    return ns


def factor(samples: list) -> float:
    """The scale NOMINAL_NS / median(samples) for times measured among `samples`."""
    return NOMINAL_NS / statistics.median(samples)


def startup() -> float:
    """Start a bare interpreter that imports numpy; return the seconds from
    launch to its first line, the way set-up time is measured."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import numpy; print('READY', flush=True)"], stdout=subprocess.PIPE, text=True
    )
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
    finally:
        proc.communicate()
    if line.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"reference interpreter failed (exit {proc.returncode})")
    return elapsed

"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared 4-vCPU x86-64 VM, CPU speed was seen to change by up to 2x over
seconds to minutes (a pure numpy/pandas loop, no JVM, shows it), and the
wall time of a fixed search correlated with this kernel's time at r ~ 0.9.
Wall time alone therefore cannot compare two commits run minutes apart. The
benchmark runs this kernel between the phases of every job and reports each
phase's wall time scaled to the kernel's nominal speed:

    normalized = wall * REF_S / (mean kernel time just before and after)

The kernel is the benchmark's own code with fixed inputs, so no change to
the program can move it. Its mix (pandas filtering, small dense linear
algebra, bincount, an interpreted loop) is the mix of the program's hot
paths.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

REF_S = 0.05  # nominal kernel time, seconds (about its median on that VM)

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(800, 10))
_Y = _rng.normal(size=800)
_DF = pd.DataFrame(_X, columns=[f"c{i}" for i in range(10)])


def kernel_seconds() -> float:
    """Wall time of one run of the fixed reference kernel."""
    t0 = time.perf_counter()
    acc = 0
    for _ in range(90):
        d = _DF[_DF.c0 > -1.0].to_numpy()
        np.linalg.lstsq(d, _Y[: len(d)], rcond=None)
        acc += int(np.bincount((d[:, 1] * 3).astype(int) % 7).sum())
        for i in range(5000):
            acc += i
    return time.perf_counter() - t0

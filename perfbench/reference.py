"""Fixed reference computation that measures the machine's current speed.

On a shared machine the speed of one core drifts by a fifth or more over
minutes, which moves every wall time of a run together.  The benchmark
times this kernel just before and just after each repetition, in its own
process so that the repetition's peak memory stays the program's, and
reports the workload's median wall time in units of the kernel's median
time.  The kernel mixes the kinds of
work avrs does (rational arithmetic and dict keys, small numpy
reductions, sha256, and an einsum table of 14 MB) and calls no avrs code,
so no change to the program moves it.
"""

from __future__ import annotations

import hashlib
import time
from fractions import Fraction

import numpy as np


def reference_seconds() -> float:
    """Wall time of one pass of the fixed reference computation."""
    start = time.perf_counter()
    rationals: dict[tuple, Fraction] = {}
    for i in range(1, 8_000):
        f = Fraction(i, i + 7) + Fraction(3, i + 1)
        rationals[(f.numerator % 97, i % 13)] = f
    digest = b""
    for i in range(2_000):
        digest = hashlib.sha256(digest + i.to_bytes(4, "little")).digest()
    a = np.arange(4096, dtype=np.float64).reshape(64, 64) / 4096.0
    for _ in range(400):
        b = np.einsum("ij,jk->ik", a, a)
        a = b / b.sum()
        np.searchsorted(np.cumsum(a.ravel()), 0.5)
        np.bincount((a.ravel() * 1e6).astype(np.int64) % 64, minlength=64)
    # a 14 MB table, like the rate-bound grids, for memory traffic
    p = np.linspace(0.01, 1.0, 441 * 4).reshape(441, 2, 2)
    q = np.linspace(0.01, 1.0, 500 * 4).reshape(500, 2, 2)
    table = np.einsum("pyu,nyz->pnuyz", p, q)
    np.log2(table, out=table)
    table.sum(axis=(-2, -1)).max()
    return time.perf_counter() - start

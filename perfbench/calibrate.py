"""Machine-speed calibration: fixed kernels that do not use the package.

On a shared 2-core VM the speed of a core drifts by up to 2x for tens of
seconds at a time: the same search shard took 0.12 s, then 0.25 s for a
minute, then 0.13 s again, with no CPU steal recorded.  Process CPU time
drifts the same way, so it is no remedy.  The worker therefore times a
kernel between ops, and every op's latency is scaled by
REFERENCE_S / (kernel time around the op): values read as seconds on a core
running at the reference speed.  The kernels never change with the package,
so a change to the package moves the scaled times exactly as it moves the raw
ones.

Each workload names the kernel closest to its own work.  Over 150 s with
several slow spells, scaling cut the spread (coefficient of variation) of
10-second medians from 17 % to 3 % for search shards, from 14 % to 4 % for
classify positives and from 8 % to 3 % for a radix-4 convolution at n = 9.
Whole scheme_n9 ops track the large kernel less closely (per-op spread 15 %
raw, 10 % scaled), but the run-to-run spread of their median fell from 45 %
to about 10 %:

    small  numpy calls on 4096-element arrays, like an eps-loop, then small
           frozen-dataclass, dict and 64-element numpy work, like search
           candidates; either half alone tracked search shards less well
    large  radix-4 passes over a 4^9 int64 tensor into preallocated arrays,
           so the time does not depend on the state of malloc
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class _Terms:
    terms: tuple


# Kernel times on an idle core of the Intel Xeon (Sapphire Rapids) 2-vCPU VM
# the benchmark was built on; they only fix the scale of the reported times.
REFERENCE_S = {"small": 0.0115, "large": 0.0094}
# best of this many runs per timing: few where ops are short (search shards
# take about 0.14 s), more where they are long (scheme ops take about 4 s)
REPEATS = {"small": 2, "large": 4}


class Kernel:
    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.repeats = REPEATS[kind]
        if kind == "small":
            self.table = rng.integers(0, 4096, 4096)
            self.index = rng.integers(0, 4096, 4096)
            self.xs = np.arange(64)
            self.log64 = rng.integers(0, 63, 64)
            self.exp64 = rng.integers(0, 64, 128)
            self._run = self._small
        else:
            self.tensor = rng.integers(0, 100, 4**9).reshape((4,) * 9)
            self.parts = np.empty((4,) + (4,) * 8, dtype=np.int64)
            self.out = np.empty_like(self.tensor)
            self._run = self._large
        self._run()  # warm up before the first timing

    def _small(self) -> None:
        for step in range(400):
            d = self.table[self.index ^ step] ^ self.table
            np.bincount(d, minlength=4096).max()
        xs, log64, exp64 = self.xs, self.log64, self.exp64
        for i in range(240):
            acc: dict[int, int] = {}
            for e, c in ((i % 15 + 3, i % 63 + 1), (i % 13 + 20, i * 7 % 63 + 1)):
                acc[e] = acc.get(e, 0) ^ c
            poly = _Terms(tuple(sorted((e, c) for e, c in acc.items() if c)))
            table = np.zeros(64, dtype=np.int64)
            for e, c in poly.terms:
                table ^= np.where(xs == 0, 0, exp64[log64 * e % 63 + log64[c]])
            for eps in range(1, 4):
                d = table[xs ^ eps] ^ table ^ exp64[log64[eps] + log64]
                if np.bincount(d, minlength=64).max() > 1:
                    break

    def _large(self) -> None:
        p0, p1, p2, p3 = self.parts
        for ax in range(self.tensor.ndim):
            for v in range(4):
                np.take(self.tensor, v, axis=ax, out=self.parts[v])
            dest = np.moveaxis(self.out, ax, 0)
            np.add(p0, p2, out=dest[0])
            np.subtract(p1, p3, out=dest[1])
            np.subtract(p0, p2, out=dest[2])
            np.add(p1, p3, out=dest[3])

    def time(self) -> float:
        """Best of REPEATS runs of the kernel, in seconds."""
        best = float("inf")
        for _ in range(self.repeats):
            start = perf_counter()
            self._run()
            best = min(best, perf_counter() - start)
        return best

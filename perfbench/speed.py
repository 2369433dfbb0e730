"""Host-speed sampling, so that request times can be rescaled to one speed.

The benchmark runs on shared hosts where other tenants slow every process
by tens of percent for seconds at a time. A probe is a short kernel of
breadth-first passes over a fixed random tree in plain Python, sharing no
code with treewalk; its duration says how fast the host runs Python at that
moment. While a request runs, an interval timer interrupts it every
INTERVAL_S to run one probe. The probe's own time is taken out of the
request's time, and each stretch of the request between two probes is
rescaled by the mean of those probes to the speed at which a probe takes
NOMINAL_S. The result reads as seconds on a steady host.
"""

from __future__ import annotations

import gc
import random
import signal
import time

NOMINAL_S = 0.0055  # about a probe's time on a quiet 2.0 GHz Xeon core
INTERVAL_S = 0.1
_N = 512
_PASSES = 64

_rng = random.Random(20240817)
_ADJ: list[list[int]] = [[] for _ in range(_N)]
for _v in range(1, _N):
    _u = _rng.randrange(_v)
    _ADJ[_u].append(_v)
    _ADJ[_v].append(_u)


def probe() -> float:
    """Seconds for _PASSES breadth-first passes over _ADJ. The kernel
    allocates almost nothing and runs with the collector paused, so the heap
    the workload left behind does not change its cost."""
    adj = _ADJ
    dist = [0] * _N
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for src in range(_PASSES):
            for i in range(_N):
                dist[i] = -1
            dist[src] = 0
            order = [src]
            for u in order:
                du = dist[u] + 1
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = du
                        order.append(w)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Sampler:
    """Times one request while probing the host every INTERVAL_S.

    Use as a context manager around the request; afterwards `wall_s` is the
    request's own time (probes excluded) and `adjusted_s` the same time
    rescaled to nominal host speed. `probes` keeps every probe's interval, so
    that span times can leave them out.
    """

    def __init__(self) -> None:
        self.probes: list[tuple[float, float, float]] = []  # (start, end, probe seconds)
        self.wall_s = 0.0
        self.adjusted_s = 0.0

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        p = probe()
        self.probes.append((start, time.perf_counter(), p))

    def __enter__(self) -> "Sampler":
        start = time.perf_counter()
        before = probe()
        self.probes.append((start, time.perf_counter(), before))
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        end = time.perf_counter()
        after = probe()
        self.probes.append((end, time.perf_counter(), after))
        for (_, seg_start, p0), (seg_end, _, p1) in zip(self.probes, self.probes[1:]):
            stretch = seg_end - seg_start
            self.wall_s += stretch
            self.adjusted_s += stretch * NOMINAL_S / ((p0 + p1) / 2)

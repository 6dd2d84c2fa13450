"""A fixed reference computation that measures how fast the host runs right now.

On a shared host the speed of one core drifts by tens of percent within a
minute, so raw times from two runs are not comparable.  The benchmark runs
this kernel between items and during set-up, and scales its times to the
speed at which the kernel takes ``REFERENCE_S``.  The kernel is plain Python
of the same kind as the library's hot paths (frozensets of address strings,
slicing, sorting, dict look-ups) and imports nothing from the library, so a
change to the library cannot change it.
"""

from __future__ import annotations

import subprocess
import sys
import time

# kernel time on the 2-core x86_64 host (Python 3.11) at its quietest
REFERENCE_S = 0.015
# a fresh interpreter importing a few standard modules: the reference for a
# workload whose items are processes; about 60 ms on the same host when quiet
SPAWN_REFERENCE_S = 0.06


def _leaves(internal: frozenset) -> list:
    out = [v + b for v in internal for b in "01" if v + b not in internal]
    out.sort()
    return out


def _rotate(internal: frozenset, u: str) -> frozenset:
    out = set()
    for v in internal:
        if v == u:
            out.add(u + "1")
        elif v == u + "0":
            out.add(u)
        elif v.startswith(u + "00"):
            out.add(u + "0" + v[len(u) + 2:])
        elif v.startswith(u + "01"):
            out.add(u + "10" + v[len(u) + 2:])
        elif v.startswith(u + "1"):
            out.add(u + "11" + v[len(u) + 1:])
        else:
            out.add(v)
    return frozenset(out)


def kernel() -> int:
    """Breadth-first walk over 700 trees of the 12-caret rotation graph."""
    start = frozenset("0" * i for i in range(13))
    seen = {start: 0}
    frontier = [start]
    while frontier and len(seen) < 700:
        S = frontier.pop(0)
        for u in sorted(S):
            if u + "0" in S:
                R = _rotate(S, u)
                if R not in seen:
                    seen[R] = len(_leaves(R))
                    frontier.append(R)
    return len(seen)


def sample() -> float:
    """Seconds taken by one run of the kernel."""
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def spawn_sample() -> float:
    """Seconds taken to start an interpreter that imports a few standard
    modules and exits: tracks the cost of process start-up, which drifts
    differently from in-process work."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import argparse, json, subprocess"], check=True, timeout=60)
    return time.perf_counter() - t

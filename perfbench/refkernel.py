"""The fixed pure-Python reference kernel behind the `ru` unit.

An op's latency in reference units is its wall time divided by the mean
wall time of this kernel run just before and just after the op.  The
host's speed drifts by up to ~1.8x in phases of about a second, and the
kernel slows down with it, so the ratio repeats where raw seconds do not.

The kernel does the kind of work the engine does (small tuples and
dicts, recursive term walks, string rendering and sorting) and never
imports hornalg, so no change to the engine can change the unit.
"""

from __future__ import annotations

import time

_SIZE = 30
_EXPECTED = 16800  # checksum of one kernel run; guards against edits


def _term(i: int, depth: int):
    if depth == 0:
        return ("c", i % 5)
    return ("f", _term(i, depth - 1), _term(i + 1, depth - 1)) if i % 3 else ("g", _term(i + 2, depth - 1))


def _walk(t, env: dict) -> tuple:
    if t[0] == "c":
        return env.get(t[1], t)
    return (t[0],) + tuple(_walk(a, env) for a in t[1:])


def _render(t) -> str:
    if t[0] == "c":
        return f"c{t[1]}"
    return t[0] + "(" + ",".join(_render(a) for a in t[1:]) + ")"


def ref_kernel() -> int:
    """One fixed unit of work; returns a checksum."""
    seen: dict = {}
    env = {k: ("c", (k * 7) % 5) for k in range(5)}
    for i in range(_SIZE):
        t = _walk(_term(i, 4), env)
        text = _render(t)
        seen[text] = seen.get(text, 0) + len(frozenset(text))
    return sum(len(k) * v for k, v in sorted(seen.items()))


def time_kernel() -> float:
    """Wall seconds of one kernel run."""
    start = time.perf_counter()
    checksum = ref_kernel()
    elapsed = time.perf_counter() - start
    if checksum != _EXPECTED:
        raise RuntimeError(f"reference kernel changed: checksum {checksum}")
    return elapsed

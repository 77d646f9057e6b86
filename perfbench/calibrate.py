"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of one core changes from moment to moment: a
fixed piece of pure-Python work takes up to twice as long when a neighbour
loads the core, and the share of slow moments drifts over minutes.  Raw wall
times then spread past any useful bound between runs of the same code.

So every timed interval is bracketed by calibration: a fixed pure-Python
elimination mod 101 that shares nothing with `wiretapnc`.  A chunk runs
just before the interval and one just after, the one after lasting about
`AFTER_SHARE` of the interval, so that long intervals are judged by a longer
sample of the host's speed; in a sequence of intervals the chunk after one
is the chunk before the next.  The interval is then reported in reference
seconds:

    reported = measured * REF_UNIT_S / mean(seconds per unit before, after)

`REF_UNIT_S` is a constant, so a program that does more work reads slower
and one that does less reads faster, exactly as with wall time; only the
host's speed around the interval is divided out.  The garbage collector is
paused during calibration, so the program's heap does not slow the
calibration and hide its own cost.
"""

from __future__ import annotations

import gc
import time

# seconds per calibration unit on an unloaded core of the reference host
REF_UNIT_S = 25e-6
BEFORE_S = 3e-4
AFTER_SHARE = 0.1

_MATRIX = tuple(tuple((i * 7 + j * 13 + i * j) % 101 for j in range(8)) for i in range(8))


def _unit():
    """One Gauss-Jordan elimination of a fixed 8 x 8 matrix mod 101."""
    p = 101
    rows = [list(r) for r in _MATRIX]
    rank = 0
    for c in range(8):
        pivot = next((i for i in range(rank, 8) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(8):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def unit_seconds(min_s):
    """Seconds per calibration unit, over at least `min_s` seconds of units."""
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        units = 0
        start = clock()
        while True:
            for _ in range(4):
                _unit()
            units += 4
            elapsed = clock() - start
            if elapsed >= min_s:
                return elapsed / units
    finally:
        if enabled:
            gc.enable()


def timed_calls(fns):
    """Run each of `fns` in turn; yield (result or raised exception, wall
    seconds, reference seconds) for each.  The calibration after one call
    is also the one before the next."""
    clock = time.perf_counter
    before = unit_seconds(BEFORE_S)
    for fn in fns:
        start = clock()
        try:
            out = fn()
        except Exception as exc:  # a failed operation is counted by the caller
            out = exc
        wall = clock() - start
        after = unit_seconds(max(BEFORE_S, AFTER_SHARE * wall))
        yield out, wall, wall * REF_UNIT_S * 2 / (before + after)
        before = after


def timed(fn):
    """`timed_calls` for a single call."""
    return next(timed_calls([fn]))

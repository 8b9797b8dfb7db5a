"""Arithmetic of the benchmark: medians, the tail rule, span self time, ratios.

Stdlib only, so the self-tests need neither numpy nor the program.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict


def median(values) -> float:
    return float(statistics.median(values))


def command_times(passes) -> list[float]:
    """Each command's mean time over the passes (every pass runs the same commands in order).

    The host this runs on switches between a fast and a slow speed every few
    seconds; a mean over repeats moves smoothly with the share of slow time,
    where a median of a few repeats jumps between the two speeds.
    """
    return [statistics.fmean(col) for col in zip(*([r["dt"] for r in p] for p in passes))]


def tail(values) -> tuple[int, float] | None:
    """Highest integer percentile with at least ten samples beyond it.

    Nearest-rank: percentile q reads the ceil(q N / 100)-th smallest sample.
    Returns ``(q, value)``, or None when there are ten samples or fewer.
    """
    n = len(values)
    if n <= 10:
        return None
    q = (100 * (n - 10)) // n
    rank = max(1, math.ceil(q * n / 100))
    return q, float(sorted(values)[rank - 1])


def rk4_steps(t0: float, t_end: float, dt: float) -> int:
    """Fixed steps ``flow_run`` takes on [t0, t_end]: full steps of dt plus a short last one."""
    n_full = int((t_end - t0) / dt + 1e-12)
    return n_full + ((t_end - t0) - n_full * dt > 1e-12 * dt)


def ratio(num: float, den: float) -> float | None:
    """``num / den``, or None when the base is empty."""
    return None if den == 0 else num / den


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    ``parents[i]`` is the index of span i's parent, or None.  Children may
    overlap each other or stick out of the parent; only the union of their
    intervals clipped to the parent is subtracted.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p is not None:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children.get(i, ()), key=lambda k: starts[k]):
            cs, ce = max(starts[c], s), min(ends[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


def command_ratios(records) -> dict:
    """Outcome shares of one run, each over its own base.

    ``records`` are dicts with ``kind``, ``rc`` (exit code, None if the
    command raised) and ``status`` ("ok", "known_defect" or "failed").
    fail_ratio is over every command issued and counts known defects too;
    unconverged_ratio is over ``solve`` commands only, the only ones that
    exit 2 for a spent iteration budget.
    """
    solves = [r for r in records if r["kind"] == "solve"]
    failed = sum(1 for r in records if r["status"] != "ok")
    return {
        "fail_ratio": ratio(failed, len(records)),
        "ok_ratio": ratio(len(records) - failed, len(records)),
        "unconverged_ratio": ratio(sum(1 for r in solves if r["status"] == "ok" and r["rc"] == 2), len(solves)),
    }

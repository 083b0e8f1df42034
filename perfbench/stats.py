"""Order statistics and the comparison rule shared by the runner and compare mode."""

from __future__ import annotations

import math
import statistics

PAIRS_NEEDED = 10
WIN_SHARE = 0.9


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def p90(values) -> float:
    values = list(values)
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else math.inf)


def verdict(base, new, better: str) -> tuple[str, str]:
    """better, worse or unresolved for paired runs of a base and a new version.

    A side wins when it wins at least nine tenths of all pairs (ties count
    for neither) and the medians differ by more than the distance between
    the base's own quartiles.  Fewer than ten pairs resolve nothing.
    """
    pairs = list(zip(base, new))
    if len(pairs) < PAIRS_NEEDED:
        return "unresolved", f"{len(pairs)} pairs, need {PAIRS_NEEDED}"
    sign = 1.0 if better == "lower" else -1.0
    new_wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    base_wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    q1, med_b, q3 = quartiles(base)
    gap = abs(statistics.median(new) - med_b)
    detail = f"new wins {new_wins}/{len(pairs)}, |median gap| {gap:.4g} vs base IQR {q3 - q1:.4g}"
    need = math.ceil(WIN_SHARE * len(pairs))
    if gap > q3 - q1:
        if new_wins >= need:
            return "better", detail
        if base_wins >= need:
            return "worse", detail
    return "unresolved", detail


def within_bound(base_median: float, new_median: float, better: str, bound: float) -> bool:
    """True when the new median is no worse than the base's by more than ``bound``."""
    if better == "lower":
        return new_median <= base_median * (1.0 + bound)
    return new_median >= base_median * (1.0 - bound)

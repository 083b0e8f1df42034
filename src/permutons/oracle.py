"""Exhaustive small-n oracles and the finite-n large-deviations estimator.

``joint_star_counts`` enumerates S_n (n <= 8) and tallies, per permutation,
the joint vector of star-pattern counts

    (#*2, #**3, #**2, #**1)

= (ascending pairs; triples whose last entry is the largest / the middle /
the smallest).  The tests hold the aggregate multiset to the insertion
recurrence: building a permutation by inserting the new maximum with i
earlier and j - i later elements (j the length before insertion) adds
(i, C(i,2), i (j - i), C(j-i, 2)) to the four counts.  The recurrence tracks
each insertion history's statistics; summed over S_n the two tallies agree
exactly for every n the enumeration accepts, which pins down the exponent
bookkeeping used by the star-model generating functions.

``ldp_estimate`` measures the large-deviations rate of 1 2 pattern counts:
with C_i the Mahonian counts of permutations of n by 1 2 patterns and N =
C(n,2),

    est(n, rho, eps) = (1/n) log( sum_{|i/N - rho| < eps} C_i / n! ).

As n grows (and then eps shrinks) this converges to the constrained entropy
s(rho) = H(r(rho)) of the one-parameter model, the rate function of the
n -> infinity principle checked here at desk scale: the estimate is monotone
in eps, increases with n toward s(rho), and at n = 200 sits within a few
hundredths of the limit.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from .core import _as_count
from .starmodel import _MAHONIAN_MAX_N, mahonian_log_gf


def joint_star_counts(n: int) -> dict[tuple[int, int, int, int], int]:
    """Joint (#*2, #**3, #**2, #**1) counts over S_n, n <= 8 (module doc)."""
    if not 1 <= n <= 8:
        raise ValueError("exhaustive enumeration is limited to n <= 8")
    perms = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
    N = perms.shape[0]
    stats = np.zeros((N, 4), dtype=np.int64)
    for i, j in itertools.combinations(range(n), 2):
        stats[:, 0] += perms[:, i] < perms[:, j]
    for i, j, l in itertools.combinations(range(n), 3):
        a, b, c = perms[:, i], perms[:, j], perms[:, l]
        last_max = (c > a) & (c > b)
        last_min = (c < a) & (c < b)
        stats[:, 1] += last_max
        stats[:, 3] += last_min
        stats[:, 2] += ~(last_max | last_min)
    return dict(Counter(map(tuple, stats.tolist())))


def ldp_estimate(n: int, rho: float, eps: float) -> float:
    """(1/n) log of the n!-normalized count of permutations with 1 2 density
    within eps of rho (module doc)."""
    n = _as_count(n, "n")
    if not 2 <= n <= _MAHONIAN_MAX_N:
        raise ValueError(f"n must lie in [2, {_MAHONIAN_MAX_N}]")
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    lc = mahonian_log_gf(n)
    total = n * (n - 1) // 2
    idx = np.abs(np.arange(lc.size) / total - rho) < eps
    if not np.any(idx):
        raise ValueError(f"no pattern counts within {eps} of rho = {rho} at n = {n}")
    return float((_logsumexp(lc[idx]) - math.lgamma(n + 1)) / n)


def _logsumexp(a: np.ndarray) -> np.float64:
    """log sum exp(a) of a finite nonempty 1-D array by scipy.special.logsumexp's
    own steps, so bit for bit: every entry equal to the max M leaves the sum,
    their count m scales it, and the result is log1p(s/m) + log m + M."""
    top = a.max(keepdims=True)
    at_top = a == top
    m = at_top.sum(dtype=np.float64, keepdims=True)
    s = np.exp(np.where(at_top, -np.inf, a) - top).sum(keepdims=True)
    return (np.log1p(s / m) + np.log(m) + top)[0]

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

The Mahonian counts C_i of permutations of n by number of 1 2 patterns have
generating function prod_{j=0}^{n-1} (1 + z + ... + z^j); the log-domain
coefficient DP ``mahonian_log_gf`` evaluates it stably to n = 500, the
largest n that ``ldp_estimate`` takes.  The table of n is the DP's state
after stage n - 1, so one run to the largest n gives the table of every
smaller n on the way (``_mahonian_tables``); the CLI's ``ldp`` estimates
all its n from one run.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from .core import _as_count

_MAHONIAN_MAX_N = 500


def mahonian_log_gf(n: int) -> np.ndarray:
    """log C_i, i = 0..C(n,2): permutations of n by number of 1 2 patterns.

    Coefficient DP for prod_{j=0}^{n-1} (1 + z + ... + z^j) in the log
    domain.  Every factor is palindromic, hence so is every partial
    product: each stage computes only its left half, as trailing windows of
    length j + 1 that read no previous entry past it, and mirrors it, so
    the table is exactly palindromic.  The window sums run in the linear
    domain on blocks of j + 1 coefficients scaled by their minima
    (``_window_lse``), so a block sum is at most (j + 1) e^range, range the
    block's spread in log.  That stays below the largest double for
    n <= 500: the Mahonian numbers are log-concave and palindromic, so no
    block spreads more than the first, log C_j <= log binom(2j - 1, j)
    < j log 4, and 499 log 4 + log 500 < 698 < 709.78.  Larger n raise
    ValueError.
    """
    n = _as_count(n, "n")
    if not 1 <= n <= _MAHONIAN_MAX_N:
        raise ValueError(f"n must lie in [1, {_MAHONIAN_MAX_N}]")
    return next(_mahonian_tables([n]))[1]


def _mahonian_tables(ns):
    """(n, mahonian_log_gf(n)) for each distinct n of ns, in increasing
    order, from one DP run to max(ns): the table after stage j is the one of
    n = j + 1.  No stage writes into an earlier table."""
    lc, done = np.zeros(1), 1
    for n in sorted(set(ns)):
        for j in range(done, n):
            size = lc.size + j
            half = _window_lse(lc[:-(-size // 2)], j)
            lc = np.concatenate([half, half[:size // 2][::-1]])
        done = n
        yield n, lc


def _window_lse(a: np.ndarray, j: int) -> np.ndarray:
    """out[i] = logsumexp(a[max(0, i-j) .. i]) for finite a.

    Blocks of L = j + 1 entries are scaled by their minima lo_b, so the
    small entries lose nothing to cancellation.  The window ending at
    column c of block b is the strict suffix of block b - 1 after c plus the
    prefix of block b up to c, both plain cumulative sums of exp(a - lo),
    added on the common scale max(lo_{b-1}, lo_b).  Sound while L e^range
    stays below the largest double for every block, range its spread in
    log (mahonian_log_gf)."""
    L = j + 1
    nb = -(-a.size // L)
    e = np.empty(nb * L)
    e[:a.size] = a
    e[a.size:] = a[-1]
    e = e.reshape(nb, L)
    lo = e.min(axis=1)
    e -= lo[:, None]
    np.exp(e, out=e)
    out = np.cumsum(e, axis=1)
    shift = lo
    if nb > 1:
        # strict suffix sums of the previous block: columns c+1 .. L-1
        suff = np.zeros((nb - 1, L))
        np.cumsum(e[:-1, :0:-1], axis=1, out=suff[:, -2::-1])
        shift = np.concatenate([lo[:1], np.maximum(lo[:-1], lo[1:])])
        suff *= np.exp(lo[:-1] - shift[1:])[:, None]
        out[1:] *= np.exp(lo[1:] - shift[1:])[:, None]
        out[1:] += suff
    np.log(out, out=out)
    out += shift[:, None]
    return out.ravel()[:a.size]


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
    return _ldp_estimates([n], rho, eps)[0]


def _ldp_estimates(ns, rho: float, eps: float) -> list[float]:
    """``ldp_estimate`` at each n of ns, from one Mahonian DP to max(ns).
    Every n is checked, in order, before the DP runs, so the first bad one
    raises the ValueError a loop over ``ldp_estimate`` would raise."""
    windows = []
    for n in ns:
        n = _as_count(n, "n")
        if not 2 <= n <= _MAHONIAN_MAX_N:
            raise ValueError(f"n must lie in [2, {_MAHONIAN_MAX_N}]")
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if not eps > 0.0:
            raise ValueError("eps must be positive")
        total = n * (n - 1) // 2
        idx = np.abs(np.arange(total + 1) / total - rho) < eps
        if not np.any(idx):
            raise ValueError(f"no pattern counts within {eps} of rho = {rho} at n = {n}")
        windows.append((n, idx))
    tables = dict(_mahonian_tables(n for n, _ in windows))
    return [float((_logsumexp(tables[n][idx]) - math.lgamma(n + 1)) / n) for n, idx in windows]


def _logsumexp(a: np.ndarray) -> np.float64:
    """log sum exp(a) of a finite nonempty 1-D array by scipy.special.logsumexp's
    own steps, so bit for bit: every entry equal to the max M leaves the sum,
    their count m scales it, and the result is log1p(s/m) + log m + M."""
    top = a.max(keepdims=True)
    at_top = a == top
    m = at_top.sum(dtype=np.float64, keepdims=True)
    s = np.exp(np.where(at_top, -np.inf, a) - top).sum(keepdims=True)
    return (np.log1p(s / m) + np.log(m) + top)[0]

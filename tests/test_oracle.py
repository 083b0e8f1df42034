"""Exhaustive joint pattern statistics and the finite-n rate estimator.

Hand-checkable anchors: in S_3 each permutation's statistic vector
(ascending pairs, last-of-three largest, middle, smallest) can be listed
directly, and the triple classification always sums to C(n,3).  Aggregates
must be invariant under complementation (values v -> n+1-v), which swaps
ascents with descents and the largest/smallest triple classes while fixing
the middle class.  The marginal over the ascent count is the ascent
generating table, tying the enumeration to the log-space dynamic program.
The enumeration must agree exactly with the insertion recurrence, written
out here, for every n it accepts.  The rate estimator must increase with n
toward the constrained entropy and narrow with the window.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutons import (
    joint_star_counts,
    ldp_estimate,
    mahonian_log_gf,
    star12_entropy,
    star12_r_from_rho,
)
from permutons.oracle import _ldp_estimates, _logsumexp, _mahonian_tables


def s_of(rho):
    return star12_entropy(star12_r_from_rho(rho))


def test_joint_counts_smallest_cases():
    assert joint_star_counts(1) == {(0, 0, 0, 0): 1}
    assert joint_star_counts(2) == {(1, 0, 0, 0): 1, (0, 0, 0, 0): 1}
    assert joint_star_counts(3) == {
        (3, 1, 0, 0): 1,  # 123
        (2, 0, 1, 0): 1,  # 132
        (2, 1, 0, 0): 1,  # 213
        (1, 0, 0, 1): 1,  # 231
        (1, 0, 1, 0): 1,  # 312
        (0, 0, 0, 1): 1,  # 321
    }


def insertion_recurrence(n):
    """Joint star counts over S_n by inserting the new maximum with i earlier
    and j - i later elements, which adds (i, C(i,2), i (j - i), C(j-i, 2))."""
    rec = Counter({(0, 0, 0, 0): 1})
    for j in range(1, n):
        nxt = Counter()
        for vec, cnt in rec.items():
            for i in range(j + 1):
                after = j - i
                key = (vec[0] + i,
                       vec[1] + i * (i - 1) // 2,
                       vec[2] + i * after,
                       vec[3] + after * (after - 1) // 2)
                nxt[key] += cnt
        rec = nxt
    return dict(rec)


@pytest.mark.parametrize("n", range(1, 9))
def test_joint_counts_match_the_insertion_recurrence(n):
    assert joint_star_counts(n) == insertion_recurrence(n)


@pytest.mark.parametrize("n", [4, 6])
def test_joint_counts_structure(n):
    counts = joint_star_counts(n)
    assert sum(counts.values()) == math.factorial(n)
    pairs, triples = math.comb(n, 2), math.comb(n, 3)
    for (a, p, q, s), c in counts.items():
        assert 0 <= a <= pairs
        assert p + q + s == triples
        assert c > 0


@pytest.mark.parametrize("n", [5, 7])
def test_joint_counts_complement_symmetry(n):
    counts = joint_star_counts(n)
    pairs = math.comb(n, 2)
    flipped = {}
    for (a, p, q, s), c in counts.items():
        flipped[(pairs - a, s, q, p)] = c
    assert flipped == counts


@pytest.mark.parametrize("n", [4, 8])
def test_ascent_marginal_matches_generating_table(n):
    counts = joint_star_counts(n)
    marg = np.zeros(math.comb(n, 2) + 1)
    for (a, _, _, _), c in counts.items():
        marg[a] += c
    table = np.exp(mahonian_log_gf(n))
    assert np.abs(marg - np.round(table)).max() == 0.0


def test_joint_counts_range_check():
    for n in (0, 9):
        with pytest.raises(ValueError):
            joint_star_counts(n)


def test_ldp_estimate_frozen_values():
    assert ldp_estimate(50, 0.4, 0.05) == pytest.approx(
        -0.037457156522116293, abs=1e-12)
    assert ldp_estimate(100, 0.4, 0.05) == pytest.approx(
        -0.026540923164411083, abs=1e-12)
    assert ldp_estimate(200, 0.4, 0.05) == pytest.approx(
        -0.020164169809149257, abs=1e-12)


def test_ldp_estimate_increases_with_n_toward_limit():
    ests = [ldp_estimate(n, 0.4, 0.05) for n in (50, 100, 200)]
    assert ests[0] < ests[1] < ests[2] < 0.0
    assert abs(ests[-1] - s_of(0.4)) <= 0.05


def test_ldp_estimate_monotone_in_window():
    vals = [ldp_estimate(100, 0.3, eps) for eps in (0.01, 0.03, 0.1)]
    assert vals[0] <= vals[1] <= vals[2]


def test_ldp_estimate_rare_event_bracket():
    # far tail: the estimate is strongly negative and lands inside the
    # entropy bracket spanned by the window edges (plus 1/n-scale slack)
    est = ldp_estimate(200, 0.1, 0.02)
    assert est < -0.3
    assert s_of(0.08) <= est <= s_of(0.12) + 0.05


def test_ldp_estimate_window_can_be_empty():
    with pytest.raises(ValueError):
        ldp_estimate(10, 0.123456789, 1e-9)


def test_ldp_estimate_input_validation():
    for n, rho, eps, cause in ((1, 0.4, 0.1, "n must"), (501, 0.4, 0.1, "n must"),
                               (50.5, 0.4, 0.1, "integer"), ("3", 0.4, 0.1, "integer"),
                               (100, 0.0, 0.1, "rho"), (100, 1.0, 0.1, "rho"),
                               (100, 0.4, 0.0, "eps"), (50, 0.4, float("nan"), "eps")):
        with pytest.raises(ValueError, match=cause):
            ldp_estimate(n, rho, eps)
    assert ldp_estimate(np.int64(50), 0.4, 0.05) == ldp_estimate(50, 0.4, 0.05)


def test_one_mahonian_run_gives_every_table_bit_for_bit():
    # one DP to the largest n, collecting on the way, against one DP per n
    ns = (500, 1, 2, 3, 5, 17, 50, 100, 200, 400, 17)
    tables = list(_mahonian_tables(ns))
    assert [n for n, _ in tables] == sorted(set(ns))
    for n, lc in tables:
        assert _same_bits(lc, mahonian_log_gf(n)), n


def test_batched_ldp_estimates_are_the_single_ones():
    ns = [200, 50, 100, 50, 400]
    assert _ldp_estimates(ns, 0.4, 0.05) == [ldp_estimate(n, 0.4, 0.05) for n in ns]
    # each n is checked in the given order, before any DP: the first bad n
    # raises the error a loop over ldp_estimate raises
    for ns, rho, eps, cause in (([50, 501, 2.5], 0.4, 0.05, r"n must lie in \[2, 500\]"),
                                ([50, 2.5, 501], 0.4, 0.05, "integer"),
                                ([100, 50], 0.123456789, 1e-9, "at n = 100"),
                                ([100, 50], 0.4, 0.0, "eps")):
        with pytest.raises(ValueError, match=cause):
            _ldp_estimates(ns, rho, eps)


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=40),
       st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_logsumexp_is_scipys_bit_for_bit(values, ties, seed):
    from scipy.special import logsumexp

    a = np.array(values)
    # copy the maximum onto up to `ties` more entries
    a[np.random.default_rng(seed).integers(0, a.size, ties)] = a.max()
    out = _logsumexp(a)
    assert type(out) is np.float64
    assert _same_bits(out, logsumexp(a))


@pytest.mark.parametrize("a", [[0.0], [-745.0], [3.5, 3.5], [1.0, 2.0, 2.0, 2.0, 1.0],
                               [-1e300, 0.0]])
def test_logsumexp_of_short_and_tied_arrays_is_scipys(a):
    from scipy.special import logsumexp

    assert _same_bits(_logsumexp(np.array(a)), logsumexp(np.array(a)))


@pytest.mark.parametrize("n", [2, 3, 17, 50, 200, 500])
def test_logsumexp_of_mahonian_windows_is_scipys(n):
    # the table is palindromic, so a window around the middle has tied maxima
    from scipy.special import logsumexp

    lc = mahonian_log_gf(n)
    grid = np.arange(lc.size) / (n * (n - 1) // 2)
    for rho in (0.1, 0.3, 0.5, 0.77):
        for eps in (0.01, 0.05, 0.2, 1.0):
            window = lc[np.abs(grid - rho) < eps]
            if window.size:
                assert _same_bits(_logsumexp(window), logsumexp(window))

"""Feasible-region boundary curves, the dimple point, and staircase sweeps.

The triple/reversed-triple region is bounded above by the cubic curve
(t^3, 1 - 3t^2 + 2t^3), its coordinate mirror, below by the line
x + y = 1/4, and by the axes segments that close the boundary.  Exact
anchors: the cubic passes through (0, 1) and (1, 0); its midpoint is
(1/8, 1/2); the dimple parameter solves s^3 = (1-s)^3 + 3s(1-s)^2, that is
s^3 - 3s^2 + 1 = 0, so the returned s must lie within one ulp of that root
(bisected in exact rationals), r = s^3 and the crossing (r, r) must lie on
the cubic.  Staircase permutons with a long descent and
k = a/b ascending-block steps have closed pattern densities: both points
in distinct steps give the ascent, so rho_12 = a^2 at b = 0 (degenerate
diagonal) and 1 - b/a in general; three points in three distinct steps
give rho_123 = a^3 at b = 0 and (1 - b/a)(1 - 2b/a) for k steps.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from permutons import (
    PatternSpec,
    RegionCurve,
    density_mc,
    dimple,
    gamma_ab,
    gamma_ab_sweep,
    region_123_321,
    region_star23_boundary,
)


def f1(x):
    return 1.0 - 3.0 * np.cbrt(x) ** 2 + 2.0 * x


def test_region_curve_inventory():
    t = np.linspace(0.0, 1.0, 33)
    curves = region_123_321(t)
    assert set(curves) == {"F1", "F2", "C", "D", "E"}
    for c in curves.values():
        assert isinstance(c, RegionCurve)
        assert c.points.shape == (33, 2)
        assert np.all((c.points >= -1e-15) & (c.points <= 1.0 + 1e-15))


def test_cubic_boundary_curve():
    t = np.array([0.0, 0.5, 1.0])
    c = region_123_321(t)["F1"]
    assert np.array_equal(c.points[0], (0.0, 1.0))
    assert np.array_equal(c.points[-1], (1.0, 0.0))
    assert np.abs(c.points[1] - (0.125, 0.5)).max() <= 1e-15
    # dense check against the explicit graph y = f1(x)
    td = np.linspace(0.0, 1.0, 101)
    pts = region_123_321(td)["F1"].points
    assert np.abs(pts[:, 1] - f1(pts[:, 0])).max() <= 1e-12


def test_mirror_and_closing_segments():
    t = np.linspace(0.0, 1.0, 21)
    curves = region_123_321(t)
    assert np.abs(curves["F2"].points - curves["F1"].points[:, ::-1]).max() \
        <= 1e-15
    C = curves["C"].points
    assert np.abs(C.sum(axis=1) - 0.25).max() <= 1e-15
    assert np.array_equal(C[0], (0.0, 0.25))
    assert np.array_equal(C[-1], (0.25, 0.0))
    assert np.all(curves["D"].points[:, 1] == 0.0)
    assert np.all(curves["E"].points[:, 0] == 0.0)


def test_region_input_validation():
    with pytest.raises(ValueError):
        region_123_321(np.array([-0.2, 0.5]))
    with pytest.raises(ValueError):
        region_star23_boundary(np.array([0.0, 1.2]))


def test_region_curves_refuse_non_finite_values():
    # NaN passes both the monotone and the unit-square comparisons, so it
    # once came back as a NaN point on every curve
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
            region_123_321([0.0, bad])
        with pytest.raises(ValueError, match="finite"):
            RegionCurve("c", [0.0, 1.0], [[0.0, 0.0], [bad, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            RegionCurve("c", [0.0, bad], [[0.0, 0.0], [0.5, 0.5]])


def test_dimple_point():
    s, r = dimple()
    assert r == pytest.approx(s ** 3, abs=1e-12)
    # the crossing lies on the cubic and on the diagonal
    assert f1(r) == pytest.approx(r, abs=1e-9)
    assert (s, r) == pytest.approx((0.653, 0.278), abs=1e-3)
    # s is within one ulp of the root of s^3 - 3s^2 + 1 in (0, 1), found by
    # exact rational bisection to 2^-80
    lo, hi = Fraction(0), Fraction(1)
    while hi - lo > Fraction(1, 2 ** 80):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if mid ** 3 - 3 * mid ** 2 + 1 < 0 else (mid, hi)
    assert abs(Fraction(s) - lo) <= Fraction(math.ulp(s))


def test_staircase_validation():
    with pytest.raises(ValueError):
        gamma_ab(-0.1, 0.0)
    with pytest.raises(ValueError):
        gamma_ab(1.1, 0.0)
    with pytest.raises(ValueError):
        gamma_ab(0.4, 0.3)  # b may not exceed a/2


def test_sweep_rejects_fewer_than_one_trial():
    for trials in (0, -5):
        with pytest.raises(ValueError, match="at least one trial"):
            gamma_ab_sweep([0.5], [0.5], trials, 1)
    for trials in (2.5, 3.0, True, np.bool_(True)):
        with pytest.raises(ValueError, match="mc_trials must be an integer"):
            gamma_ab_sweep([0.5], [0.5], trials, 1)
    assert gamma_ab_sweep([0.5], [0.5], np.int64(10), 1).shape == (1, 4)


def test_sweep_grid_and_corner_values():
    a = np.array([0.0, 1.0])
    frac = np.array([0.0, 1.0])
    rows = gamma_ab_sweep(a, frac, 4000, 2)
    assert rows.shape == (4, 4)
    # a = 0 collapses to the bare descent: no ascents at all
    assert np.all(rows[rows[:, 0] == 0.0][:, 2:] == 0.0)
    # a = 1, b = 0 is the identity: every sampled triple ascends
    ident = rows[(rows[:, 0] == 1.0) & (rows[:, 1] == 0.0)][0]
    assert ident[2] == 1.0 and ident[3] == 1.0
    # fractions scale b into [0, a/2]
    assert rows[:, 1].max() == pytest.approx(0.5, abs=1e-15)


def test_sweep_matches_closed_form_densities():
    # k = a/b equal steps: rho_12 = 1 - b/a, rho_123 = (1-b/a)(1-2b/a)
    rows = gamma_ab_sweep(np.array([1.0]), np.array([2.0 / 3.0]), 200000, 7)
    a, b, r12, r123 = rows[0]
    assert b == pytest.approx(1.0 / 3.0, abs=1e-15)
    se12 = np.sqrt(r12 * (1 - r12) / 200000)
    se123 = np.sqrt(r123 * (1 - r123) / 200000)
    assert abs(r12 - 2.0 / 3.0) <= 5 * se12
    assert abs(r123 - 2.0 / 9.0) <= 5 * se123


def test_sweep_degenerate_diagonal_densities():
    # b = 0: ascending diagonal over the last a of the square
    rows = gamma_ab_sweep(np.array([0.6]), np.array([0.0]), 200000, 9)
    _, b, r12, r123 = rows[0]
    assert b == 0.0
    assert abs(r12 - 0.36) <= 5 * np.sqrt(0.36 * 0.64 / 200000)
    assert abs(r123 - 0.216) <= 5 * np.sqrt(0.216 * 0.784 / 200000)


def test_sweep_cloud_stays_inside_region():
    # small version of the acceptance sweep: the (rho_123, rho_321) cloud
    # respects the boundary within Monte Carlo noise.  The upper boundary
    # is the UPPER envelope of the cubic and its mirror: the two arcs cross
    # at the dimple and the region dents inward there, so each arc alone
    # would wrongly exclude boundary staircases of the other family.
    td = np.linspace(0.0, 1.0, 4001)
    xs, ys = td ** 3, f1(td ** 3)

    def f1_inv(x):
        return np.interp(x, ys[::-1], xs[::-1])

    trials = 20000
    slack = 3.0 * 0.5 / np.sqrt(trials)
    for a in (0.4, 0.8, 1.0):
        for frac in (0.0, 0.5, 1.0):
            g = gamma_ab(a, frac * a / 2.0)
            x = density_mc(g, PatternSpec.parse("123"), trials, 31).value
            y = density_mc(g, PatternSpec.parse("321"), trials, 32).value
            assert x + y >= 0.25 - slack
            assert y <= max(f1(x), f1_inv(x)) + slack
    # the b = 0 staircase saturates the cubic: its densities sit ON the arc
    x, y = 0.4 ** 3, f1(0.4 ** 3)
    assert y > f1_inv(x)  # so the single-arc test would reject it


def test_sweep_draws_what_density_mc_draws():
    # the rho_123 column is the density_mc estimate from each point's
    # spawned generator: the sweep has no sampling loop of its own
    a, frac, trials, seed = [0.3, 0.9], [0.25, 0.75], 3000, 17
    rows = gamma_ab_sweep(a, frac, trials, seed)
    seeds = np.random.SeedSequence(seed).spawn(len(rows))
    for (ai, bi, _, r123), ss in zip(rows, seeds):
        est = density_mc(gamma_ab(ai, bi), PatternSpec.parse("123"), trials,
                         np.random.default_rng(ss))
        assert est.value == r123


def test_sweep_reproducibility():
    a = np.array([0.3, 0.9])
    frac = np.array([0.25, 0.75])
    r1 = gamma_ab_sweep(a, frac, 3000, 17)
    r2 = gamma_ab_sweep(a, frac, 3000, 17)
    assert np.array_equal(r1, r2)
    # (rho_12, rho_123) hit counts pinned at a fixed seed
    rows = gamma_ab_sweep([0.5, 1.0], [0.0, 0.5], 5000, 3)
    hits = [[1247, 623], [961, 214], [5000, 5000], [3783, 1896]]
    assert np.array_equal(rows[:, 2:], np.array(hits) / 5000)

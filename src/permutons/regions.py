"""Feasible-region boundary curves for monotone-pattern density pairs.

For the density pair (rho_123, rho_321) the feasible region of all permutons
is bounded above by two cubic curves and below by a line and two axis
segments:

    F1: (x, y) = (t^3, (1-t)^3 + 3 t (1-t)^2),   t in [0, 1]
    F2: the mirror image of F1 under (x, y) -> (y, x)
    C:  the segment x + y = 1/4 between (0, 1/4) and (1/4, 0)
    D:  the x-axis segment from (1/4, 0) to (1, 0)
    E:  the y-axis segment from (0, 1/4) to (0, 1)

F1 is traced by permutons that are an ascent of relative length t spliced
with a descent: the ascending block contributes t^3 to rho_123 and the rest
contributes (1-t)^3 + 3t(1-t)^2 to rho_321 (all triples with at most one
point in the ascent descend).  F1 and F2 cross at a concave "dimple" (r, r)
where r = s^3 and s solves s^3 = (1-s)^3 + 3 s (1-s)^2; both coordinates of
the crossing are computed here by bisection.

``region_star23_boundary`` gives the two boundary curves of the star pair
(rho_*2, rho_**3).

``gamma_ab_sweep`` estimates (rho_12, rho_123) by Monte Carlo over the
two-parameter staircase family gamma_{a,b}: the image of the parameter
triangle 0 <= b <= a/2 fills the (rho_12, rho_123) feasible region, so the
sweep cloud traces that region's shape from within.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import gamma_ab, sample_points
from .patterns import PatternSpec, _matches


@dataclass(frozen=True)
class RegionCurve:
    """A labeled parameterized curve: points[i] at parameter t[i]."""

    label: str
    t: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        pts = np.asarray(self.points, dtype=np.float64)
        if t.ndim != 1 or pts.shape != (t.size, 2):
            raise ValueError("need t of shape (n,) and points of shape (n, 2)")
        if t.size >= 2 and np.any(np.diff(t) <= 0):
            raise ValueError("curve parameter must be strictly increasing")
        if np.any(pts < -1e-12) or np.any(pts > 1 + 1e-12):
            raise ValueError("curve points must lie in the unit square")
        t.setflags(write=False)
        pts.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "points", pts)


def region_123_321(t_samples) -> dict[str, RegionCurve]:
    """Boundary curves F1, F2, C, D, E of the (rho_123, rho_321) region."""
    t = np.asarray(t_samples, dtype=np.float64)
    x1 = t ** 3
    y1 = (1 - t) ** 3 + 3 * t * (1 - t) ** 2
    curves = {
        "F1": RegionCurve("F1", t, np.column_stack([x1, y1])),
        "F2": RegionCurve("F2", t, np.column_stack([y1, x1])),
        "C": RegionCurve("C", t, np.column_stack([t / 4, (1 - t) / 4])),
        "D": RegionCurve("D", t, np.column_stack([0.25 + 0.75 * t, np.zeros_like(t)])),
        "E": RegionCurve("E", t, np.column_stack([np.zeros_like(t), 0.25 + 0.75 * t])),
    }
    return curves


def region_star23_boundary(t_samples) -> tuple[RegionCurve, RegionCurve]:
    """Lower and upper boundary curves of the (rho_*2, rho_**3) region.

    Lower: (2t - t^2, 3t^2 - 2t^3); upper: (1 - t^2, 1 - t^3), t in [0, 1].
    """
    t = np.asarray(t_samples, dtype=np.float64)
    lower = RegionCurve("star23-lower", t,
                        np.column_stack([2 * t - t ** 2, 3 * t ** 2 - 2 * t ** 3]))
    upper = RegionCurve("star23-upper", t,
                        np.column_stack([1 - t ** 2, 1 - t ** 3]))
    return lower, upper


def dimple() -> tuple[float, float]:
    """The crossing (r, r) of F1 and F2: solves s^3 = (1-s)^3 + 3s(1-s)^2.

    Returns (s, r) with r = s^3.  The defining function is strictly
    increasing on [0, 1] with a sign change, so bisection to a bracket of
    width 1e-12 is safe.
    """
    def h(s):
        return s ** 3 - ((1 - s) ** 3 + 3 * s * (1 - s) ** 2)

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if h(mid) < 0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    return s, s ** 3


def gamma_ab_sweep(a_samples, b_fractions, mc_trials: int,
                   seed: int) -> np.ndarray:
    """Monte-Carlo (rho_12, rho_123) over the gamma_{a,b} family.

    ``b_fractions`` are fractions of the allowed range: for each a the
    staircase parameter is b = fraction * a / 2, so the sample grid covers
    the whole parameter triangle.  Returns rows (a, b, rho_12, rho_123).
    Each grid point draws mc_trials independent triples; rho_12 reuses the
    first two points of every triple.
    """
    if mc_trials < 1:
        raise ValueError("need at least one trial")
    a_samples = np.atleast_1d(np.asarray(a_samples, dtype=np.float64))
    b_fractions = np.atleast_1d(np.asarray(b_fractions, dtype=np.float64))
    if np.any(b_fractions < 0) or np.any(b_fractions > 1):
        raise ValueError("b fractions must lie in [0, 1]")
    pairs = [(float(a), float(frac * a / 2)) for a in a_samples for frac in b_fractions]
    seeds = np.random.SeedSequence(seed).spawn(len(pairs))
    asc2, asc3 = PatternSpec.parse("12"), PatternSpec.parse("123")
    rows = np.empty((len(pairs), 4))
    for i, ((a, b), ss) in enumerate(zip(pairs, seeds)):
        perm = gamma_ab(a, b)
        rng = np.random.default_rng(ss)
        hits12 = hits123 = 0
        for done in range(0, mc_trials, 250_000):
            t = min(250_000, mc_trials - done)
            x, y = sample_points(perm, 3 * t, rng)
            x, y = x.reshape(t, 3), y.reshape(t, 3)
            hits123 += int(np.count_nonzero(_matches(x, y, asc3)))
            # rho_12 must use an unsorted pair: the two x-smallest of three
            # points are not an i.i.d. pair, so reuse the raw first two draws
            hits12 += int(np.count_nonzero(_matches(x[:, :2], y[:, :2], asc2)))
        rows[i] = (a, b, hits12 / mc_trials, hits123 / mc_trials)
    return rows

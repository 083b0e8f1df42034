"""Permuton representations, metrics, coarsening, and point sampling.

A permuton is a probability measure on the unit square whose two coordinate
marginals are both Lebesgue measure.  Permutons arise as limits of large
permutations: the empirical measure of the n points (i/n, pi(i)/n) of a
permutation pi converges (in the weak topology) to a permuton as n grows.

This module provides three concrete representations:

* ``GridPermuton`` -- an m x m matrix of cell masses w[i, j] >= 0 with every
  row and column summing to 1/m.  Cell (i, j) is the half-open box
  (i/m, (i+1)/m] x (j/m, (j+1)/m] (0-based indices; documentation and the
  CSV format speak 1-based).  Any permuton coarsens to such a grid, and the
  grid determines the permuton up to resolution 1/m.
* ``SegmentPermuton`` -- a list of slope +-1 line segments each carrying
  uniform one-dimensional mass.  This represents permutons supported on
  unions of diagonal segments exactly (no rasterization error).
* ``Permutation`` -- a finite permutation in one-line notation, the discrete
  object whose induced measure gamma_pi is the bridge to the continuum.

Two metrics are implemented.  The rectangle metric

    d_rect(g1, g2) = max over aligned rectangles R of |g1(R) - g2(R)|

is computed exactly on the common grid by a maximum-subrectangle scan of the
difference matrix (2-D Kadane, O(m^3) after prefix sums).  The CDF metric is
the L-infinity distance between cumulative distribution functions sampled on
grid corners.  The two are equivalent: linf <= rect <= 4 * linf, since any
rectangle mass is an inclusion-exclusion of four CDF corner values.

``gamma_ab`` builds a two-parameter family of segment permutons: a long
descent, then a staircase of b-step descents arranged along an ascent (the
b -> 0 limit is a clean ascending diagonal).  The family interpolates between
the reverse diagonal (a = b = 0) and staircase shapes whose monotone-pattern
densities trace out nontrivial feasible-region boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MARGINAL_TOL = 1e-12


def _as_float_matrix(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"cell-mass matrix must be square, got shape {w.shape}")
    return w


@dataclass(frozen=True)
class GridPermuton:
    """Step permuton: m x m cell masses with uniform marginals.

    w[i, j] is the mass of the half-open cell (i/m, (i+1)/m] x (j/m, (j+1)/m]
    in 0-based indexing, so axis 0 is the x (horizontal) cell index and axis 1
    is the y (vertical) cell index.
    """

    w: np.ndarray

    def __post_init__(self):
        w = _as_float_matrix(self.w)
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        m = w.shape[0]
        if m < 1:
            raise ValueError("grid resolution must be >= 1")
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise ValueError("cell masses must be finite and nonnegative")
        target = 1.0 / m
        row = w.sum(axis=1)
        col = w.sum(axis=0)
        dev = max(np.abs(row - target).max(), np.abs(col - target).max())
        if dev > MARGINAL_TOL:
            raise ValueError(
                f"marginals deviate from 1/m by {dev:.3e} (tolerance {MARGINAL_TOL:.0e})"
            )
        if abs(w.sum() - 1.0) > MARGINAL_TOL:
            raise ValueError("total mass must equal 1")

    @property
    def m(self) -> int:
        return self.w.shape[0]

    def density(self) -> np.ndarray:
        """Cell-average density values m^2 * w (the step-function density)."""
        return self.w * float(self.m) ** 2


@dataclass(frozen=True)
class CDFField:
    """Corner-sampled CDF G[i, j] = mass of [0, i/m] x [0, j/m], shape (m+1, m+1)."""

    G: np.ndarray

    def __post_init__(self):
        G = _as_float_matrix(self.G)
        G.setflags(write=False)
        object.__setattr__(self, "G", G)

    @property
    def m(self) -> int:
        return self.G.shape[0] - 1


@dataclass(frozen=True)
class SegmentPermuton:
    """Permuton supported on slope +-1 segments with uniform mass along each.

    ``segments`` is a float array of shape (k, 5) with rows
    (x0, x1, y0, slope, mass): the segment runs from (x0, y0) to
    (x1, y0 + slope * (x1 - x0)), slope in {+1, -1}, carrying total mass
    ``mass`` spread uniformly in arc length (equivalently in x, since
    |slope| = 1).
    """

    segments: np.ndarray

    def __post_init__(self):
        seg = np.asarray(self.segments, dtype=np.float64)
        if seg.ndim != 2 or seg.shape[1] != 5:
            raise ValueError("segments must have shape (k, 5)")
        if not np.all(np.isfinite(seg)):
            raise ValueError("segment entries must be finite")
        seg.setflags(write=False)
        object.__setattr__(self, "segments", seg)
        x0, x1, y0, slope, mass = seg.T
        if np.any(x1 <= x0):
            raise ValueError("each segment needs x0 < x1")
        if np.any(np.abs(np.abs(slope) - 1.0) > 1e-15):
            raise ValueError("slopes must be +1 or -1")
        if np.any(mass < 0):
            raise ValueError("segment masses must be nonnegative")
        if abs(mass.sum() - 1.0) > 1e-9:
            raise ValueError("segment masses must sum to 1")
        y1 = y0 + slope * (x1 - x0)
        lo = np.minimum(y0, y1)
        hi = np.maximum(y0, y1)
        eps = 1e-12
        if np.any(x0 < -eps) or np.any(x1 > 1 + eps) or np.any(lo < -eps) or np.any(hi > 1 + eps):
            raise ValueError("segments must lie inside the unit square")
        # Uniform marginals: on every elementary interval between breakpoints
        # the covering segments' linear densities mass/(x1-x0) must sum to 1.
        for lo_e, hi_e, label in ((x0, x1, "x"), (lo, hi, "y")):
            dev = _projection_deviation(lo_e, hi_e, mass)
            if dev > 1e-9:
                raise ValueError(f"{label}-marginal deviates from uniform by {dev:.3e}")


def _projection_deviation(lo: np.ndarray, hi: np.ndarray, mass: np.ndarray) -> float:
    """Max deviation of the projected 1-D density from 1 on [0, 1].

    Breakpoints closer than 1e-12 are merged: endpoints of adjacent segments
    are computed by different arithmetic and can disagree in the last ulp,
    and a sliver that narrow carries mass far below the 1e-9 tolerance.
    """
    cuts = np.unique(np.concatenate([lo, hi, [0.0, 1.0]]))
    cuts = cuts[np.concatenate([[True], np.diff(cuts) > 1e-12])]
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    dens = mass / (hi - lo)
    cover = (lo[None, :] < mids[:, None]) & (mids[:, None] < hi[None, :])
    total = cover @ dens
    return float(np.abs(total - 1.0).max())


@dataclass(frozen=True)
class Permutation:
    """Permutation in one-line notation; ``values`` is a bijection on 1..n."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("one-line notation must be a nonempty 1-D sequence")
        if not np.array_equal(np.sort(v), np.arange(1, v.size + 1)):
            raise ValueError("values must be a bijection on 1..n")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size


def uniform_grid(m: int) -> GridPermuton:
    """The uniform (Lebesgue) permuton at resolution m: every cell mass 1/m^2."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return GridPermuton(np.full((m, m), 1.0 / (m * m)))


def grid_from_permutation(pi: Permutation, m: int | None = None) -> GridPermuton:
    """Step permuton of gamma_pi, the measure with mass 1/n on each diagonal
    square block ((i-1)/n, i/n] x ((pi(i)-1)/n, pi(i)/n].

    With m = n each point block is one cell; for m a proper divisor of n the
    blocks aggregate exactly (each point block lies inside one coarse cell).
    """
    n = pi.n
    if m is None:
        m = n
    if m < 1 or n % m != 0:
        raise ValueError(f"resolution m={m} must divide the permutation length n={n}")
    w = np.zeros((m, m))
    # Point i occupies x-block i (1-based); block i maps to coarse cell
    # floor((i-1) * m / n) because m | n.
    xi = (np.arange(n) * m) // n
    yi = ((pi.values - 1) * m) // n
    np.add.at(w, (xi, yi), 1.0 / n)
    return GridPermuton(w)


def cdf(g: GridPermuton) -> CDFField:
    """Corner CDF of a grid permuton: G[i, j] = sum of w over cells < (i, j)."""
    m = g.m
    G = np.zeros((m + 1, m + 1))
    G[1:, 1:] = np.cumsum(np.cumsum(g.w, axis=0), axis=1)
    return CDFField(G)


def rect_distance(g1: GridPermuton, g2: GridPermuton) -> float:
    """Max over corner-aligned rectangles R of |g1(R) - g2(R)|.

    Exact O(m^3) scan: with D the cell difference matrix and P its row-prefix
    sums, every rectangle mass is a contiguous column sum of some P column
    difference; running max/min prefix scans find the extremal subarray for
    all (row-interval, column-interval) pairs simultaneously.
    """
    if g1.m != g2.m:
        raise ValueError(f"resolution mismatch: {g1.m} vs {g2.m} (coarsen first)")
    d = g1.w - g2.w
    m = g1.m
    # P[i, j] = sum of d[i, :j]; column sums over y-interval [j0, j1) come from
    # P[:, j1] - P[:, j0].
    P = np.zeros((m, m + 1))
    np.cumsum(d, axis=1, out=P[:, 1:])
    best = 0.0
    for j0 in range(m):
        # S[:, c] = per-row sums of d over y-cells [j0, j0 + c + 1)
        S = P[:, j0 + 1:] - P[:, j0:j0 + 1]
        # For each column of S find the maximum-absolute contiguous row sum via
        # prefix sums: max_(i0<i1) |C[i1] - C[i0]| with C the padded cumsum.
        C = np.vstack([np.zeros((1, S.shape[1])), np.cumsum(S, axis=0)])
        run_min = np.minimum.accumulate(C, axis=0)
        run_max = np.maximum.accumulate(C, axis=0)
        hi = float((C[1:] - run_min[:-1]).max())
        lo = float((run_max[:-1] - C[1:]).max())
        best = max(best, hi, lo)
    return best


def cdf_linf_distance(g1: GridPermuton, g2: GridPermuton) -> float:
    """Max over grid corners of |G1 - G2|; satisfies linf <= rect <= 4 linf."""
    if g1.m != g2.m:
        raise ValueError(f"resolution mismatch: {g1.m} vs {g2.m} (coarsen first)")
    return float(np.abs(cdf(g1).G - cdf(g2).G).max())


def coarsen(g: GridPermuton, m2: int) -> GridPermuton:
    """Aggregate cell masses into an m2 x m2 grid; m2 must divide m."""
    m = g.m
    if m2 < 1 or m % m2 != 0:
        raise ValueError(f"target resolution {m2} must divide {m}")
    k = m // m2
    w = g.w.reshape(m2, k, m2, k).sum(axis=(1, 3))
    return GridPermuton(w)


def sample_points(source: GridPermuton | SegmentPermuton, n: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. points from the permuton: (x array, y array), unsorted."""
    if isinstance(source, GridPermuton):
        m = source.m
        p = source.w.ravel()
        idx = rng.choice(m * m, size=n, p=p / p.sum())
        ix, iy = np.divmod(idx, m)
        x = (ix + rng.random(n)) / m
        y = (iy + rng.random(n)) / m
        return x, y
    if isinstance(source, SegmentPermuton):
        seg = source.segments
        mass = seg[:, 4]
        idx = rng.choice(seg.shape[0], size=n, p=mass / mass.sum())
        x0, x1, y0, slope = seg[idx, 0], seg[idx, 1], seg[idx, 2], seg[idx, 3]
        x = x0 + (x1 - x0) * rng.random(n)
        y = y0 + slope * (x - x0)
        return x, y
    raise TypeError(f"unsupported permuton source {type(source).__name__}")


def sample_permutation(source: GridPermuton | SegmentPermuton, n: int,
                       seed: int | np.random.Generator) -> Permutation:
    """Pattern of n i.i.d. points from the permuton.

    Points are sorted by x; the output one-line values are the ranks of the
    corresponding y values.  Ties (probability zero in exact arithmetic, and
    possible only through floating-point collisions) trigger a fresh draw.
    """
    if n < 1:
        raise ValueError("need n >= 1 sample points")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    for _ in range(64):
        x, y = sample_points(source, n, rng)
        if np.unique(x).size == n and np.unique(y).size == n:
            order = np.argsort(x)
            ranks = np.argsort(np.argsort(y[order])) + 1
            return Permutation(ranks)
    raise RuntimeError("persistent coordinate ties while sampling")


def gamma_ab(a: float, b: float) -> SegmentPermuton:
    """Staircase segment permuton with a long descent and b-step staircase.

    Segments, all of slope -1 except the b = 0 degenerate case:

    1. the descent y = 1 - x over x in [0, 1-a];
    2. for j = 1..k with k = floor(a/b), the step mapping
       x in (1-a+(j-1)b, 1-a+jb] onto y in ((j-1)b, jb] via
       y = (2j-1) b + 1 - a - x;
    3. the remainder step y = 1 + kb - x over x in (1-a+kb, 1].

    Masses are proportional to segment length, so the marginal densities are
    exactly uniform.  For b = 0 the staircase degenerates to the ascending
    diagonal from (1-a, 0) to (1, a).
    """
    if not (0.0 <= a <= 1.0) or not (0.0 <= b <= a / 2 + 1e-15):
        raise ValueError(f"need 0 <= a <= 1 and 0 <= b <= a/2, got a={a}, b={b}")
    rows = []
    if a < 1.0:
        rows.append((0.0, 1.0 - a, 1.0, -1.0, 1.0 - a))
    if a > 0.0:
        if b == 0.0:
            rows.append((1.0 - a, 1.0, 0.0, 1.0, a))
        else:
            k = int(np.floor(a / b + 1e-12))
            for j in range(1, k + 1):
                xl = 1.0 - a + (j - 1) * b
                xr = 1.0 - a + j * b
                # y = (2j-1) b + 1 - a - x descends from jb at x=xl to (j-1)b.
                rows.append((xl, xr, (2 * j - 1) * b + 1.0 - a - xl, -1.0, b))
            xl = 1.0 - a + k * b
            if 1.0 - xl > 1e-12:
                rows.append((xl, 1.0, 1.0 + k * b - xl, -1.0, 1.0 - xl))
    seg = np.array(rows)
    seg[:, 4] /= seg[:, 4].sum()
    return SegmentPermuton(seg)


def rebalance_marginals(w: np.ndarray, tol: float = 1e-13,
                        max_iter: int = 100_000) -> np.ndarray:
    """Alternating row/column rescaling onto the uniform-marginal polytope.

    Sinkhorn iteration: scale every row sum to 1/m, then every column sum.
    For strictly positive w this converges geometrically to the unique
    doubly-stochastic-scaled matrix diag(u) w diag(v).  Zero rows or columns
    cannot be repaired and raise.
    """
    w = np.array(w, dtype=np.float64)
    m = w.shape[0]
    target = 1.0 / m
    rows = w.sum(axis=1)
    # fmin skips NaN, so each guard is true exactly when np.any(sums <= 0)
    # is; min would return NaN and miss a zero sum next to a NaN one
    for _ in range(max_iter):
        if np.fmin.reduce(rows) <= 0:
            raise ValueError("cannot rebalance: zero row mass")
        w *= (target / rows)[:, None]
        cols = w.sum(axis=0)
        if np.fmin.reduce(cols) <= 0:
            raise ValueError("cannot rebalance: zero column mass")
        w *= (target / cols)[None, :]
        rows = w.sum(axis=1)
        dev = max(abs(rows - target).max(), abs(w.sum(axis=0) - target).max())
        if dev <= tol:
            return w
    raise RuntimeError(f"marginal rebalancing did not reach {tol:.1e} "
                       f"in {max_iter} iterations (last deviation {dev:.3e})")


def grid_to_csv(g: GridPermuton) -> str:
    """Serialize as CSV: header ``m=<int>``, then m rows of m masses.

    Row i (1-based) is x-cell i; column j is y-cell j.  Masses are written
    with 17 significant digits so parsing reproduces the float64 exactly.
    """
    lines = [f"m={g.m}"]
    for row in g.w:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def grid_from_csv(text: str) -> GridPermuton:
    """Parse the ``grid_to_csv`` format."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("m="):
        raise ValueError("grid CSV must start with a 'm=<int>' header line")
    m = int(lines[0][2:])
    if len(lines) != m + 1:
        raise ValueError(f"expected {m} data rows, found {len(lines) - 1}")
    w = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return GridPermuton(w)

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

``sample_points`` is the one sampler: it picks a grid cell or a segment for
each point, then places the point uniformly inside it.  The pick takes the
same n uniforms as ``Generator.choice(p=...)`` and returns the same indices,
``searchsorted(cdf, u, side="right")`` on the table that ``choice`` builds,
so every seeded stream is the one ``choice`` gives; only the search differs
(a guide table in place of a binary search over the whole table, ``_draw``,
for fewer than 2^31 categories).  ``_Sampler`` holds that table for one
source, so a caller that draws many times from one source builds it once:
``sample_permutation`` and the subset estimator of ``patterns.density_mc``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

MARGINAL_TOL = 1e-12
# rebalance_marginals stops once every marginal is within _REBALANCE_TOL of
# 1/m, and raises after _REBALANCE_MAX_ITER sweeps.
_REBALANCE_TOL = 1e-13
_REBALANCE_MAX_ITER = 100_000


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


def cdf(g: GridPermuton) -> np.ndarray:
    """Corner CDF of a grid permuton, read-only, shape (m+1, m+1):
    G[i, j] = mass of [0, i/m] x [0, j/m] = sum of w over cells < (i, j)."""
    m = g.m
    G = np.zeros((m + 1, m + 1))
    G[1:, 1:] = np.cumsum(np.cumsum(g.w, axis=0), axis=1)
    G.setflags(write=False)
    return G


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
    return float(np.abs(cdf(g1) - cdf(g2)).max())


def coarsen(g: GridPermuton, m2: int) -> GridPermuton:
    """Aggregate cell masses into an m2 x m2 grid; m2 must divide m."""
    m = g.m
    if m2 < 1 or m % m2 != 0:
        raise ValueError(f"target resolution {m2} must divide {m}")
    k = m // m2
    w = g.w.reshape(m2, k, m2, k).sum(axis=(1, 3))
    return GridPermuton(w)


def _as_count(value, name: str) -> int:
    """value as a Python int (numpy integers included); ValueError for bools
    and for anything that is not an integer."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _guide(weights: np.ndarray):
    """The table ``_lookup`` draws from: (cdf, lo, B) for the categories of
    ``weights``.

    ``cdf`` is the table ``choice(p=weights / weights.sum())`` builds.  The
    guide has B = 2^ceil(log2 N) buckets (N categories; B is a power of two,
    so u * B and b / B are exact), and lo[b] = #{i : cdf[i] <= b / B}.  N
    must be below 2^31, so that every bucket index fits in int32.
    """
    if weights.size >= 1 << 31:
        raise ValueError(f"at most 2^31 - 1 categories, got {weights.size}")
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    B = 1 << (cdf.size - 1).bit_length()
    # ceil(cdf[i] * B) is the first bucket b with cdf[i] <= b / B
    lo = np.bincount(np.ceil(cdf * B).astype(np.intp), minlength=B + 1).cumsum()
    return cdf, lo, B


def _lookup(table, u: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")`` through the guide table.

    Each point starts at lo[b] for its bucket b = floor(u * B), which is at
    most its index.  One step resolves almost every point; the rest take the
    binary search.
    """
    cdf, lo, B = table
    # u * B < B <= 2^31, and the int32 conversion vectorizes where the
    # int64 one does not
    idx = lo.take((u * B).astype(np.int32))
    # cdf[-1] = 1 > b / B, so lo[b] < N and every cdf[idx] below is in range
    idx += cdf.take(idx) <= u
    rest = np.flatnonzero(cdf.take(idx) <= u)
    if rest.size:
        idx[rest] = cdf.searchsorted(u[rest], side="right")
    return idx


def _draw(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Category index of each uniform in u, exactly as Generator.choice:
    ``cdf.searchsorted(u, side="right")`` on the table ``choice`` builds.
    Fewer than 2^31 categories (ValueError otherwise)."""
    return _lookup(_guide(weights), u)


class _Sampler:
    """``sample_points`` for one source, its draw table built once.

    A grid keeps the guide table of its m^2 cells; a segment permuton keeps
    the guide table of its masses and contiguous x0, x1 - x0, y0 and slope
    columns.  ``points`` builds x and y in place on the uniform arrays it
    draws, with the arithmetic of x = (ix + U) / m, or of
    x = x0 + (x1 - x0) U and y = y0 + slope (x - x0), in that order.
    """

    def __init__(self, source: GridPermuton | SegmentPermuton):
        if isinstance(source, GridPermuton):
            self.m = source.m
            self.table = _guide(source.w.ravel())
        elif isinstance(source, SegmentPermuton):
            seg = source.segments
            self.m = None
            self.table = _guide(seg[:, 4])
            self.x0, self.y0, self.slope = (np.ascontiguousarray(seg[:, c]) for c in (0, 2, 3))
            self.dx = seg[:, 1] - seg[:, 0]
        else:
            raise TypeError(f"unsupported permuton source {type(source).__name__}")

    def points(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        m = self.m
        if m is not None:
            # cells < m^2 < 2^31; int32 division vectorizes, int64 division
            # does not (the int64 indices are freed before x and y are drawn)
            ix, iy = np.divmod(_lookup(self.table, rng.random(n)).astype(np.int32), m)
            x = rng.random(n)
            x += ix
            x /= m
            y = rng.random(n)
            y += iy
            y /= m
            return x, y
        idx = _lookup(self.table, rng.random(n))
        x0 = self.x0.take(idx)
        x = rng.random(n)
        x *= self.dx.take(idx)
        x += x0
        y = np.subtract(x, x0, out=x0)
        y *= self.slope.take(idx)
        y += self.y0.take(idx)
        return x, y

    def ranks(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """The pattern of n points as 0-based y-ranks in x order; points
        with a tied coordinate are drawn again (at most 64 times)."""
        for _ in range(64):
            x, y = self.points(n, rng)
            ox, oy = np.argsort(x), np.argsort(y)
            xs, ys = x[ox], y[oy]
            if not ((xs[1:] == xs[:-1]).any() or (ys[1:] == ys[:-1]).any()):
                ry = np.empty(n, dtype=np.intp)
                ry[oy] = np.arange(n)
                return ry[ox]
        raise RuntimeError("persistent coordinate ties while sampling")


def sample_points(source: GridPermuton | SegmentPermuton, n: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. points from the permuton: (x array, y array), unsorted.

    Each point's cell or segment is drawn from rng.random(n) as ``_draw`` draws:
    the same uniforms and the same indices as ``rng.choice(N, n, p=...)``, so
    a seeded generator gives the points it gave with ``choice``.  The draw
    table is built on every call.  n must be a nonnegative integer (numpy
    integers included, bools not); n = 0 gives two empty arrays.
    """
    n = _as_count(n, "n")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _Sampler(source).points(n, rng)


def sample_permutation(source: GridPermuton | SegmentPermuton, n: int,
                       seed: int | np.random.Generator) -> Permutation:
    """Pattern of n i.i.d. points from the permuton.

    Points are sorted by x; the output one-line values are the ranks of the
    corresponding y values.  Ties (probability zero in exact arithmetic, and
    possible only through floating-point collisions) trigger a fresh draw.
    The draw table is built once per call, not once per draw; each draw
    takes the uniforms ``sample_points`` takes, and one argsort per axis
    ranks the points and finds the ties.
    """
    if n < 1:
        raise ValueError("need n >= 1 sample points")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return Permutation(_Sampler(source).ranks(n, rng) + 1)


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


def rebalance_marginals(w: np.ndarray) -> np.ndarray:
    """Alternating row/column rescaling onto the uniform-marginal polytope.

    Sinkhorn iteration: scale every row sum to 1/m, then every column sum.
    For strictly positive w this converges geometrically to the unique
    doubly-stochastic-scaled matrix diag(u) w diag(v).  Zero rows or columns
    cannot be repaired and raise ValueError, as do NaN or infinite entries.
    """
    w = np.array(w, dtype=np.float64)
    m = w.shape[0]
    target = 1.0 / m
    rows = w.sum(axis=1)
    # a NaN or +-inf entry makes its row sum non-finite (inf - inf is NaN)
    if not np.isfinite(rows).all():
        raise ValueError("cannot rebalance: non-finite mass")
    # fmin skips NaN, so each guard is true exactly when np.any(sums <= 0)
    # is; min would return NaN and miss a zero sum next to a NaN one
    for _ in range(_REBALANCE_MAX_ITER):
        if np.fmin.reduce(rows) <= 0:
            raise ValueError("cannot rebalance: zero row mass")
        w *= (target / rows)[:, None]
        cols = w.sum(axis=0)
        if np.fmin.reduce(cols) <= 0:
            raise ValueError("cannot rebalance: zero column mass")
        w *= (target / cols)[None, :]
        rows = w.sum(axis=1)
        dev = max(abs(rows - target).max(), abs(w.sum(axis=0) - target).max())
        if dev <= _REBALANCE_TOL:
            return w
    raise RuntimeError(f"marginal rebalancing did not reach {_REBALANCE_TOL:.1e} "
                       f"in {_REBALANCE_MAX_ITER} iterations (last deviation {dev:.3e})")


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

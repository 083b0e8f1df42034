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
(``_guide`` and ``_lookup``, for fewer than 2^31 categories): a table of at
most 16 categories counts the cdf values at or below each uniform, a larger
one starts each point at its guide bucket and steps forward, and the few
points still short after a few steps take the binary search.  A
``_Sampler`` holds that table for one source.  Each grid or segment
permuton builds its own on its first draw and keeps it, so every later
``sample_points``, ``sample_permutation`` or ``patterns.density_mc`` call
on that permuton draws from the same table.  A draw of n points looks up
their cells ``_BLOCK`` = 2^16 points at a time, so besides the n uniforms
and the cell indices it holds only one block's lookup temporaries, and it
draws x into the array of the cell uniforms once they are looked up.  The
table takes 12 bytes per category when the count of cells or segments is
a power of two and less than 16 otherwise (3 MB for a 512 x 512 grid),
for as long as the permuton lives.

Every value type of the package holds its arrays one way (``_frozen``): the
constructor copies its input, and the array it keeps is a read-only view of
that private copy, whose flag cannot be set back to writeable.  So no write
to the caller's array, and no write through the held one, can change a
permuton after it is built, and a kept draw table cannot go stale.  Pickling
or copying a value type rebuilds it through its constructor (``_reduce``), so
the copy holds its arrays the same way and builds its own draw table.

``rebalance_marginals`` is the one marginal projection and the one judge of
balance: a grid already within its tolerance comes back untouched.

``ConvergenceError`` is the one way a solver of the package reports that it
gave up: the projection here when its sweeps stall, and the star-model
quadrature and Newton iteration of ``starmodel``.  It carries the last
residual, and the last iterate where there is one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

MARGINAL_TOL = 1e-12
_REBALANCE_TOL = 1e-13
_REBALANCE_MAX_ITER = 100_000
# _lookup: tables of at most this many categories are counted directly (at
# 150,000 uniforms the count beats the guide up to about 32 categories, at
# 600,000 up to about 20), and guide steps before the binary search
_SMALL_TABLE = 16
_STEPS = 3
# points per lookup block of _Sampler.points, and (trial, subset) pairs per
# block of patterns._subset_counts
_BLOCK = 1 << 16
# gamma_ab's largest staircase: it allocates k rows of segments, so the cap
# stops a tiny b from asking for a table of a/b rows (the marginal check of
# a SegmentPermuton is an O(k) sweep and needs no cap)
_MAX_STEPS = 1 << 12


class ConvergenceError(RuntimeError):
    """Solver failed to converge; carries the last residual and iterate."""

    def __init__(self, message: str, residual: float, alpha=None):
        super().__init__(message)
        self.residual = residual
        self.alpha = None if alpha is None else np.asarray(alpha)


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``, an array that owns its data and that no
    one else holds.  ``a`` becomes read-only too, and numpy refuses to make
    a view writeable over a read-only base (ValueError)."""
    a.setflags(write=False)
    return a.view()


def _reduce(self):
    """``__reduce__`` of a value type that holds ``_frozen`` arrays: pickle
    and ``copy`` call its constructor on its fields, which copies, checks and
    freezes them again; a kept draw table does not carry over."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class GridPermuton:
    """Step permuton: m x m cell masses with uniform marginals.

    w[i, j] is the mass of the half-open cell (i/m, (i+1)/m] x (j/m, (j+1)/m]
    in 0-based indexing, so axis 0 is the x (horizontal) cell index and axis 1
    is the y (vertical) cell index.
    """

    w: np.ndarray
    __reduce__ = _reduce

    def __post_init__(self):
        w = np.array(self.w, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"cell-mass matrix must be square, got shape {w.shape}")
        object.__setattr__(self, "w", _frozen(w))
        m = w.shape[0]
        if m < 1:
            raise ValueError("grid resolution must be >= 1")
        # ufunc reductions called directly: one is made per Newton trial point
        if not np.logical_and.reduce(np.isfinite(w) & (w >= 0), axis=None):
            raise ValueError("cell masses must be finite and nonnegative")
        target = 1.0 / m
        add, top = np.add.reduce, np.maximum.reduce
        dev = max(top(np.abs(add(w, axis=1) - target)), top(np.abs(add(w, axis=0) - target)))
        if dev > MARGINAL_TOL:
            raise ValueError(
                f"marginals deviate from 1/m by {dev:.3e} (tolerance {MARGINAL_TOL:.0e})"
            )
        if abs(add(w, axis=None) - 1.0) > MARGINAL_TOL:
            raise ValueError("total mass must equal 1")

    @property
    def m(self) -> int:
        return self.w.shape[0]

    def density(self) -> np.ndarray:
        """Cell-average density values m^2 * w (the step-function density)."""
        return self.w * float(self.m) ** 2

    # cached_property writes the instance __dict__ directly, past the frozen
    # dataclass's __setattr__
    @cached_property
    def _sampler(self) -> _Sampler:
        """The draw table of the m^2 cells, built on the first draw and kept."""
        return _Sampler(self)


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
    __reduce__ = _reduce

    def __post_init__(self):
        seg = np.array(self.segments, dtype=np.float64)
        if seg.ndim != 2 or seg.shape[1] != 5:
            raise ValueError("segments must have shape (k, 5)")
        if not np.all(np.isfinite(seg)):
            raise ValueError("segment entries must be finite")
        object.__setattr__(self, "segments", _frozen(seg))
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

    @cached_property
    def _sampler(self) -> _Sampler:
        """The draw table of the segments, built on the first draw and kept."""
        return _Sampler(self)


def _projection_deviation(lo: np.ndarray, hi: np.ndarray, mass: np.ndarray) -> float:
    """Max deviation of the projected 1-D density from 1 on [0, 1].

    Breakpoints closer than 1e-12 are merged: endpoints of adjacent segments
    are computed by different arithmetic and can disagree in the last ulp,
    and a sliver that narrow carries mass far below the 1e-9 tolerance.
    The density between two merged breakpoints is read at their midpoint
    by one sweep over the sorted segment ends, in O(K) memory for K
    segments: each segment adds mass / (hi - lo) to a running sum at lo and
    removes it at hi, so the sum stays near the density it tracks.
    """
    cuts = np.unique(np.concatenate([lo, hi, [0.0, 1.0]]))
    cuts = cuts[np.concatenate([[True], np.diff(cuts) > 1e-12])]
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    dens = mass / (hi - lo)
    ends = np.concatenate([lo, hi])
    order = np.argsort(ends, kind="stable")
    running = np.concatenate([[0.0], np.cumsum(np.concatenate([dens, -dens])[order])])
    total = running[np.searchsorted(ends[order], mids)]
    return float(np.abs(total - 1.0).max())


@dataclass(frozen=True)
class Permutation:
    """Permutation in one-line notation; ``values`` is a bijection on 1..n."""

    values: np.ndarray
    __reduce__ = _reduce

    def __post_init__(self):
        v = np.array(self.values, dtype=np.int64)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("one-line notation must be a nonempty 1-D sequence")
        if not np.array_equal(np.sort(v), np.arange(1, v.size + 1)):
            raise ValueError("values must be a bijection on 1..n")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def n(self) -> int:
        return self.values.size


def uniform_grid(m: int) -> GridPermuton:
    """The uniform (Lebesgue) permuton at resolution m: every cell mass 1/m^2."""
    if _as_count(m, "m") < 1:
        raise ValueError("m must be >= 1")
    return GridPermuton(np.full((m, m), 1.0 / (m * m)))


def grid_from_permutation(pi: Permutation, m: int | None = None) -> GridPermuton:
    """Step permuton of gamma_pi, the measure with mass 1/n on each diagonal
    square block ((i-1)/n, i/n] x ((pi(i)-1)/n, pi(i)/n].

    With m = n each point block is one cell; for m a proper divisor of n the
    blocks aggregate exactly (each point block lies inside one coarse cell).
    """
    n = pi.n
    m = n if m is None else _as_count(m, "m")
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
    return _frozen(G)


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
    if _as_count(m2, "m2") < 1 or m % m2 != 0:
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


def _header_count(kind: str, header: str, key: str, value: str) -> int:
    """The count ``key=value`` of a ``kind`` CSV header line as an int;
    ValueError naming the field and the header for anything int() does not
    read."""
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{kind} CSV header {header!r}: {key} must be an integer, "
                         f"got {value!r}") from None


def _guide(weights: np.ndarray):
    """The table ``_lookup`` draws from: (cdf, lo, B) for the categories of
    ``weights``.

    ``cdf`` is the table ``choice(p=weights / weights.sum())`` builds.  The
    guide has B = 2^ceil(log2 N) buckets (N categories; B is a power of two,
    so u * B and b / B are exact), and lo[b] = #{i : cdf[i] <= b / B}.  N
    must be below 2^31, so that every bucket index and every count fits in
    int32.  lo is held as int32: each block of points reads the guide
    again, and half the bytes keep more of a large table in cache (the
    m = 512 draws of 150,000 and 200,000 points were 3 to 5% slower with
    an intp guide in blocks than in one whole-chunk lookup).
    """
    if weights.size >= 1 << 31:
        raise ValueError(f"at most 2^31 - 1 categories, got {weights.size}")
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    B = 1 << (cdf.size - 1).bit_length()
    # ceil(cdf[i] * B) is the first bucket b with cdf[i] <= b / B
    lo = np.bincount(np.ceil(cdf * B).astype(np.intp), minlength=B + 1).cumsum().astype(np.int32)
    return cdf, lo, B


def _lookup(table, u: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")``, the count of cdf values <= u.

    A table of at most ``_SMALL_TABLE`` categories counts them directly, one
    comparison pass per value (cdf[-1] = 1 > u is never counted).  A larger
    one goes through the guide: each point starts at lo[b] for its bucket
    b = floor(u * B), which is at most its index, and steps forward while
    its cdf value is <= u, all points once and the points still short up to
    ``_STEPS`` more times; the few left take the binary search.  The
    indices are intp from the count and int32 from the guide.
    """
    cdf, lo, B = table
    if cdf.size <= _SMALL_TABLE:
        # the count fits in uint8; indices gather fastest as intp
        count = np.zeros(u.size, dtype=np.uint8)
        below = np.empty(u.size, dtype=bool)
        for c in cdf[:-1]:
            np.less_equal(c, u, out=below)
            count += below
        return count.astype(np.intp)
    # u * B < B <= 2^31, and the int32 conversion vectorizes where the
    # int64 one does not
    idx = lo.take((u * B).astype(np.int32))
    # cdf[-1] = 1 > u, so a point with cdf[idx] <= u has idx < N - 1 and
    # every step stays in range
    idx += cdf.take(idx) <= u
    rest = np.flatnonzero(cdf.take(idx) <= u)
    for _ in range(_STEPS):
        if not rest.size:
            return idx
        step = idx.take(rest) + 1
        idx[rest] = step
        rest = rest[cdf.take(step) <= u.take(rest)]
    if rest.size:
        idx[rest] = cdf.searchsorted(u.take(rest), side="right")
    return idx


class _Sampler:
    """``sample_points`` for one source, its draw table built once.  Each
    permuton builds its own on its first draw and keeps it (``_sampler``).

    A grid keeps the guide table of its m^2 cells; a segment permuton keeps
    the guide table of its masses and contiguous x0, x1 - x0, y0 and slope
    columns.  ``points`` picks cells or segments through ``_lookup``, by a
    direct count for at most ``_SMALL_TABLE`` of them (up to 16 segments, or
    a grid with m <= 4), through the guide otherwise, one block of
    ``_BLOCK`` points at a time: into preallocated int32 cell coordinates
    ix and iy, or into one intp index array per block of segments.  Each
    point keeps its arithmetic and its place in the stream, so the points
    are those of one whole-array lookup.  The x uniforms are drawn into the
    array of the cell uniforms, which are dead once looked up.  For a grid
    x and y are built in place on their uniforms, as x = (ix + U) / m; for
    segments x is built in place on its uniforms and y in one preallocated
    array that holds each block's x0 until y overwrites it, block by block,
    as x = x0 + (x1 - x0) U and y = y0 + slope (x - x0), in that order.  So
    a draw peaks at x, y and iy (20 bytes a point) for a grid and at x, y
    and the indices (24) for segments, plus one block's lookup or gather
    temporaries.
    """

    def __init__(self, source: GridPermuton | SegmentPermuton):
        if isinstance(source, GridPermuton):
            self.m = source.m
            self.table = _guide(source.w.ravel())
        else:
            seg = source.segments
            self.m = None
            self.table = _guide(seg[:, 4])
            self.x0, self.y0, self.slope = (np.ascontiguousarray(seg[:, c]) for c in (0, 2, 3))
            self.dx = seg[:, 1] - seg[:, 0]

    def points(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        # all n cell uniforms come first in the stream, then the n x
        # uniforms (and for a grid the n y uniforms); x is drawn into the
        # array of the cell uniforms, which are dead once looked up
        u = rng.random(n)
        blocks = [slice(s, s + _BLOCK) for s in range(0, n, _BLOCK)]
        m = self.m
        if m is not None:
            # cells < m^2 < 2^31; int32 division vectorizes, int64 division
            # does not.  cell // m and a subtraction are faster than divmod
            # but raised the peak RSS of a 10^6-trial estimate by 3 MB
            # (heap placement)
            ix, iy = np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int32)
            for b in blocks:
                np.divmod(_lookup(self.table, u[b]).astype(np.int32, copy=False), m,
                          out=(ix[b], iy[b]))
            x = rng.random(out=u)
            x += ix
            del ix
            x /= m
            y = rng.random(n)
            y += iy
            y /= m
            return x, y
        # take converts int32 indices to intp on every call
        idx = [_lookup(self.table, u[b]).astype(np.intp, copy=False) for b in blocks]
        x = rng.random(out=u)
        y = np.empty(n)
        for b, i in zip(blocks, idx):
            xb, yb = x[b], y[b]
            # y's block holds x0 until y overwrites it; indices are in
            # range, and "clip" keeps take from buffering its output
            x0 = self.x0.take(i, out=yb, mode="clip")
            xb *= self.dx.take(i)
            xb += x0
            np.subtract(xb, x0, out=yb)
            yb *= self.slope.take(i)
            yb += self.y0.take(i)
        return x, y

    def ranks(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """The pattern of n points as 0-based y-ranks in x order: one
        argsort per axis.  A tied coordinate (probability zero) is ordered
        by the sort, deterministically, and the ranks stay a permutation."""
        x, y = self.points(n, rng)
        ry = np.empty(n, dtype=np.intp)
        ry[np.argsort(y)] = np.arange(n)
        return ry[np.argsort(x)]


def _sampler_of(source: GridPermuton | SegmentPermuton) -> _Sampler:
    """The draw table ``source`` keeps (built on its first draw); TypeError
    for anything but a grid or segment permuton."""
    if not isinstance(source, (GridPermuton, SegmentPermuton)):
        raise TypeError(f"unsupported permuton source {type(source).__name__}")
    return source._sampler


def sample_points(source: GridPermuton | SegmentPermuton, n: int,
                  seed: int | np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. points from the permuton: (x array, y array), unsorted.

    ``seed`` goes through ``np.random.default_rng``, which returns a
    Generator as it is, so an int seed s gives the points of
    ``default_rng(s)`` and a Generator's stream continues where it stands.
    Each point's cell or segment is drawn from rng.random(n) through the
    guide table: the same uniforms and the same indices as
    ``rng.choice(N, n, p=...)``, so a seeded generator gives the points it
    gave with ``choice``.  The table is the one ``source`` keeps: the first
    draw from a permuton builds it, later calls reuse it.  n must be a
    nonnegative integer (numpy integers included, bools not); n = 0 gives
    two empty arrays.
    """
    n = _as_count(n, "n")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _sampler_of(source).points(n, np.random.default_rng(seed))


def sample_permutation(source: GridPermuton | SegmentPermuton, n: int,
                       seed: int | np.random.Generator) -> Permutation:
    """Pattern of n i.i.d. points from the permuton.

    Points are sorted by x; the output one-line values are the ranks of the
    corresponding y values.  The draw takes the uniforms ``sample_points``
    takes, from the table ``source`` keeps, and one argsort per axis ranks
    the points.  Ties have probability zero in exact arithmetic and arise
    only through floating-point collisions; the argsort orders them, so the
    result is a permutation all the same.  n must be an integer (numpy
    integers included, bools not).
    """
    if _as_count(n, "n") < 1:
        raise ValueError("need n >= 1 sample points")
    rng = np.random.default_rng(seed)
    return Permutation(_sampler_of(source).ranks(n, rng) + 1)


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
    diagonal from (1-a, 0) to (1, a).  A k above _MAX_STEPS, and an a > 0
    too small to move 1 - a off 1, raise ValueError.
    """
    if not (0.0 <= a <= 1.0) or not (0.0 <= b <= a / 2 + 1e-15):
        raise ValueError(f"need 0 <= a <= 1 and 0 <= b <= a/2, got a={a}, b={b}")
    if a > 0.0 and 1.0 - a == 1.0:
        raise ValueError(f"a={a} is too small: 1 - a rounds to 1 (b={b})")
    rows = []
    if a < 1.0:
        rows.append([(0.0, 1.0 - a, 1.0, -1.0, 1.0 - a)])
    if a > 0.0:
        if b == 0.0:
            rows.append([(1.0 - a, 1.0, 0.0, 1.0, a)])
        else:
            k = np.floor(a / b + 1e-12)
            if k > _MAX_STEPS:
                raise ValueError(f"a={a}, b={b} needs k={k:g} steps, more than {_MAX_STEPS}")
            k = int(k)
            j = np.arange(1, k + 1, dtype=float)
            xl = 1.0 - a + (j - 1) * b
            # y = (2j-1) b + 1 - a - x descends from jb at x=xl to (j-1)b.
            rows.append(np.column_stack([xl, 1.0 - a + j * b, (2 * j - 1) * b + 1.0 - a - xl,
                                         np.full(k, -1.0), np.full(k, b)]))
            xl = 1.0 - a + k * b
            if 1.0 - xl > 1e-12:
                rows.append([(xl, 1.0, 1.0 + k * b - xl, -1.0, 1.0 - xl)])
    seg = np.concatenate(rows)
    seg[:, 4] /= seg[:, 4].sum()
    return SegmentPermuton(seg)


def rebalance_marginals(w: np.ndarray) -> np.ndarray:
    """Alternating row/column rescaling onto the uniform-marginal polytope.

    Sinkhorn iteration: scale every row sum to 1/m, then every column sum.
    For strictly positive w this converges geometrically to the unique
    doubly-stochastic-scaled matrix diag(u) w diag(v).  NaN or infinite
    entries raise ValueError, then negative ones (-0.0 passes), then zero
    rows or columns, which cannot be repaired; sweeps that stall raise
    ConvergenceError with the last deviation.
    It stops once every marginal and the total are within 1e-13: m marginals
    each within it can leave the total m times farther off, past what
    GridPermuton accepts.  A grid already there comes back as it is.  Each
    sweep checks the row sums first and sums the columns and the total only
    once the rows pass (or at the last sweep, for the stall's deviation).
    """
    w = np.array(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.size == 0:
        raise ValueError(f"cannot rebalance: shape {w.shape} is not a nonempty square")
    m = w.shape[0]
    target = 1.0 / m
    rows = np.add.reduce(w, axis=1)
    # a NaN or +-inf entry makes its row sum non-finite (inf - inf is NaN)
    if not np.isfinite(rows).all():
        raise ValueError("cannot rebalance: non-finite mass")
    if np.minimum.reduce(w, axis=None) < 0:
        raise ValueError("cannot rebalance: negative mass")
    # the reductions are called as ufunc methods: the same loops as
    # ndarray.sum and .max, without their Python wrappers
    add, top = np.add.reduce, np.maximum.reduce
    for sweep in range(_REBALANCE_MAX_ITER + 1):
        dev = top(abs(rows - target))
        if dev <= _REBALANCE_TOL or sweep == _REBALANCE_MAX_ITER:
            dev = max(dev, top(abs(add(w, axis=0) - target)))
            if dev <= _REBALANCE_TOL and abs(add(w, axis=None) - 1.0) <= _REBALANCE_TOL:
                return w
            if sweep == _REBALANCE_MAX_ITER:
                raise ConvergenceError(f"marginal rebalancing did not reach {_REBALANCE_TOL:.1e} "
                                       f"in {_REBALANCE_MAX_ITER} iterations (last deviation "
                                       f"{dev:.3e})", float(dev))
        # fmin skips NaN, so each guard is true exactly when np.any(sums <= 0)
        # is; min would return NaN and miss a zero sum next to a NaN one
        if np.fmin.reduce(rows) <= 0:
            raise ValueError("cannot rebalance: zero row mass")
        w *= (target / rows)[:, None]
        cols = add(w, axis=0)
        if np.fmin.reduce(cols) <= 0:
            raise ValueError("cannot rebalance: zero column mass")
        w *= (target / cols)[None, :]
        rows = add(w, axis=1)


def _text_rows(template: str, values: np.ndarray) -> str:
    """``template % row`` per row of ``values``, one row's tolist() at a time (low peak RSS)."""
    return "".join([template % tuple(row.tolist()) for row in values])


def grid_to_csv(g: GridPermuton) -> str:
    """Serialize as CSV: header ``m=<int>``, then m rows of m masses.

    Row i (1-based) is x-cell i; column j is y-cell j.  Masses are written
    with 17 significant digits so parsing reproduces the float64 exactly.
    """
    return f"m={g.m}\n" + _text_rows(",".join(["%.17g"] * g.m) + "\n", g.w)


def grid_from_csv(text: str) -> GridPermuton:
    """Parse the ``grid_to_csv`` format."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("m="):
        raise ValueError("grid CSV must start with a 'm=<int>' header line")
    m = _header_count("grid", lines[0], "m", lines[0][2:])
    if m < 1:
        raise ValueError(f"grid CSV header gives m={m}; m must be >= 1")
    if len(lines) != m + 1:
        raise ValueError(f"expected {m} data rows, found {len(lines) - 1}")
    try:
        # one C pass that rounds like float(); comments=None keeps '#' an error
        w = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        w = np.empty(0)
    if w.shape != (m, m):
        # row by row to name the bad row; float() also reads '1_0', which loadtxt refuses
        w = np.empty((m, m))
        for i, ln in enumerate(lines[1:]):
            row = ln.split(",")
            if len(row) != m:
                raise ValueError(f"data row {i + 1} has {len(row)} entries, expected m={m}")
            try:
                w[i] = [float(v) for v in row]
            except ValueError as exc:
                raise ValueError(f"data row {i + 1}: {exc}") from None
    return GridPermuton(w)

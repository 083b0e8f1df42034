"""Insertion-measure representation of permutons.

A permuton gamma with CDF G can be encoded by a family of probability
measures {nu_x} on [0, x]: nu_x is the law of the location where mass enters
at "time" x, characterized by

    F(x, G(x, ytilde)) = dG/dx (x, ytilde),

where F(x, .) is the CDF of nu_x.  Reading right to left: dG/dx at column x
is the conditional CDF of y given the x-coordinate, and the reparameterization
y = G(x, ytilde) measures location in already-present mass, which is why
nu_x lives on [0, x].  Conversely the permuton is recovered by flowing each
inserted point forward along the characteristics of the velocity field of
future insertions,

    dX/dx = F(x, X(x)),

and pushing nu_{x0} masses to time 1.  Entropy transfers to this
representation as

    H(gamma) = int_0^1 int_0^x -f(x, y) log(x f(x, y)) dy dx,

with f the density of nu_x, vanishing identically iff f = 1/x (the uniform
permuton).

Families are stored column-sampled: column c sits at x = (c + 1/2)/m_t and
carries density values on max(8, ceil(x * m_y)) uniform y-cells over [0, x]
(small-x columns keep at least 8 cells because the support shrinks).

Reconstruction discretizes the flow carefully, because naive point seeding
aliases badly.  Per column the measure is cut into equal-mass chunks whose
boundary quantiles are transported by RK4 on one time grid shared by all
columns, the coarsest not above the requested step; a column starts at its
midpoint and takes one partial step to the next node if it is off the grid.
The field F interpolates between columns in the quantile domain (linear in x
on a common quantile grid, with linear extrapolation beyond the first/last
column midpoints), which is exact for x-independent families; transported
chunk boundaries are binned through a monotone cubic CDF fit so smooth
conditional laws do not leak mass into extreme bins.  The field lies in
[0, 1] and grows with X, so a boundary that starts in [0, x] ends in [0, 1]
up to rounding (clipped), and the at least 9 boundaries of a column stay in
order and apart: only the top ones can merge at 1.  The residual marginal
defect is removed by row/column rescaling and reported as the rebalance
correction.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .core import (GridPermuton, _as_count, _frozen, _header_count, _reduce, _text_rows, cdf,
                   rebalance_marginals)
from .starmodel import _FLAT_RATE

COLUMN_NORM_TOL = 1e-8


def column_x(mt: int) -> np.ndarray:
    """Column midpoint times x_c = (c + 1/2)/mt."""
    return (np.arange(mt) + 0.5) / mt


def column_cells(x: float, my: int) -> int:
    """y-cell count for the column at time x: max(8, ceil(x * my))."""
    return max(8, int(math.ceil(x * my - 1e-12)))


@dataclass(frozen=True)
class InsertionFamily:
    """Column-sampled insertion densities f(x, y) on 0 <= y <= x <= 1."""

    mt: int
    my: int
    cols: tuple[np.ndarray, ...]
    __reduce__ = _reduce

    def __post_init__(self):
        for name in ("mt", "my"):
            object.__setattr__(self, name, _as_count(getattr(self, name), name))
        if self.mt < 1 or self.my < 1:
            raise ValueError("resolutions must be >= 1")
        if len(self.cols) != self.mt:
            raise ValueError(f"expected {self.mt} columns, got {len(self.cols)}")
        xs = column_x(self.mt)
        frozen = []
        for c, col in enumerate(self.cols):
            f = np.array(col, dtype=np.float64)
            ny = column_cells(xs[c], self.my)
            if f.shape != (ny,):
                raise ValueError(f"column {c} must have {ny} cells, got {f.shape}")
            if not np.all(np.isfinite(f) & (f >= 0)):
                raise ValueError(f"column {c} has a negative or non-finite density")
            total = f.sum() * (xs[c] / ny)
            if abs(total - 1.0) > COLUMN_NORM_TOL:
                raise ValueError(
                    f"column {c} mass {total:.10f} deviates from 1 beyond {COLUMN_NORM_TOL:.0e}")
            frozen.append(_frozen(f))
        object.__setattr__(self, "cols", tuple(frozen))


def flat_family(mt: int, my: int) -> InsertionFamily:
    """The uniform permuton's family: f(x, y) = 1/x on [0, x]."""
    xs = column_x(mt)
    cols = [np.full(column_cells(x, my), 1.0 / x) for x in xs]
    return InsertionFamily(mt, my, tuple(cols))


def star12_family(r: float, mt: int, my: int) -> InsertionFamily:
    """Truncated exponential family f(x, y) = r e^{-ry} / (1 - e^{-rx}).

    Cell values are exact cell averages (CDF differences), so every column
    is normalized exactly.  |r| < 1e-100 gives the flat family.
    """
    if abs(r) < _FLAT_RATE:
        return flat_family(mt, my)
    xs = column_x(mt)
    cols = []
    for x in xs:
        ny = column_cells(x, my)
        edges = np.linspace(0.0, x, ny + 1)
        cdf_vals = np.expm1(-r * edges) / np.expm1(-r * x)
        cols.append(np.diff(cdf_vals) * (ny / x))
    return InsertionFamily(mt, my, tuple(cols))


def insertion_from_permuton(g: GridPermuton) -> InsertionFamily:
    """Extract the insertion family of a step permuton.

    Column c reads the CDF at the cell midline x = (c + 1/2)/m: the
    conditional y-CDF there (a piecewise-linear function with knots at the
    y-cell corners) is composed with the knot locations G(x, j/m) to produce
    nu_x, then differenced into cell-average densities.  A y-band with zero
    mass left of x makes G(x, .) non-invertible and is rejected.
    """
    m = g.m
    w = g.w
    Gc = cdf(g)
    cols = []
    xs = column_x(m)
    for i in range(m):
        colc = np.concatenate([[0.0], np.cumsum(w[i])])
        Gmid = Gc[i, :] + 0.5 * colc
        if np.any(np.diff(Gmid) <= 1e-15):
            j = int(np.argmin(np.diff(Gmid)))
            raise ValueError(
                f"column {i}: zero-mass y-band {j} makes G(x, .) non-invertible")
        ycdf = colc / colc[-1]
        x = xs[i]
        ny = column_cells(x, m)
        edges = np.linspace(0.0, x, ny + 1)
        at_edges = np.interp(edges, Gmid, ycdf)
        cols.append(np.diff(at_edges) * (ny / x))
    return InsertionFamily(m, m, tuple(cols))


def insertion_entropy(fam: InsertionFamily) -> float:
    """Composite midpoint quadrature of int int -f log(x f) dy dx."""
    xs = column_x(fam.mt)
    total = 0.0
    for x, f in zip(xs, fam.cols):
        dy = x / f.size
        pos = f > 0
        total += float(np.sum(-f[pos] * np.log(x * f[pos])) * dy) / fam.mt
    return total


@dataclass(frozen=True)
class ReconstructionResult:
    """Reconstructed grid plus the marginal defect absorbed by rebalancing."""

    grid: GridPermuton
    correction: float


def reconstruct(fam: InsertionFamily, m_out: int,
                step: float = 1.0 / 512) -> ReconstructionResult:
    """Flow the insertion family forward and bin into an m_out grid.

    ``step`` is the largest RK4 step of the shared time grid (module doc).
    """
    if _as_count(m_out, "m_out") < 1:
        raise ValueError("m_out must be >= 1")
    if not 0 < step <= 0.5:
        raise ValueError("step must lie in (0, 1/2]")
    mt = fam.mt
    if mt < 2:
        raise ValueError("reconstruction interpolates between columns: needs mt >= 2")
    xm = column_x(mt)
    qg = np.linspace(0.0, 1.0, 513)
    Qs = np.empty((mt, qg.size))
    # chunk-boundary quantiles per column; each row of X is padded with its
    # top boundary, which then moves exactly like that boundary does
    chunks = [np.linspace(0.0, 1.0, max(8 * m_out, f.size) + 1) for f in fam.cols]
    X = np.empty((mt, max(qc.size for qc in chunks)))
    for c, (x, f, qc) in enumerate(zip(xm, fam.cols, chunks)):
        yk = np.linspace(0.0, x, f.size + 1)
        vals = np.maximum.accumulate(np.concatenate([[0.0], np.cumsum(f) * (x / f.size)]))
        vals /= vals[-1]
        # strictify flats so inverse interpolation is well defined
        vals = (vals + np.linspace(0.0, 1e-12, vals.size)) / (1.0 + 1e-12)
        Qs[c] = np.interp(qg, vals, yk)
        X[c, :qc.size] = np.interp(qc, vals, yk)
        X[c, qc.size:] = X[c, qc.size - 1]

    xs = xm.tolist()
    table_x, Qb = math.nan, None

    def field(x: float, Y: np.ndarray) -> np.ndarray:
        # conditional CDF at time x, interpolated between column quantile
        # functions with linear extrapolation beyond the end midpoints; the
        # table is built once per stage time: k2 and k3 share one, and a
        # step's x + dx is the next step's x whenever the two floats agree
        nonlocal table_x, Qb
        if x != table_x:
            j = min(max(bisect.bisect_left(xs, x), 1), mt - 1)
            lam = (x - xs[j - 1]) / (xs[j] - xs[j - 1])
            Qb = (1.0 - lam) * Qs[j - 1] + lam * Qs[j]
            np.clip(Qb, 0.0, None, out=Qb)
            np.maximum.accumulate(Qb, out=Qb)
            table_x = x
        return np.interp(Y, Qb, qg)

    def advance(rows: slice, x: float, dx: float) -> None:
        # one RK4 step of the rows X[rows] from time x to x + dx, in place,
        # each sum and product in the order of the textbook formula
        Xa = X[rows]
        half = dx / 2
        k1 = field(x, Xa)
        Y = np.multiply(k1, half)
        Y += Xa
        k2 = field(x + half, Y)
        np.multiply(k2, half, out=Y)
        Y += Xa
        k3 = field(x + half, Y)
        np.multiply(k3, dx, out=Y)
        Y += Xa
        k4 = field(x + dx, Y)
        # Xa + dx/6 (k1 + 2 k2 + 2 k3 + k4)
        k2 *= 2
        k1 += k2
        k3 *= 2
        k1 += k3
        k1 += k4
        k1 *= dx / 6
        k1 += Xa
        np.clip(k1, 0.0, 1.0, out=k1)
        np.maximum.accumulate(k1, axis=1, out=Xa)

    # nodes n h with h = 1/N, N = ceil(1/step): column c joins at the first
    # node at or after its midpoint, reached by one partial step unless the
    # midpoint is itself a node, then every node advances all joined rows
    N = math.ceil(1.0 / step)
    h = 1.0 / N
    joins = [-(-(2 * c + 1) * N // (2 * mt)) for c in range(mt)]
    active = 0
    for n in range(joins[0], N + 1):
        while active < mt and joins[active] == n:
            if n * h > xm[active]:
                advance(slice(active, active + 1), xm[active], n * h - xm[active])
            active += 1
        if n < N:
            advance(slice(0, active), n * h, h)

    edges = np.linspace(0.0, 1.0, m_out + 1)
    w = np.zeros((m_out, m_out))
    for c, qc in enumerate(chunks):
        # bin the transported chunk boundaries: monotone cubic through the
        # transported CDF avoids the secant bias of linear chunk deposition
        Xu, iu = np.unique(X[c, :qc.size], return_index=True)
        colcdf = _pchip(Xu, qc[iu], np.clip(edges, Xu[0], Xu[-1]))
        colcdf[edges <= Xu[0]] = 0.0
        colcdf[edges >= Xu[-1]] = 1.0
        colcdf = np.maximum.accumulate(np.clip(colcdf, 0.0, 1.0))
        colcdf[0] = 0.0
        colcdf[-1] = 1.0
        ybin = np.diff(colcdf)
        # spread the column's 1/mt mass over the output x-cells its slab covers
        xl, xr = c / mt, (c + 1) / mt
        overlap = np.clip(np.minimum(edges[1:], xr) - np.maximum(edges[:-1], xl),
                          0.0, None)
        w += np.outer(overlap / (xr - xl), ybin) / mt
    target = 1.0 / m_out
    correction = float(max(abs(w.sum(axis=1) / target - 1.0).max(),
                           abs(w.sum(axis=0) / target - 1.0).max()))
    w = rebalance_marginals(w)
    return ReconstructionResult(GridPermuton(w), correction)


def _pchip(x: np.ndarray, y: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Monotone cubic (PCHIP) interpolant of (x, y) at x[0] <= at <= x[-1].

    Fritsch and Carlson (SIAM J. Numer. Anal. 17, 1980) as scipy's
    PchipInterpolator computes it, operation for operation, so bit for bit:
    for strictly increasing x with at least 3 points, interior slopes are the
    weighted harmonic mean of the neighbouring secants, or 0 where those
    vanish or change sign; end slopes are one-sided three-point estimates
    limited to keep the shape; each interval's Hermite cubic is evaluated in
    power form from its left end, summed from the constant term up."""
    h = np.diff(x)
    secant = np.diff(y) / h
    slope = np.zeros_like(y)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    mixed = ((np.sign(secant[1:]) != np.sign(secant[:-1]))
             | (secant[1:] == 0) | (secant[:-1] == 0))
    with np.errstate(all="ignore"):
        whmean = (w1 / secant[:-1] + w2 / secant[1:]) / (w1 + w2)
        slope[1:-1] = np.where(mixed, 0.0, 1.0 / whmean)
    slope[0] = _pchip_end(h[0], h[1], secant[0], secant[1])
    slope[-1] = _pchip_end(h[-1], h[-2], secant[-1], secant[-2])
    t = (slope[:-1] + slope[1:] - 2 * secant) / h
    c0, c1 = t / h, (secant - slope[:-1]) / h - t
    i = np.clip(np.searchsorted(x, at, "right") - 1, 0, x.size - 2)
    s = at - x[i]
    s2 = s * s
    # PPoly's sum starts at 0.0, which turns a -0.0 constant term into +0.0
    return (0.0 + y[i] + slope[i] * s) + c1[i] * s2 + c0[i] * (s2 * s)


def _pchip_end(h0, h1, m0, m1):
    # one-sided three-point slope, zeroed against m0's sign, capped at 3 m0
    # where the secants change sign
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def family_to_csv(fam: InsertionFamily) -> str:
    """Serialize column-major: header "mt=,my=", then (x_idx, y_idx, f) triples.

    Indices are 1-based; values carry 17 significant digits.
    """
    return f"mt={fam.mt},my={fam.my}\n" + "".join(
        _text_rows(f"{c},%d,%.17g\n", np.column_stack([np.arange(1, col.size + 1), col]))
        for c, col in enumerate(fam.cols, 1))


def family_from_csv(text: str) -> InsertionFamily:
    """Parse the ``family_to_csv`` format; each (x index, y index) pair of
    the layout must appear exactly once."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("mt="):
        raise ValueError("family CSV must start with 'mt=<int>,my=<int>'")
    head = dict(part.strip().partition("=")[::2] for part in lines[0].split(","))
    for key in ("mt", "my"):
        if key not in head:
            raise ValueError(f"family CSV header {lines[0]!r} has no '{key}=<int>' entry")
    mt, my = (_header_count("family", lines[0], key, head[key]) for key in ("mt", "my"))
    rows = [ln.split(",") for ln in lines[1:]]
    for i, fields in enumerate(rows):
        if len(fields) != 3:
            raise ValueError(f"data line {i + 1} has {len(fields)} fields, "
                             "expected 3 (x index, y index, density)")
    # every column has at least 8 cells, so a file with fewer than 8 * mt
    # data lines is refused before the layout is built
    short = ValueError(f"family CSV has {len(rows)} data lines, fewer than "
                       f"the mt={mt}, my={my} layout needs")
    if len(rows) < 8 * mt:
        raise short
    sizes = [column_cells(x, my) for x in column_x(mt)]
    if len(rows) < sum(sizes):
        raise short
    cols = [np.zeros(n) for n in sizes]
    seen = [np.zeros(n, dtype=bool) for n in sizes]
    repeat = None
    for cs, ks, vs in rows:
        c, k = int(cs) - 1, int(ks) - 1
        if not (0 <= c < mt and 0 <= k < cols[c].size):
            raise ValueError(f"triple ({cs}, {ks}) outside the family layout")
        if seen[c][k] and repeat is None:
            repeat = (c + 1, k + 1)
        cols[c][k] = float(vs)
        seen[c][k] = True
    if not all(s.all() for s in seen):
        raise ValueError("family CSV is missing triples")
    # a later line would otherwise overwrite the earlier one
    if repeat is not None:
        raise ValueError(f"triple {repeat} appears more than once")
    return InsertionFamily(mt, my, tuple(cols))

"""Measure containers, metrics, and samplers.

Oracles used here are closed-form: permutation grids place mass 1/n on n
cells so their CSV round trip is exact; the identity and reversal grids at
m = 2 have CDF values 1/2 and 0 at the center node, giving a known L-inf
distance; coarsening sums cell masses so total mass and marginals are
preserved bit-for-bit up to summation error; samplers are checked against
the uniform law with seeded generators and 4-sigma bands, and the cell and
segment draw against the Generator.choice sampler it replaced.  Every value
type is checked to hold a private array whose read-only flag cannot be set
back, also after a pickle or deep-copy round trip.
"""

import copy
import pickle
import time
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutons import (
    MARGINAL_TOL,
    ConvergenceError,
    GridPermuton,
    Permutation,
    SegmentPermuton,
    cdf,
    cdf_linf_distance,
    coarsen,
    gamma_ab,
    grid_from_csv,
    grid_from_permutation,
    grid_to_csv,
    rebalance_marginals,
    rect_distance,
    sample_permutation,
    sample_points,
    uniform_grid,
)
from permutons import core
from permutons.insertion import InsertionFamily, flat_family
from permutons.regions import RegionCurve, region_123_321
from permutons.starmodel import _gl01, star12_grid


def random_grid(m, rng, iters=60):
    """Strictly positive random doubly stochastic density grid."""
    w = rng.uniform(0.2, 1.0, size=(m, m))
    for _ in range(iters):
        w /= w.sum(axis=1, keepdims=True) * m
        w /= w.sum(axis=0, keepdims=True) * m
    return GridPermuton(rebalance_marginals(w))


def test_uniform_grid_cells():
    g = uniform_grid(5)
    assert g.m == 5
    assert np.array_equal(g.w, np.full((5, 5), 1.0 / 25.0))
    with pytest.raises(ValueError, match="m must be >= 1"):
        uniform_grid(0)


def test_grid_validation_rejects_bad_marginals():
    with pytest.raises(ValueError):
        GridPermuton(np.full((4, 4), 0.3))
    w = np.full((3, 3), 1.0 / 9.0)
    w[0, 0] += 1e-6
    with pytest.raises(ValueError):
        GridPermuton(w)
    with pytest.raises(ValueError):
        GridPermuton(np.full((2, 3), 1.0 / 6.0))
    with pytest.raises(ValueError, match="resolution must be >= 1"):
        GridPermuton(np.zeros((0, 0)))
    # every marginal 9e-13 off, within the tolerance; the total 1.8e-12 off
    with pytest.raises(ValueError, match="total mass must equal 1"):
        GridPermuton(np.full((2, 2), 0.25 + 4.5e-13))
    w = np.full((2, 2), 0.25)
    w[0, 0], w[1, 1] = -0.25, 0.75  # marginals fine, sign is not
    with pytest.raises(ValueError):
        GridPermuton(w)
    for bad in (np.nan, np.inf, -np.inf):
        w = np.full((2, 2), 0.25)
        w[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            GridPermuton(w)
        with pytest.raises(ValueError, match="finite"):
            grid_from_csv(f"m=2\n0.25,{bad}\n0.25,0.25\n")


def test_marginal_tolerance_is_tight():
    # deviations below MARGINAL_TOL must be accepted (constructors rely on it)
    w = np.full((4, 4), 1.0 / 16.0)
    w[0, 0] += 0.25 * MARGINAL_TOL
    w[0, 1] -= 0.25 * MARGINAL_TOL
    GridPermuton(w)


def test_permutation_validation():
    Permutation(np.array([2, 1, 3]))
    with pytest.raises(ValueError):
        Permutation(np.array([1, 1, 3]))
    with pytest.raises(ValueError):
        Permutation(np.array([0, 1, 2]))
    for bad in ([], [[1, 2], [2, 1]]):
        with pytest.raises(ValueError, match="nonempty 1-D"):
            Permutation(bad)


def test_permutons_copy_their_input():
    # a write to the caller's array, before or after the first draw, reaches
    # neither the permuton nor its draw table, and leaves the caller's array
    # writeable
    w0 = random_grid(6, np.random.default_rng(4)).w.copy()
    seg0 = gamma_ab(0.8, 0.3).segments.copy()
    for make, ref in ((GridPermuton, w0), (SegmentPermuton, seg0)):
        expect = sample_points(make(ref.copy()), 500, np.random.default_rng(5))
        for draw_first in (False, True):
            a = ref.copy()
            src = make(a)
            if draw_first:
                sample_points(src, 10, np.random.default_rng(6))
            assert a.flags.writeable
            a[::-1] = ref       # another valid permuton,
            a[0, -1] = 0.5      # then none at all
            kept = src.w if make is GridPermuton else src.segments
            assert np.array_equal(kept, ref) and not kept.flags.writeable
            x, y = sample_points(src, 500, np.random.default_rng(5))
            assert np.array_equal(x, expect[0]) and np.array_equal(y, expect[1])
    v = np.array([2, 3, 1], dtype=np.int64)
    pi = Permutation(v)
    v[0] = 3
    assert v.flags.writeable and pi.values.tolist() == [2, 3, 1]


# Each case builds a value from arrays of its own and returns (the caller's
# arrays, the arrays the value holds).
def _grid():
    w = random_grid(6, np.random.default_rng(4)).w.copy()
    return [w], [GridPermuton(w).w]


def _segments():
    seg = gamma_ab(0.8, 0.3).segments.copy()
    return [seg], [SegmentPermuton(seg).segments]


def _permutation():
    v = np.array([2, 3, 1])
    return [v], [Permutation(v).values]


def _cdf():
    w = random_grid(6, np.random.default_rng(4)).w.copy()
    return [w], [cdf(GridPermuton(w))]


def _insertion_family():
    cols = [c.copy() for c in flat_family(8, 8).cols]
    return cols, list(InsertionFamily(8, 8, tuple(cols)).cols)


def _region_curve():
    t = np.linspace(0.0, 1.0, 11)
    pts = np.column_stack([t, 1.0 - t])
    curve = RegionCurve("c", t, pts)
    return [t, pts], [curve.t, curve.points]


def _region_123_321():
    t = np.linspace(0.0, 1.0, 11)
    return [t], [a for c in region_123_321(t).values() for a in (c.t, c.points)]


def _gauss_legendre():
    return [], list(_gl01(96))


OWNERSHIP_CASES = {
    "GridPermuton.w": _grid,
    "SegmentPermuton.segments": _segments,
    "Permutation.values": _permutation,
    "cdf": _cdf,
    "InsertionFamily.cols": _insertion_family,
    "RegionCurve": _region_curve,
    "region_123_321": _region_123_321,
    "_gl01(96)": _gauss_legendre,
}


@pytest.mark.parametrize("case", OWNERSHIP_CASES.values(), ids=OWNERSHIP_CASES.keys())
def test_value_types_hold_private_read_only_arrays(case):
    # the held array's flag cannot be set back, the caller's array stays
    # writeable, and a write to it changes nothing built from it
    inputs, held = case()
    before = [h.copy() for h in held]
    for h in held:
        with pytest.raises(ValueError):
            h.setflags(write=True)
    for a in inputs:
        assert a.flags.writeable
        a += 1
    assert all(h.tobytes() == b.tobytes() for h, b in zip(held, before))


@pytest.mark.parametrize("make", (lambda: star12_grid(1.0, 4), lambda: gamma_ab(0.6, 0.2)),
                         ids=("grid", "segments"))
def test_a_kept_draw_table_cannot_go_stale(make):
    # reversing the held array in place after a draw would leave the kept
    # table on the old permuton; the flag flip that would allow it fails
    from permutons import core
    src = make()
    sample_points(src, 10, np.random.default_rng(0))
    held = src.w if isinstance(src, GridPermuton) else src.segments
    with pytest.raises(ValueError):
        held.setflags(write=True)
    with pytest.raises(ValueError):
        held[:] = held[::-1]
    fresh = core._Sampler(make())
    rng, fresh_rng = np.random.default_rng(1), np.random.default_rng(1)
    for n in (1, 500):
        got, want = sample_points(src, n, rng), fresh.points(n, fresh_rng)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def _arrays(field):
    """The arrays in one field of a value type: the field, or its items."""
    items = field if isinstance(field, tuple) else (field,)
    return [a for a in items if isinstance(a, np.ndarray)]


VALUE_TYPES = {
    "GridPermuton": lambda: star12_grid(1.0, 4),
    "SegmentPermuton": lambda: gamma_ab(0.6, 0.2),
    "Permutation": lambda: Permutation([2, 3, 1]),
    "InsertionFamily": lambda: flat_family(4, 8),
    "RegionCurve": lambda: region_123_321(np.linspace(0.0, 1.0, 5))["C"],
}


@pytest.mark.parametrize("dup", (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy),
                         ids=("pickle", "deepcopy"))
@pytest.mark.parametrize("make", VALUE_TYPES.values(), ids=VALUE_TYPES.keys())
def test_copies_keep_the_ownership_rule(make, dup):
    # a copy is rebuilt through its constructor: it holds equal arrays whose
    # flag cannot be set back, and builds its own draw table
    from permutons import core
    value = make()
    draws = isinstance(value, (GridPermuton, SegmentPermuton))
    if draws:
        sample_points(value, 10, np.random.default_rng(0))
    twin = dup(value)
    assert "_sampler" not in vars(twin)
    held = [[a for f in fields(v) for a in _arrays(getattr(v, f.name))] for v in (value, twin)]
    assert held[1] and len(held[0]) == len(held[1])
    for a, b in zip(*held):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        with pytest.raises(ValueError):
            b.setflags(write=True)
    if draws:
        fresh = core._Sampler(make())
        got = sample_points(twin, 500, np.random.default_rng(1))
        want = fresh.points(500, np.random.default_rng(1))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_each_permuton_builds_its_draw_table_once(monkeypatch):
    # sample_points, sample_permutation and both density_mc estimators draw
    # from the table the permuton keeps, and draw what a fresh table draws
    from permutons import core
    from permutons.patterns import PatternSpec, density_mc
    builds = []
    guide = core._guide
    monkeypatch.setattr(core, "_guide", lambda weights: builds.append(1) or guide(weights))
    tau = PatternSpec.parse("132")

    def calls(src):
        rng = np.random.default_rng(9)
        return (sample_points(src, 300, rng), sample_points(src, 7, rng),
                sample_permutation(src, 40, rng).values,
                density_mc(src, tau, 5000, rng), density_mc(src, tau, 20, rng, n_points=6))

    for src in (random_grid(8, np.random.default_rng(2)), gamma_ab(0.7, 0.2)):
        builds.clear()
        got = calls(src)
        assert len(builds) == 1
        rng = np.random.default_rng(9)
        fresh = (core._Sampler(src).points(300, rng), core._Sampler(src).points(7, rng),
                 core._Sampler(src).ranks(40, rng) + 1)
        for (x, y), (xr, yr) in zip(got[:2], fresh[:2]):
            assert np.array_equal(x, xr) and np.array_equal(y, yr)
        assert np.array_equal(got[2], fresh[2])
        # an equal permuton builds and keeps a table of its own, and both
        # estimators give what they gave on the original
        copy = type(src)(src.w if isinstance(src, GridPermuton) else src.segments)
        builds.clear()
        assert calls(copy)[3:] == got[3:] and len(builds) == 1


def test_permutation_grid_places_mass_on_cells():
    pi = Permutation(np.array([2, 4, 1, 3]))
    g = grid_from_permutation(pi)
    assert g.m == 4
    expect = np.zeros((4, 4))
    for i, v in enumerate([2, 4, 1, 3]):
        expect[i, v - 1] = 0.25
    assert np.array_equal(g.w, expect)


def test_permutation_grid_coarse_resolution():
    # m = 2 blocks of 2413 each capture one ascent/descent pair: every
    # quadrant receives exactly one of the four values
    pi = Permutation(np.array([2, 4, 1, 3]))
    g = grid_from_permutation(pi, m=2)
    assert np.array_equal(g.w, np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        grid_from_permutation(pi, m=3)


def test_cdf_nodes():
    g = uniform_grid(4)
    G = cdf(g)
    assert G.shape == (5, 5)
    assert G[0, 0] == 0.0
    assert G[-1, -1] == pytest.approx(1.0, abs=1e-15)
    assert G[2, 2] == pytest.approx(0.25, abs=1e-15)
    assert not G.flags.writeable


def test_cdf_linf_identity_vs_reversal():
    ident = grid_from_permutation(Permutation(np.array([1, 2])))
    rev = grid_from_permutation(Permutation(np.array([2, 1])))
    # center node: identity has G(1/2,1/2) = 1/2, reversal has 0
    assert cdf_linf_distance(ident, rev) == pytest.approx(0.5, abs=1e-15)
    assert cdf_linf_distance(ident, ident) == 0.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_rect_distance_bounds_linf(m, seed):
    # a rectangle's mass is an alternating sum of four CDF values
    rng = np.random.default_rng(seed)
    g1, g2 = random_grid(m, rng), random_grid(m, rng)
    linf = cdf_linf_distance(g1, g2)
    rect = rect_distance(g1, g2)
    assert linf - 1e-12 <= rect <= 4.0 * linf + 1e-12
    assert rect_distance(g1, g1) == 0.0
    assert rect_distance(g1, g2) == pytest.approx(rect_distance(g2, g1),
                                                  abs=1e-15)


def test_rect_distance_known_value():
    ident = grid_from_permutation(Permutation(np.array([1, 2])))
    rev = grid_from_permutation(Permutation(np.array([2, 1])))
    # the worst rectangle is a center-anchored quadrant: mass 1/2 vs 0
    assert rect_distance(ident, rev) == pytest.approx(0.5, abs=1e-15)


def test_coarsen_sums_blocks():
    rng = np.random.default_rng(9)
    g = random_grid(8, rng)
    c = coarsen(g, 4)
    assert c.m == 4
    assert c.w[0, 0] == pytest.approx(g.w[:2, :2].sum(), abs=1e-15)
    assert c.w.sum() == pytest.approx(1.0, abs=1e-12)
    # block sums preserve every CDF node the coarse lattice shares with g
    assert np.abs(cdf(c) - cdf(g)[::2, ::2]).max() <= 1e-13
    with pytest.raises(ValueError):
        coarsen(g, 3)
    for distance in (rect_distance, cdf_linf_distance):
        with pytest.raises(ValueError, match="resolution mismatch: 8 vs 4"):
            distance(g, c)


@pytest.mark.parametrize("call, match", [
    (lambda: uniform_grid(2.5), "m must be an integer"),
    (lambda: uniform_grid(True), "m must be an integer"),
    (lambda: grid_from_permutation(Permutation(np.array([2, 4, 1, 3])), 2.0),
     "m must be an integer"),
    (lambda: coarsen(uniform_grid(4), 2.0), "m2 must be an integer"),
])
def test_grid_counts_refuse_non_integers_by_name(call, match):
    # each once raised a bare TypeError, which the CLI does not catch
    with pytest.raises(ValueError, match=match):
        call()


def test_rebalance_marginals_projects():
    rng = np.random.default_rng(3)
    w = rng.uniform(0.1, 1.0, size=(6, 6))
    out = rebalance_marginals(w)
    assert np.abs(out.sum(axis=0) - 1.0 / 6.0).max() <= 1e-12
    assert np.abs(out.sum(axis=1) - 1.0 / 6.0).max() <= 1e-12
    assert out.min() > 0.0
    # already-balanced input is a fixed point, bit for bit: the projection
    # once swept it again and moved it by up to 7.4e-15
    assert np.array_equal(rebalance_marginals(out), out)
    # a NaN or infinite cell is refused before the first sweep
    for bad in (np.nan, np.inf, -np.inf):
        w = np.full((8, 8), 1.0 / 64)
        w[3, 5] = bad
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="non-finite"):
            rebalance_marginals(w)
        assert time.perf_counter() - t0 < 0.1
    # a zero row or column cannot be scaled back
    for w, which in (([[0.0, 0.0], [1.0, 1.0]], "row"), ([[1.0, 0.0], [1.0, 0.0]], "column")):
        with pytest.raises(ValueError, match=f"zero {which} mass"):
            rebalance_marginals(w)
    # so is a shape that is not a nonempty square: (2, 3) once ran every
    # sweep and then reported a stall, and the others failed inside numpy
    for shape in ((2, 3), (0, 0), (4,), (2, 2, 2)):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=rf"shape \({shape[0]},"):
            rebalance_marginals(np.full(shape, 0.25))
        assert time.perf_counter() - t0 < 0.1


def test_rebalance_marginals_checks_the_total_as_well():
    # every marginal 0.9e-13 off, so each is within the 1e-13 tolerance, but
    # the total 32 times farther off: past the 1e-12 GridPermuton accepts
    m = 32
    w = np.full((m, m), 1.0 / m ** 2 + 0.9e-13 / m)
    assert np.abs(w.sum(axis=1) - 1.0 / m).max() <= 1e-13
    assert abs(w.sum() - 1.0) > 1e-12
    out = rebalance_marginals(w)
    assert abs(out.sum() - 1.0) <= 1e-13
    GridPermuton(out)


def test_rebalance_stall_raises_convergence_error(monkeypatch):
    # a 1e-30 cell needs many sweeps; two leave a deviation of 0.1
    monkeypatch.setattr(core, "_REBALANCE_MAX_ITER", 2)
    with pytest.raises(ConvergenceError) as err:
        rebalance_marginals([[1.0, 1e-30], [1.0, 1.0]])
    assert str(err.value) == ("marginal rebalancing did not reach 1.0e-13 in 2 "
                              "iterations (last deviation 1.000e-01)")
    assert err.value.residual == pytest.approx(0.1)
    assert err.value.alpha is None


@pytest.mark.parametrize("w", [
    # once came back "balanced", with a cell of -1.99e-4
    [[2.0, 1.0, -0.001], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]],
    # once ran all 100,000 sweeps and then reported a stall
    [[1.0, -1e-9], [1e-3, 1.0]],
    # once reported as a zero row
    [[1.0, -0.01], [0.01, 1.0]],
], ids=["balanced-with-a-negative-cell", "stall", "zero-row"])
def test_rebalance_refuses_negative_mass(w):
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="^cannot rebalance: negative mass$"):
        rebalance_marginals(w)
    assert time.perf_counter() - t0 < 0.1


def test_rebalance_takes_negative_zero_and_checks_finiteness_first():
    # -0.0 is not negative mass, and keeps its sign through the sweeps
    out = rebalance_marginals([[1.0, -0.0], [-0.0, 3.0]])
    assert np.array_equal(out, [[0.5, 0.0], [0.0, 0.5]])
    assert np.signbit(out).tolist() == [[False, True], [True, False]]
    with pytest.raises(ValueError, match="non-finite"):
        rebalance_marginals([[1.0, -1.0], [np.nan, 1.0]])


def _reference_rebalance(w):
    """``rebalance_marginals`` as it was before each sweep checked the rows
    first: the loop word for word, the reference of its stopping rule."""
    _REBALANCE_TOL, _REBALANCE_MAX_ITER = core._REBALANCE_TOL, core._REBALANCE_MAX_ITER
    w = np.array(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.size == 0:
        raise ValueError(f"cannot rebalance: shape {w.shape} is not a nonempty square")
    m = w.shape[0]
    target = 1.0 / m
    rows = w.sum(axis=1)
    # a NaN or +-inf entry makes its row sum non-finite (inf - inf is NaN)
    if not np.isfinite(rows).all():
        raise ValueError("cannot rebalance: non-finite mass")
    for sweep in range(_REBALANCE_MAX_ITER + 1):
        dev = max(abs(rows - target).max(), abs(w.sum(axis=0) - target).max())
        if dev <= _REBALANCE_TOL and abs(w.sum() - 1.0) <= _REBALANCE_TOL:
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
        cols = w.sum(axis=0)
        if np.fmin.reduce(cols) <= 0:
            raise ValueError("cannot rebalance: zero column mass")
        w *= (target / cols)[None, :]
        rows = w.sum(axis=1)


def _run(project, w):
    """The bytes of the projection's output, or its error's type, message
    and residual."""
    try:
        return project(w).tobytes()
    except (ValueError, ConvergenceError) as exc:
        return type(exc), str(exc), repr(getattr(exc, "residual", None))


def _sinkhorn_input(m, kind, low, seed):
    """An m x m nonnegative grid: cells log-uniform in [10^low, 1], the same
    with a fifth of them zero (some -0.0), with one empty column or with
    its rows already at 1/m and its columns not, or an already balanced
    grid: a scaled permutation, the reference's own output, or that output
    with every marginal 5e-14 off and the total m times that."""
    rng = np.random.default_rng(seed)
    w = 10.0 ** rng.uniform(low, 0.0, size=(m, m))
    if kind == "zeros":
        w[rng.random((m, m)) < 0.2] = rng.choice([0.0, -0.0])
    elif kind == "column":
        w[:, rng.integers(m)] = 0.0
    elif kind == "rows":
        w /= m * w.sum(axis=1, keepdims=True)
    elif kind == "permutation":
        w = np.eye(m)[rng.permutation(m)] / m
    elif kind in ("balanced", "total"):
        w = _reference_rebalance(rng.uniform(0.5, 1.0, size=(m, m)) * 10.0 ** low)
        if kind == "total":
            w *= 1.0 + 5e-14 * m
    return w


@pytest.mark.parametrize("max_iter", [core._REBALANCE_MAX_ITER, 2])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.sampled_from(["cells", "zeros", "column", "rows", "permutation",
                                           "balanced", "total"]),
       st.floats(-30.0, 0.0), st.integers(0, 2**32 - 1))
def test_rebalance_stops_where_the_reference_loop_stops(max_iter, m, kind, low, seed):
    # the rows are checked first and the columns and the total only once
    # they pass; the reference checks all three every sweep.  Same bits, or
    # the same error, message and residual, also when two sweeps stall
    w = _sinkhorn_input(m, kind, low, seed)
    with mock.patch.object(core, "_REBALANCE_MAX_ITER", max_iter):
        assert _run(rebalance_marginals, w) == _run(_reference_rebalance, w)


def test_segment_permuton_marginals():
    g = gamma_ab(0.6, 0.15)
    assert isinstance(g, SegmentPermuton)
    # degenerate staircase (b = 0) and the bare descent both validate
    gamma_ab(0.5, 0.0)
    gamma_ab(0.0, 0.0)
    for bad in (np.nan, np.inf, -np.inf):
        seg = g.segments.copy()
        seg[0, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            SegmentPermuton(seg)
    # each further check, on one edit of g's rows (x0, x1, y0, slope, mass)
    for r, c, value, match in ((0, 1, 0.0, "x0 < x1"), (1, 3, 0.5, "slopes must be"),
                               (0, 4, -0.4, "nonnegative"), (0, 4, 0.8, "sum to 1"),
                               (0, 2, 1.5, "inside the unit square")):
        seg = g.segments.copy()
        seg[r, c] = value
        with pytest.raises(ValueError, match=match):
            SegmentPermuton(seg)
    with pytest.raises(ValueError, match=r"shape \(k, 5\)"):
        SegmentPermuton(g.segments[:, :4])
    # a descent over [0, 1/2] on top of the full diagonal: x-density 3/2 there
    with pytest.raises(ValueError, match="x-marginal deviates from uniform by 5.000e-01"):
        SegmentPermuton([(0.0, 0.5, 1.0, -1.0, 0.5), (0.0, 1.0, 0.0, 1.0, 0.5)])


def test_segment_marginal_check_memory_is_linear():
    # the check sweeps the sorted segment ends: at k = 4,096 segments a
    # breakpoints x segments cover matrix would trace about 145 MB
    tracemalloc.start()
    try:
        assert gamma_ab(1.0, 1.0 / 4096).segments.shape == (4096, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MB"


def test_sample_points_ranges_and_law():
    rng = np.random.default_rng(17)
    xs, ys = sample_points(uniform_grid(8), 20000, rng)
    assert xs.shape == ys.shape == (20000,)
    assert xs.min() >= 0.0 and xs.max() <= 1.0
    assert ys.min() >= 0.0 and ys.max() <= 1.0
    # uniform marginals: mean 1/2 within 4 sigma = 4/sqrt(12 n)
    band = 4.0 / np.sqrt(12.0 * 20000)
    assert abs(xs.mean() - 0.5) <= band
    assert abs(ys.mean() - 0.5) <= band
    # independence of coordinates fails for the identity permuton
    xs2, ys2 = sample_points(gamma_ab(1.0, 0.0), 20000, rng)
    assert np.abs(xs2 - ys2).max() <= 1e-12


def test_sample_permutation_seeded_and_valid():
    src = uniform_grid(4)
    p1 = sample_permutation(src, 50, seed=123)
    p2 = sample_permutation(src, 50, seed=123)
    p3 = sample_permutation(src, 50, seed=124)
    assert np.array_equal(p1.values, p2.values)
    assert not np.array_equal(p1.values, p3.values)
    assert np.array_equal(np.sort(p1.values), np.arange(1, 51))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.booleans(), st.integers(1, 8), st.just(0.0) | st.floats(0.01, 1.0),
       st.floats(0.02, 1.0), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_sample_permutation_ranks_the_sampled_points(grid, m, a, frac, n, seed):
    # the pattern is the y-ranks, in x order, of the points sample_points
    # draws from the same seed; the ranks here count smaller coordinates
    src = random_grid(m, np.random.default_rng(seed)) if grid else gamma_ab(a, frac * a / 2)
    x, y = sample_points(src, n, np.random.default_rng(seed))
    ry = (y[None, :] < y[:, None]).sum(axis=1)
    want = ry[np.argsort(x, kind="stable")]
    assert np.array_equal(sample_permutation(src, n, seed).values - 1, want)


def test_sample_permutation_tracks_source():
    # sampling the identity permuton must give the identity permutation
    pi = sample_permutation(gamma_ab(1.0, 0.0), 40, seed=8)
    assert np.array_equal(pi.values, np.arange(1, 41))


def test_sample_permutation_rejects_bad_counts():
    src = uniform_grid(4)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="need n >= 1"):
            sample_permutation(src, bad, 0)
    for bad in (2.5, 3.0, "4", True, np.bool_(True)):
        with pytest.raises(ValueError, match="n must be an integer"):
            sample_permutation(src, bad, 0)
    assert sample_permutation(src, np.int64(3), 0).n == 3


def test_sample_points_rejects_bad_counts():
    rng = np.random.default_rng(3)
    for src in (uniform_grid(3), gamma_ab(0.7, 0.2)):
        for bad in (-1, 2.5, 3.0, "4", True, np.bool_(True)):
            with pytest.raises(ValueError, match="n must"):
                sample_points(src, bad, rng)
        x, y = sample_points(src, 0, rng)
        assert x.shape == y.shape == (0,)
        assert x.dtype == y.dtype == np.float64
        x, y = sample_points(src, np.int64(5), rng)
        assert x.shape == (5,)
    with pytest.raises(TypeError, match="unsupported permuton source ndarray"):
        sample_points(uniform_grid(3).w, 5, rng)


def test_sample_points_takes_an_int_seed():
    # an int seed is the Generator default_rng makes of it, bit for bit
    for src in (random_grid(5, np.random.default_rng(2)), gamma_ab(0.7, 0.2)):
        for n in (1, 257):
            x, y = sample_points(src, n, 7)
            want_x, want_y = sample_points(src, n, np.random.default_rng(7))
            assert np.array_equal(x, want_x) and np.array_equal(y, want_y)


# cell masses from 1e-12 to 1 (mantissa times a power of ten), and empty cells
_masses = st.one_of(
    st.just(0.0),
    st.tuples(st.floats(1.0, 9.99), st.integers(-12, 0)).map(lambda t: min(t[0] * 10.0 ** t[1], 1.0)))


def _choice_points(source, n, rng):
    """The points sample_points gave when it drew cells and segments with
    Generator.choice: the reference stream it must keep."""
    if isinstance(source, GridPermuton):
        m = source.m
        p = source.w.ravel()
        ix, iy = np.divmod(rng.choice(m * m, size=n, p=p / p.sum()), m)
        return (ix + rng.random(n)) / m, (iy + rng.random(n)) / m
    seg = source.segments
    mass = seg[:, 4]
    idx = rng.choice(seg.shape[0], size=n, p=mass / mass.sum())
    x = seg[idx, 0] + (seg[idx, 1] - seg[idx, 0]) * rng.random(n)
    return x, seg[idx, 2] + seg[idx, 3] * (x - seg[idx, 0])


def _mixed_grid(m, weights, rng):
    """Mixture of random permutation matrices: empty cells when there are
    fewer weights than m, and cell masses spanning the weights' range."""
    a = np.array(weights) / sum(weights)
    w = np.zeros((m, m))
    for ak in a:
        w[np.arange(m), rng.permutation(m)] += ak / m
    return GridPermuton(w)


def _diagonal_segments(weights):
    """Segments with the given masses (zeros included, in the given order):
    positive masses tile the diagonal, each over an x-range of exactly its
    mass, and zero masses lie on the anti-diagonal."""
    pos = [v for v in weights if v > 0]
    c = np.concatenate([[0.0], np.cumsum(pos) / sum(pos)])
    c[-1] = 1.0
    rows, k = [], 0
    for v in weights:
        if v > 0:
            rows.append((c[k], c[k + 1], c[k], 1.0, c[k + 1] - c[k]))
            k += 1
        else:
            rows.append((0.0, 1.0, 1.0, -1.0, 0.0))
    return SegmentPermuton(np.array(rows))


def test_draw_breaks_ties_as_choice():
    # a uniform equal to a CDF value or to a bucket edge b / B picks the
    # index searchsorted(side="right") picks; random uniforms almost never
    # hit these ties, so they are placed here by hand
    from permutons.core import _guide, _lookup
    w = np.array([0.0, 0.25, 0.0, 0.0, 0.125, 0.125, 0.5, 0.0, 1e-12])
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    u = np.concatenate([cdf[cdf < 1.0], np.arange(16) / 16, [np.nextafter(1.0, 0.0)]])
    assert np.array_equal(_lookup(_guide(w), u), cdf.searchsorted(u, side="right"))


def test_draw_on_a_large_table_is_searchsorted():
    # 512 x 512 cells, B = 2^18 buckets: random uniforms, every bucket edge
    # b / B and the largest uniform below 1
    from permutons.core import _guide, _lookup
    rng = np.random.default_rng(3)
    w = rng.random(512 * 512)
    w[rng.random(w.size) < 0.3] = 0.0
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    u = np.concatenate([rng.random(10 ** 5), np.arange(1 << 18) / (1 << 18),
                        [np.nextafter(1.0, 0.0)]])
    assert np.array_equal(_lookup(_guide(w), u), cdf.searchsorted(u, side="right"))
    # bucket indices are int32: 2^31 categories are refused up front (a
    # broadcast view, so nothing of that size is allocated)
    with pytest.raises(ValueError, match="categories"):
        _lookup(_guide(np.broadcast_to(1.0, (1 << 31,))), u)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_masses, min_size=1, max_size=40).filter(lambda w: sum(w) > 0),
       st.integers(0, 2**32 - 1))
def test_lookup_is_searchsorted_on_both_branches(weights, seed):
    # tables of 1 to 40 categories, with empty ones, on both sides of the
    # small-table threshold; runs of empty categories make the guide steps
    # run out and reach the binary search.  Uniforms at and just below
    # every cdf value, at every bucket edge b / B, at 0 and at the largest
    # uniform below 1, and random ones
    from permutons.core import _guide, _lookup
    table = _guide(np.array(weights))
    cdf, _, B = table
    inner = cdf[cdf < 1.0]
    u = np.concatenate([inner, np.nextafter(inner, 0.0), np.arange(B) / B,
                        [0.0, np.nextafter(1.0, 0.0)], np.random.default_rng(seed).random(256)])
    assert np.array_equal(_lookup(table, u), cdf.searchsorted(u, side="right"))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(_masses, min_size=1, max_size=40).filter(lambda w: sum(w) > 0),
       st.integers(1, 9), st.sampled_from(["zero", "one", "below", "above"]),
       st.integers(0, 2**32 - 1))
def test_sample_points_draws_what_choice_draws(weights, m, size, seed):
    # same seed, same points and same generator state afterwards as the
    # Generator.choice sampler, on grids and on segments
    rng = np.random.default_rng(seed)
    sources = (_mixed_grid(m, [v for v in weights if v > 0], rng), _diagonal_segments(weights))
    for src in sources:
        N = src.m ** 2 if isinstance(src, GridPermuton) else src.segments.shape[0]
        n = {"zero": 0, "one": 1, "below": max(N // 2, 1), "above": 3 * N + 7}[size]
        r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
        x, y = sample_points(src, n, r1)
        xr, yr = _choice_points(src, n, r2)
        assert np.array_equal(x, xr) and np.array_equal(y, yr)
        assert r1.bit_generator.state == r2.bit_generator.state


@pytest.mark.parametrize("source", ["grid64", "grid3", "segments17"])
def test_sample_points_across_lookup_blocks_draws_what_choice_draws(source):
    # three 2^16-point lookup blocks and a partial one, on the guide path of
    # a grid (64^2 cells), the direct count of a grid (9 cells) and the
    # guide path of segments (17)
    from permutons.core import _BLOCK
    rng = np.random.default_rng(64)
    src = {"grid64": lambda: _mixed_grid(64, [0.5, 0.3, 0.2] * 30, rng),
           "grid3": lambda: _mixed_grid(3, [0.7, 0.2, 0.1], rng),
           "segments17": lambda: gamma_ab(0.79, 0.05)}[source]()
    n = 3 * _BLOCK + 5
    r1, r2 = np.random.default_rng(11), np.random.default_rng(11)
    x, y = sample_points(src, n, r1)
    xr, yr = _choice_points(src, n, r2)
    assert np.array_equal(x, xr) and np.array_equal(y, yr)
    assert r1.bit_generator.state == r2.bit_generator.state


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_grid_csv_round_trip(m, seed):
    # 17 significant digits reproduce every float64 exactly
    g = random_grid(m, np.random.default_rng(seed))
    text = grid_to_csv(g)
    assert text.splitlines()[0] == f"m={m}"
    back = grid_from_csv(text)
    assert np.array_equal(back.w, g.w)
    with pytest.raises(ValueError):
        grid_from_csv("m=3\n1,2\n")


def grid_csv_reference(g):
    """The grid CSV as one format() call per value writes it."""
    lines = [f"m={g.m}"]
    for row in g.w:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


SUBNORMAL = st.floats(min_value=5e-324, max_value=2.2250738585072009e-308)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 1.0]),
       st.lists(st.one_of(SUBNORMAL, st.just(0.0), st.just(-0.0)), max_size=12))
def test_grid_csv_writes_the_per_value_format(m, seed, t, small):
    # a permutation grid mixed with a positive one: t = 0 leaves m^2 - m
    # zero cells, some of which become subnormal masses or -0.0
    rng = np.random.default_rng(seed)
    perm = grid_from_permutation(Permutation(rng.permutation(m) + 1), m).w
    w = (1.0 - t) * perm + t * random_grid(m, rng).w
    zeros = np.flatnonzero(w == 0)[:len(small)]
    w.flat[zeros] = small[:zeros.size]
    g = GridPermuton(w)
    text = grid_to_csv(g)
    assert text == grid_csv_reference(g)
    assert grid_from_csv(text).w.tobytes() == g.w.tobytes()


@st.composite
def csv_entries(draw):
    """m and the m^2 entries of a grid CSV: any finite float64 (subnormals
    and -0.0 included), written at 17 digits or by repr, with spaces around."""
    m = draw(st.integers(1, 8))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False) | SUBNORMAL,
                           min_size=m * m, max_size=m * m))
    tokens = []
    for v in values:
        text = draw(st.sampled_from(["%.17g" % v, repr(v)]))
        tokens.append(draw(st.sampled_from(["", " ", "\t", "  "])) + text
                      + draw(st.sampled_from(["", " ", "\t "])))
    return m, tokens


@settings(max_examples=80, deadline=None, derandomize=True)
@given(csv_entries())
def test_grid_csv_parses_every_entry_as_float_does(entries):
    # the parse before the grid checks, which would refuse most such grids
    m, tokens = entries
    text = f"m={m}\n" + "".join(",".join(tokens[i:i + m]) + "\n" for i in range(0, m * m, m))
    want = np.array([float(tok) for tok in tokens]).reshape(m, m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "GridPermuton", lambda w: w)
        got = grid_from_csv(text)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("text, match", [
    ("", "must start with a 'm=<int>' header line"),
    ("n=2\n0.5,0\n0,0.5\n", "must start with a 'm=<int>' header line"),
    ("m=2\n0.5,0\n0,0.5,0\n", "data row 2 has 3 entries, expected m=2"),
    ("m=2\n0.5\n0,0.5\n", "data row 1 has 1 entries, expected m=2"),
    ("m=0\n", "m=0; m must be >= 1"),
    ("m=-1\n", "m=-1; m must be >= 1"),
    # '#' starts no comment: it is a non-number like any other
    ("m=2\n0.5,0\n0,0.5 # x\n", r"data row 2: could not convert string to float: '0.5 # x'"),
    ("m=2\n# 0.5,0\n0,0.5\n", r"data row 1: could not convert string to float: '# 0.5'"),
    # an empty field is an error, not a zero or a skipped value
    ("m=2\n0.5,\n0,0.5\n", r"data row 1: could not convert string to float: ''"),
    ("m=2\n0.5,0\n,0.5\n", r"data row 2: could not convert string to float: ''"),
    ("m=3\n0.3,0,0\n0,0.3,0\n0,0,abc\n", r"data row 3: .*'abc'"),
    ("m=1\n0x1p0\n", r"data row 1: .*'0x1p0'"),
    # the rows are read in order: a ragged row after a bad entry is not reached
    ("m=2\n0.5,x\n0,0.5,0\n", r"data row 1: .*'x'"),
])
def test_grid_csv_malformed_names_the_problem(text, match):
    with pytest.raises(ValueError, match=match):
        grid_from_csv(text)


@pytest.mark.parametrize("head", ["m=2.5", "m=", "m=two", "m=1e2"])
def test_grid_csv_header_count_names_the_field_and_header(head):
    value = head[2:]
    with pytest.raises(ValueError) as exc:
        grid_from_csv(head + "\n0.5,0\n0,0.5\n")
    assert str(exc.value) == f"grid CSV header {head!r}: m must be an integer, got {value!r}"


def test_grid_csv_reads_what_float_reads():
    # spaces around an entry and exponent forms parse as float() parses
    # them, and so do underscores and non-ASCII digits, which the one-pass
    # reader refuses and the row-by-row reader behind it accepts
    g = grid_from_csv("m=2\n 0.5 ,\t0\n0. , 5E-1\n")
    assert np.array_equal(g.w, [[0.5, 0.0], [0.0, 0.5]])
    for entry in ("1.0_0", "\u0661", " 1_0e-1 "):
        assert grid_from_csv(f"m=1\n{entry}\n").w.tolist() == [[1.0]]
    # non-finite and negative masses parse, and the grid refuses them
    for bad in ("m=2\nInf,0\n0,0.5\n", "m=2\nnan,0\n0,0.5\n", "m=2\n-0.5,1\n1,-0.5\n"):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            grid_from_csv(bad)

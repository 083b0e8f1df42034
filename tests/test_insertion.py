"""Insertion families: extraction, entropy functional, and reconstruction.

The conditional insertion density of the one-parameter ascent model is
r e^(-r y) / (1 - e^(-r x)) on y in [0, x], whose band averages have a
closed form.  Extraction from a density grid sees cell
averages in x as well, so its error is O(1/m) and halves when the grid is
refined; for x-independent families (the uniform permuton) the column
averages are exact and extraction must return the flat family to machine
precision.  The entropy functional evaluated on the exact family must match
the closed-form model entropy, and transporting the family back to a grid
must land within rectangle distance of the model grid while reporting a
sub-1e-3 marginal correction.  Every star model has a family
(``star_family``), so three routes reach its entropy maximizer: the
coefficients of ``solve_star``, the grid ``reconstruct`` flows from their
family, and ``maximize_entropy`` on the grid; they agree at O(1/m^2).

Reconstruction steps all columns on one shared time grid.  Where that grid's
spacing equals the requested step (mt a power of two at the default step),
the result is bitwise that of stepping each column alone from its own
midpoint, which ``per_column_reference`` does.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from permutons import (
    ConstraintSet,
    GridPermuton,
    InsertionFamily,
    PatternSpec,
    Permutation,
    densities,
    entropy_grid,
    evaluate_star,
    family_from_csv,
    family_to_csv,
    flat_family,
    grid_from_permutation,
    insertion_entropy,
    insertion_from_permuton,
    reconstruct,
    rebalance_marginals,
    maximize_entropy,
    rect_distance,
    solve_star,
    star12_entropy,
    star12_grid,
    star_family,
    uniform_grid,
)
from permutons.insertion import _pchip, column_cells

# the one-term star model with rate r has alpha = -r
STAR12 = ((1, 0),)


def band_average_reference(r, x, ny):
    # the cell averages of r e^(-r y) / (1 - e^(-r x)), written so that no
    # difference cancels: e^(-r lo) expm1(-r h) / (expm1(-r x) h) for the
    # cell [lo, lo + h]
    h = x / ny
    return np.exp(-r * np.arange(ny) * h) * np.expm1(-r * h) / (np.expm1(-r * x) * h)


def per_column_reference(fam, m_out, step=1.0 / 512):
    """Reconstruction with one RK4 clock per column: column c takes
    ceil((1 - x_c) / step) equal steps from its midpoint x_c to 1."""
    mt = fam.mt
    xm = (np.arange(mt) + 0.5) / mt
    qg = np.linspace(0.0, 1.0, 513)
    knots = []
    for x, f in zip(xm, fam.cols):
        vals = np.maximum.accumulate(
            np.concatenate([[0.0], np.cumsum(f) * (x / f.size)]))
        vals /= vals[-1]
        vals = (vals + np.linspace(0.0, 1e-12, vals.size)) / (1.0 + 1e-12)
        knots.append((np.linspace(0.0, x, f.size + 1), vals))
    Qs = np.array([np.interp(qg, vals, yk) for yk, vals in knots])

    def field(x, Y):
        j = min(max(int(np.searchsorted(xm, x)), 1), mt - 1)
        lam = (x - xm[j - 1]) / (xm[j] - xm[j - 1])
        Qb = np.clip((1.0 - lam) * Qs[j - 1] + lam * Qs[j], 0.0, None)
        return np.interp(Y, np.maximum.accumulate(Qb), qg)

    edges = np.linspace(0.0, 1.0, m_out + 1)
    w = np.zeros((m_out, m_out))
    for c, (yk, vals) in enumerate(knots):
        q = np.linspace(0.0, 1.0, max(8 * m_out, fam.cols[c].size) + 1)
        X = np.interp(q, vals, yk)
        x = xm[c]
        nsteps = math.ceil((1.0 - x) / step)
        dx = (1.0 - x) / nsteps
        for _ in range(nsteps):
            k1 = field(x, X)
            k2 = field(x + dx / 2, X + dx / 2 * k1)
            k3 = field(x + dx / 2, X + dx / 2 * k2)
            k4 = field(x + dx, X + dx * k3)
            X = X + dx / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            X = np.maximum.accumulate(np.clip(X, 0.0, 1.0))
            x += dx
        Xu, iu = np.unique(X, return_index=True)
        colcdf = PchipInterpolator(Xu, q[iu])(np.clip(edges, Xu[0], Xu[-1]))
        colcdf[edges <= Xu[0]] = 0.0
        colcdf[edges >= Xu[-1]] = 1.0
        colcdf = np.maximum.accumulate(np.clip(colcdf, 0.0, 1.0))
        colcdf[0], colcdf[-1] = 0.0, 1.0
        xl, xr = c / mt, (c + 1) / mt
        overlap = np.clip(np.minimum(edges[1:], xr) - np.maximum(edges[:-1], xl),
                          0.0, None)
        w += np.outer(overlap / (xr - xl), np.diff(colcdf)) / mt
    target = 1.0 / m_out
    correction = float(max(abs(w.sum(axis=1) / target - 1.0).max(),
                           abs(w.sum(axis=0) / target - 1.0).max()))
    return GridPermuton(rebalance_marginals(w)), correction


def test_flat_family_shape_and_entropy():
    fam = flat_family(64, 64)
    assert fam.mt == 64 and fam.my == 64
    assert len(fam.cols) == 64
    # column j covers y in [0, x]; the uniform insertion density is 1/x
    for j in (0, 20, 63):
        x = (j + 0.5) / 64.0
        col = np.asarray(fam.cols[j])
        assert np.abs(col - 1.0 / x).max() <= 1e-12 / x
    assert abs(insertion_entropy(fam)) <= 1e-15


def test_family_columns_normalize():
    for fam in (flat_family(32, 32), star_family(STAR12, (2.0,), 32, 48)):
        for j, col in enumerate(fam.cols):
            x = (j + 0.5) / fam.mt
            col = np.asarray(col)
            assert col.min() > 0.0
            # each column integrates to 1 over its support [0, x]
            assert np.sum(col) * (x / col.size) == pytest.approx(
                1.0, abs=1e-12)


def test_star_family_matches_band_averages():
    # every cell, at rates steep enough that the last cells of a column
    # carry about e^-40 of its mass
    for r in (-40.0, -2.0, 2.0, 40.0):
        fam = star_family(STAR12, (-r,), 64, 64)
        for j, col in enumerate(fam.cols):
            ref = band_average_reference(r, (j + 0.5) / 64.0, col.size)
            assert np.max(np.abs(col - ref) / ref) <= 1e-12


def test_insertion_entropy_matches_closed_form():
    for r in (-2.0, -6.0):
        fam = star_family(STAR12, (-r,), 512, 512)
        assert abs(insertion_entropy(fam) - star12_entropy(r)) <= 1e-5


@pytest.mark.parametrize("exps, alpha, gap_256", [
    (((1, 0),), (2.0,), 2.6e-6),
    (((2, 0),), (-3.0,), 6.7e-7),
    (((1, 0), (2, 0)), (1.0, -2.0), 2.6e-7),
    (((0, 1), (1, 1)), (3.0, 4.0), 4.8e-6),
    (((1, 0), (2, 0)), (-4.0, 4.0), 6.9e-6),
])
def test_star_family_entropy_is_the_legendre_entropy(exps, alpha, gap_256):
    # gap_256 is the gap measured at m = 256; the midpoint quadrature of the
    # entropy functional converges at O(1/m^2)
    H = evaluate_star(exps, alpha).entropy
    g128, g256 = (abs(insertion_entropy(star_family(exps, alpha, m, m)) - H) for m in (128, 256))
    assert g256 <= 2 * gap_256
    assert g128 >= 3.5 * g256


@pytest.mark.parametrize("exps, targets, measured", [
    (((1, 0),), (0.3,), (1.09e-3, 2.71e-4)),
    (((2, 0),), (0.4,), (3.17e-4, 7.92e-5)),
    (((1, 0), (2, 0)), (0.5, 0.4), (1.98e-3, 4.98e-4)),
    (((1, 0), (2, 0)), (0.5, 0.53), (9.34e-3, 2.56e-3)),
], ids=["*2", "**3", "pair-0.4", "pair-0.53"])
def test_star_models_agree_across_three_routes(exps, targets, measured):
    # solve_star's coefficients, flowed from their insertion family by
    # reconstruct, and maximize_entropy on the grid reach one maximizer;
    # ``measured`` holds the rect distances between the two grids at
    # m = 16 and 32, reconstructed from mt = my = 2m
    sol = solve_star(exps, targets)
    labels = [{(1, 0): "*2", (2, 0): "**3"}[e] for e in exps]
    cons = ConstraintSet.of(*zip(labels, targets))
    taus = [PatternSpec.parse(label) for label in labels]
    dist, miss = [], []
    for m in (16, 32):
        rec = reconstruct(star_family(exps, sol.alpha, 2 * m, 2 * m), m).grid
        opt = maximize_entropy(cons, m)
        assert opt.converged
        # the optimizer's grid competes for the continuum maximum H*, and
        # by Jensen the maximizer averaged to m cells has more entropy
        assert opt.entropy < sol.entropy < entropy_grid(rec)
        dist.append(rect_distance(rec, opt.grid))
        miss.append(np.abs(densities(rec, taus)[0] - np.asarray(targets)).max())
    assert dist[0] <= 2 * measured[0] and dist[1] <= 2 * measured[1]
    assert dist[0] >= 3 * dist[1]
    assert miss[1] < miss[0]


@pytest.mark.parametrize("exps, alpha, match", [
    (STAR12, (1.0, 2.0), "one coefficient per exponent pair"),
    (STAR12, (np.nan,), "coefficients must be finite"),
    (((1, 0), (1, 0)), (1.0, 2.0), "exponent pairs must be distinct"),
    (((0, 0),), (1.0,), r"bad exponent pair \(0, 0\)"),
])
def test_star_family_refuses_what_evaluate_star_refuses(exps, alpha, match):
    for build in (evaluate_star, lambda e, a: star_family(e, a, 8, 8)):
        with pytest.raises(ValueError, match=match):
            build(exps, alpha)


def test_extraction_is_exact_for_x_independent_families():
    got = insertion_from_permuton(uniform_grid(64))
    ref = flat_family(64, 64)
    assert got.mt == ref.mt and got.my == ref.my
    worst = max(np.abs(np.asarray(a) - np.asarray(b)).max()
                for a, b in zip(got.cols, ref.cols))
    assert worst <= 1e-12


def test_extraction_converges_to_conditional_density():
    r = -2.0
    errs = {}
    for m in (64, 128):
        fam = insertion_from_permuton(star12_grid(r, m))
        rel = 0.0
        for j, col in enumerate(fam.cols):
            x = (j + 0.5) / fam.mt
            col = np.asarray(col)
            ref = band_average_reference(r, x, col.size)
            rel = max(rel, float(np.max(np.abs(col - ref) / ref)))
        errs[m] = rel
    # cell averaging in x dominates: O(1/m), halving under refinement
    assert errs[64] <= 1e-2
    assert errs[128] <= 0.6 * errs[64]


def test_extraction_entropy_tracks_grid_entropy():
    r = -3.0
    for m, bound in ((32, 3e-3), (64, 1e-3), (128, 3e-4)):
        g = star12_grid(r, m)
        fam = insertion_from_permuton(g)
        assert abs(insertion_entropy(fam) - entropy_grid(g)) <= bound


def test_extraction_rejects_non_invertible_cdf():
    g = grid_from_permutation(Permutation(np.arange(1, 9)))
    with pytest.raises(ValueError, match="column"):
        insertion_from_permuton(g)


@pytest.mark.parametrize("r", [-4.0, -1.0, 1.0, 4.0])
def test_round_trip_reconstruction(r):
    fam = star_family(STAR12, (-r,), 64, 64)
    res = reconstruct(fam, 32)
    assert res.grid.m == 32
    assert rect_distance(res.grid, star12_grid(r, 32)) <= 0.02
    assert res.correction < 1e-3


def test_reconstruction_of_flat_family_is_uniform():
    res = reconstruct(flat_family(64, 64), 16)
    assert np.abs(res.grid.w - 1.0 / 256.0).max() <= 1e-6
    assert res.correction < 1e-6


@pytest.mark.parametrize("fam, m_out, step", [
    (flat_family(8, 8), 4, 1.0 / 512),
    (star_family(STAR12, (3.0,), 16, 24), 8, 1.0 / 512),
    (star_family(STAR12, (-2.0,), 32, 32), 2, 1.0 / 512),
    # my > 8 m_out: the longer rows of the right columns pad the others
    (star_family(STAR12, (-1.0,), 4, 32), 2, 1.0 / 64),
])
def test_shared_time_grid_matches_per_column_steps(fam, m_out, step):
    res = reconstruct(fam, m_out, step=step)
    ref, correction = per_column_reference(fam, m_out, step)
    assert np.array_equal(res.grid.w, ref.w)
    assert res.correction == correction


def test_unaligned_time_grid_stays_within_rk4_error():
    # mt = 6 puts no midpoint on the 1/512 grid: each column reaches its
    # first node by one partial step, and the grids agree to the RK4
    # truncation error
    fam = star_family(STAR12, (3.0,), 6, 6)
    res = reconstruct(fam, 4)
    ref, correction = per_column_reference(fam, 4)
    assert np.abs(res.grid.w - ref.w).max() <= 1e-7
    assert abs(res.correction - correction) <= 1e-6
    # the coarsest step still works: two nodes, at 1/2 and 1
    coarse = reconstruct(fam, 4, step=0.5)
    assert rect_distance(coarse.grid, ref) <= 1e-2


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 16), st.integers(1, 24), st.integers(0, 2**32 - 1))
def test_family_csv_round_trip(mt, my, seed):
    # 17 significant digits reproduce every float64 exactly
    rng = np.random.default_rng(seed)
    cols = []
    for x in (np.arange(mt) + 0.5) / mt:
        f = rng.uniform(0.1, 1.0, size=column_cells(x, my))
        cols.append(f / (f.sum() * (x / f.size)))
    fam = InsertionFamily(mt, my, tuple(cols))
    text = family_to_csv(fam)
    assert text.splitlines()[0] == f"mt={mt},my={my}"
    back = family_from_csv(text)
    assert back.mt == fam.mt and back.my == fam.my
    assert all(np.array_equal(a, b) for a, b in zip(fam.cols, back.cols))


def test_family_csv_rejects_malformed_input():
    with pytest.raises(ValueError):
        family_from_csv("not a header\n1,1,1\n")
    fam = flat_family(4, 4)
    text = family_to_csv(fam)
    # drop one data line: the column lengths no longer match the header
    lines = text.splitlines()
    with pytest.raises(ValueError):
        family_from_csv("\n".join(lines[:-1]) + "\n")
    # a header key missing, or a data line short of a field, is named
    for head in ("mt=4", "mt=4,mt=4", "mt=4,m=4"):
        with pytest.raises(ValueError, match="has no 'my=<int>' entry"):
            family_from_csv("\n".join([head, *lines[1:]]) + "\n")
    with pytest.raises(ValueError, match="data line 2 has 2 fields, expected 3"):
        family_from_csv("\n".join([lines[0], lines[1], "1,2", *lines[3:]]) + "\n")
    with pytest.raises(ValueError, match="data line 1 has 4 fields, expected 3"):
        family_from_csv("\n".join([lines[0], lines[1] + ",0", *lines[2:]]) + "\n")
    # non-finite densities: the constructor rejects them, and so the parser
    for bad in (np.nan, np.inf, -np.inf):
        cols = [np.array(c) for c in fam.cols]
        cols[0][0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            InsertionFamily(fam.mt, fam.my, tuple(cols))
    with pytest.raises(ValueError, match="non-finite"):
        family_from_csv("\n".join([lines[0], "1,1,nan", *lines[2:]]) + "\n")
    # an index or density that does not parse is named by its data line
    for line, match in (("1.5,1,1", r"data line 2: invalid literal for int\(\) .* '1\.5'"),
                        ("1,1,abc", "data line 2: could not convert string to float: 'abc'")):
        with pytest.raises(ValueError, match=match):
            family_from_csv("\n".join([lines[0], lines[1], line, *lines[3:]]) + "\n")
    # a triple outside the layout, or one given twice where another is missing
    with pytest.raises(ValueError, match=r"triple \(5, 1\) outside the family layout"):
        family_from_csv("\n".join([lines[0], "5,1,1", *lines[2:]]) + "\n")
    with pytest.raises(ValueError, match="missing triples"):
        family_from_csv("\n".join([lines[0], lines[1], lines[1], *lines[3:]]) + "\n")
    # a complete file with one triple given twice: the later line once
    # overwrote the earlier one, so this parsed to the original family
    changed = "\n".join([lines[0], "1,1,5", *lines[2:], lines[1]]) + "\n"
    with pytest.raises(ValueError, match=r"triple \(1, 1\) appears more than once"):
        family_from_csv(changed)
    # the layout and each column's mass: column 0 has 8 cells, column 3 14
    cols = list(flat_family(4, 16).cols)
    for args, match in (((0, 16, ()), "resolutions must be >= 1"),
                        ((4, 16, cols[:3]), "expected 4 columns, got 3"),
                        ((4, 16, cols[3:] + cols[1:]), r"column 0 must have 8 cells, got \(14,\)"),
                        ((4, 16, [2 * cols[0]] + cols[1:]),
                         "column 0 mass 2.0000000000 deviates from 1 beyond 1e-08")):
        with pytest.raises(ValueError, match=match):
            InsertionFamily(*args)


@pytest.mark.parametrize("head,key,value", [
    ("mt=8,my=2.5", "my", "2.5"), ("mt=2.5,my=8", "mt", "2.5"), ("mt=,my=8", "mt", ""),
    ("mt=8,my=eight", "my", "eight"),
])
def test_family_csv_header_count_names_the_field_and_header(head, key, value):
    with pytest.raises(ValueError) as exc:
        family_from_csv(head + "\n" + "1,1,1\n" * 8)
    assert str(exc.value) == (
        f"family CSV header {head!r}: {key} must be an integer, got {value!r}")


def test_family_csv_refuses_a_short_file_before_allocating():
    # the header's layout once was allocated first: 3.4 s for mt = 2,000,000
    # and a MemoryError for 10^12 columns, which the CLI does not catch
    for head in ("mt=2000000,my=1", "mt=1000000000000,my=1", "mt=1,my=1000000000000"):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="fewer than the .* layout needs"):
            family_from_csv(head + "\n" + "1,1,1\n" * 8)
        assert time.perf_counter() - t0 < 0.1


def test_reconstruct_validates_arguments():
    fam = flat_family(8, 8)
    with pytest.raises(ValueError):
        reconstruct(fam, 0)
    with pytest.raises(ValueError):
        reconstruct(fam, 8, step=0.0)
    # one column leaves the field nothing to interpolate between
    with pytest.raises(ValueError, match="mt >= 2"):
        reconstruct(flat_family(1, 8), 4)


def test_reconstruct_refuses_a_fractional_resolution_by_name():
    with pytest.raises(ValueError, match="m_out must be an integer"):
        reconstruct(flat_family(8, 8), 8.5)


def test_family_refuses_fractional_resolutions_by_name():
    with pytest.raises(ValueError, match="my must be an integer, got 2.5"):
        flat_family(8, 2.5)
    with pytest.raises(ValueError, match="mt must be an integer, got 8.0"):
        star_family(STAR12, (-1.0,), 8.0, 8)
    with pytest.raises(ValueError, match="my must be an integer, got True"):
        InsertionFamily(8, True, flat_family(8, 8).cols)
    # numpy integers are counts; they are stored as Python ints, so the CSV
    # header round-trips
    fam = star_family(STAR12, (-1.0,), np.int64(8), np.int32(8))
    assert type(fam.mt) is int and type(fam.my) is int
    text = family_to_csv(fam)
    assert text.startswith("mt=8,my=8\n") and family_to_csv(family_from_csv(text)) == text


def _pchip_matches_scipy(x, y):
    at = np.clip(np.concatenate([np.linspace(x[0] - 1.0, x[-1] + 1.0, 101), x,
                                 (x[1:] + x[:-1]) / 2]), x[0], x[-1])
    out = _pchip(x, y, at)
    assert out.tobytes() == np.asarray(PchipInterpolator(x, y)(at)).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(1e-6, 10.0),
                          st.one_of(st.just(0.0), st.floats(-5.0, 5.0))),
                min_size=2, max_size=30),
       st.floats(-100.0, 100.0))
def test_pchip_is_scipys_bit_for_bit(steps, x0):
    # positive gaps give strictly increasing x; zero rises give flat runs,
    # mixed signs give secants that change sign
    gaps, rises = zip(*steps)
    _pchip_matches_scipy(x0 + np.cumsum((0.0, *gaps)), np.cumsum((0.0, *rises)))


@pytest.mark.parametrize("x,y", [
    ([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]),
    ([0.0, 0.1, 1.0], [0.0, 0.0, 1.0]),
    ([0.0, 0.5, 1.0], [0.0, 0.9, 1.0]),
    ([-1.0, 0.0, 3.0], [2.0, -1.0, -1.0]),
    ([0.0, 1e-9, 1.0], [1.0, 1.0, 1.0]),
], ids=["peak", "flat-then-rise", "monotone", "fall-then-flat", "constant"])
def test_pchip_on_three_points_is_scipys(x, y):
    _pchip_matches_scipy(np.array(x), np.array(y))

"""Insertion families: extraction, entropy functional, and reconstruction.

The conditional insertion density of the one-parameter ascent model is
r e^(-r y) / (1 - e^(-r x)) on y in [0, x], whose band averages follow from
the truncated-exponential CDF.  Extraction from a density grid sees cell
averages in x as well, so its error is O(1/m) and halves when the grid is
refined; for x-independent families (the uniform permuton) the column
averages are exact and extraction must return the flat family to machine
precision.  The entropy functional evaluated on the exact family must match
the closed-form model entropy, and transporting the family back to a grid
must land within rectangle distance of the model grid while reporting a
sub-1e-3 marginal correction.
"""

import numpy as np
import pytest

from permutons import (
    InsertionFamily,
    Permutation,
    entropy_grid,
    family_from_csv,
    family_to_csv,
    flat_family,
    grid_from_permutation,
    insertion_entropy,
    insertion_from_permuton,
    reconstruct,
    rect_distance,
    star12_entropy,
    star12_family,
    star12_grid,
    uniform_grid,
)


def band_average_reference(r, x, ny):
    edges = np.arange(ny + 1) * (x / ny)
    F = -np.expm1(-r * edges) / -np.expm1(-r * x)
    return np.diff(F) / (x / ny)


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
    for fam in (flat_family(32, 32), star12_family(-2.0, 32, 48)):
        for j, col in enumerate(fam.cols):
            x = (j + 0.5) / fam.mt
            col = np.asarray(col)
            assert col.min() > 0.0
            # each column integrates to 1 over its support [0, x]
            assert np.sum(col) * (x / col.size) == pytest.approx(
                1.0, abs=1e-12)


def test_star_family_matches_band_averages():
    fam = star12_family(-2.0, 64, 64)
    for j in (0, 10, 40, 63):
        x = (j + 0.5) / 64.0
        col = np.asarray(fam.cols[j])
        ref = band_average_reference(-2.0, x, col.size)
        assert np.max(np.abs(col - ref) / ref) <= 1e-10


def test_insertion_entropy_matches_closed_form():
    for r in (-2.0, -6.0):
        fam = star12_family(r, 512, 512)
        assert abs(insertion_entropy(fam) - star12_entropy(r)) <= 1e-5


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
    fam = star12_family(r, 64, 64)
    res = reconstruct(fam, 32)
    assert res.grid.m == 32
    assert rect_distance(res.grid, star12_grid(r, 32)) <= 0.02
    assert res.correction < 1e-3


def test_reconstruction_of_flat_family_is_uniform():
    res = reconstruct(flat_family(64, 64), 16)
    assert np.abs(res.grid.w - 1.0 / 256.0).max() <= 1e-6
    assert res.correction < 1e-6


def test_family_csv_round_trip():
    fam = star12_family(-2.5, 16, 24)
    text = family_to_csv(fam)
    assert text.splitlines()[0] == "mt=16,my=24"
    back = family_from_csv(text)
    assert back.mt == fam.mt and back.my == fam.my
    worst = max(np.abs(np.asarray(a) - np.asarray(b)).max()
                for a, b in zip(fam.cols, back.cols))
    assert worst <= 1e-12


def test_family_csv_rejects_malformed_input():
    with pytest.raises(ValueError):
        family_from_csv("not a header\n1,1,1\n")
    fam = flat_family(4, 4)
    text = family_to_csv(fam)
    # drop one data line: the column lengths no longer match the header
    lines = text.splitlines()
    with pytest.raises(ValueError):
        family_from_csv("\n".join(lines[:-1]) + "\n")
    # non-finite densities: the constructor rejects them, and so the parser
    for bad in (np.nan, np.inf, -np.inf):
        cols = [np.array(c) for c in fam.cols]
        cols[0][0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            InsertionFamily(fam.mt, fam.my, tuple(cols))
    with pytest.raises(ValueError, match="non-finite"):
        family_from_csv("\n".join([lines[0], "1,1,nan", *lines[2:]]) + "\n")


def test_reconstruct_validates_arguments():
    fam = flat_family(8, 8)
    with pytest.raises(ValueError):
        reconstruct(fam, 0)
    with pytest.raises(ValueError):
        reconstruct(fam, 8, step=0.0)

"""Measure containers, metrics, and samplers.

Oracles used here are closed-form: permutation grids place mass 1/n on n
cells so their CSV round trip is exact; the identity and reversal grids at
m = 2 have CDF values 1/2 and 0 at the center node, giving a known L-inf
distance; coarsening sums cell masses so total mass and marginals are
preserved bit-for-bit up to summation error; samplers are checked against
the uniform law with seeded generators and 4-sigma bands, and the cell and
segment draw against the Generator.choice sampler it replaced.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutons import (
    MARGINAL_TOL,
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


def test_grid_validation_rejects_bad_marginals():
    with pytest.raises(ValueError):
        GridPermuton(np.full((4, 4), 0.3))
    w = np.full((3, 3), 1.0 / 9.0)
    w[0, 0] += 1e-6
    with pytest.raises(ValueError):
        GridPermuton(w)
    with pytest.raises(ValueError):
        GridPermuton(np.full((2, 3), 1.0 / 6.0))
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
    with pytest.raises(ValueError):
        rect_distance(g, c)


def test_rebalance_marginals_projects():
    rng = np.random.default_rng(3)
    w = rng.uniform(0.1, 1.0, size=(6, 6))
    out = rebalance_marginals(w)
    assert np.abs(out.sum(axis=0) - 1.0 / 6.0).max() <= 1e-12
    assert np.abs(out.sum(axis=1) - 1.0 / 6.0).max() <= 1e-12
    assert out.min() > 0.0
    # already-balanced input is a fixed point
    again = rebalance_marginals(out)
    assert np.abs(again - out).max() <= 1e-14
    # a NaN or infinite cell is refused before the first sweep
    for bad in (np.nan, np.inf, -np.inf):
        w = np.full((8, 8), 1.0 / 64)
        w[3, 5] = bad
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="non-finite"):
            rebalance_marginals(w)
        assert time.perf_counter() - t0 < 0.1


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


def test_sample_permutation_tracks_source():
    # sampling the identity permuton must give the identity permutation
    pi = sample_permutation(gamma_ab(1.0, 0.0), 40, seed=8)
    assert np.array_equal(pi.values, np.arange(1, 41))


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
    from permutons.core import _draw
    w = np.array([0.0, 0.25, 0.0, 0.0, 0.125, 0.125, 0.5, 0.0, 1e-12])
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    u = np.concatenate([cdf[cdf < 1.0], np.arange(16) / 16, [np.nextafter(1.0, 0.0)]])
    assert np.array_equal(_draw(w, u), cdf.searchsorted(u, side="right"))


def test_draw_on_a_large_table_is_searchsorted():
    # 512 x 512 cells, B = 2^18 buckets: random uniforms, every bucket edge
    # b / B and the largest uniform below 1
    from permutons.core import _draw
    rng = np.random.default_rng(3)
    w = rng.random(512 * 512)
    w[rng.random(w.size) < 0.3] = 0.0
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    u = np.concatenate([rng.random(10 ** 5), np.arange(1 << 18) / (1 << 18),
                        [np.nextafter(1.0, 0.0)]])
    assert np.array_equal(_draw(w, u), cdf.searchsorted(u, side="right"))
    # bucket indices are int32: 2^31 categories are refused up front (a
    # broadcast view, so nothing of that size is allocated)
    with pytest.raises(ValueError, match="categories"):
        _draw(np.broadcast_to(1.0, (1 << 31,)), u)


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

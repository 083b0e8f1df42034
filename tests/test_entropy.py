"""Grid entropy, refinement limits, and the smoothing semigroup.

Closed-form anchors: the uniform grid has entropy exactly 0; a permutation
grid has n cells of density n, so its entropy is exactly -log n; coarsening
averages densities, and -g log g is concave, so entropy can only grow under
coarsening (refinement sequences are nonincreasing).  Smoothing by the
separable heat semigroup damps Fourier modes; constant marginals live in
the modes the flow never touches, so marginals survive to machine
precision, and the flow moves every grid toward uniform, the entropy
maximizer.  The flow runs through numpy's FFT of the mirrored grid; a
property test holds it to the same flow through scipy's DCT-II.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutons import (
    GridPermuton,
    Permutation,
    coarsen,
    entropy_grid,
    grid_from_permutation,
    heat_flow,
    rebalance_marginals,
    riemann_refinement,
    star12_entropy,
    star12_grid,
    uniform_grid,
)


def random_grid(m, rng):
    w = rng.uniform(0.2, 1.0, size=(m, m))
    return GridPermuton(rebalance_marginals(w))


def test_uniform_entropy_is_exact_zero():
    # 1/m^2 * m^2 rounds to 1 exactly when m is a power of two
    for m in (1, 2, 16, 64, 128):
        h = entropy_grid(uniform_grid(m))
        assert h == 0.0
        assert np.signbit(h) == False  # noqa: E712  (reject -0.0)
    # other m keep a last-ulp log residue at worst
    assert abs(entropy_grid(uniform_grid(7))) <= 1e-15


def test_permutation_grid_entropy():
    for n in (2, 10, 57):
        pi = Permutation(np.random.default_rng(n).permutation(
            np.arange(1, n + 1)))
        h = entropy_grid(grid_from_permutation(pi))
        assert abs(h - (-np.log(n))) <= 1e-12


def test_entropy_nonpositive_and_zero_only_at_uniform():
    rng = np.random.default_rng(2)
    for m in (3, 6, 12):
        g = random_grid(m, rng)
        assert entropy_grid(g) < 0.0


def test_entropy_against_direct_sum():
    rng = np.random.default_rng(4)
    g = random_grid(5, rng)
    ref = -np.sum(g.w * np.log(g.w * 25.0))
    assert entropy_grid(g) == pytest.approx(ref, abs=1e-13)


def test_coarsening_increases_entropy():
    rng = np.random.default_rng(6)
    g = random_grid(16, rng)
    assert entropy_grid(coarsen(g, 8)) >= entropy_grid(g) - 1e-13
    assert entropy_grid(coarsen(g, 4)) >= entropy_grid(coarsen(g, 8)) - 1e-13


def test_riemann_refinement_decreases_to_limit():
    r = -3.0
    g = star12_grid(r, 128)
    rows = riemann_refinement(g, [8, 16, 32, 64, 128])
    ms = [m for m, _ in rows]
    hs = [h for _, h in rows]
    assert ms == [8, 16, 32, 64, 128]
    assert all(a >= b - 1e-13 for a, b in zip(hs, hs[1:]))
    # every step-measure entropy upper-bounds the smooth limit
    target = star12_entropy(r)
    assert all(h >= target - 1e-12 for h in hs)
    assert abs(hs[-1] - target) <= 1.0 / 128.0


def test_riemann_refinement_validates_levels():
    g = uniform_grid(8)
    with pytest.raises(ValueError):
        riemann_refinement(g, [3])
    # a fractional level was once truncated: [2.5] gave [(2, H)]
    for bad in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="level must be an integer"):
            riemann_refinement(g, [bad])
    ((level, h),) = riemann_refinement(g, [np.int64(4)])
    assert type(level) is int and (level, h) == (4, 0.0)


def test_heat_flow_preserves_marginals_exactly():
    rng = np.random.default_rng(8)
    g = random_grid(32, rng)
    out = heat_flow(g, 0.05)
    assert np.abs(out.w.sum(axis=0) - 1.0 / 32.0).max() <= 1e-12
    assert np.abs(out.w.sum(axis=1) - 1.0 / 32.0).max() <= 1e-12


def test_heat_flow_entropy_nondecreasing():
    rng = np.random.default_rng(10)
    g = random_grid(16, rng)
    h = entropy_grid(g)
    for t in (0.01, 0.05, 0.2, 1.0):
        h2 = entropy_grid(heat_flow(g, t))
        assert h2 >= h - 1e-12
        h = h2


def test_heat_flow_semigroup():
    rng = np.random.default_rng(12)
    g = random_grid(16, rng)
    one = heat_flow(g, 0.3)
    two = heat_flow(heat_flow(g, 0.1), 0.2)
    assert np.abs(one.w - two.w).max() <= 1e-8


def test_heat_flow_long_time_is_uniform():
    rng = np.random.default_rng(14)
    g = random_grid(8, rng)
    out = heat_flow(g, 50.0)
    assert np.abs(out.w - 1.0 / 64.0).max() <= 1e-10


def test_heat_flow_mode_cutoff():
    # keeping only the constant mode projects straight to the uniform grid
    rng = np.random.default_rng(16)
    g = random_grid(8, rng)
    out = heat_flow(g, 0.0, j_max=1, k_max=1)
    assert np.abs(out.w - 1.0 / 64.0).max() <= 1e-12
    # t = 0 with no cutoff is the identity
    same = heat_flow(g, 0.0)
    assert np.abs(same.w - g.w).max() <= 1e-13


def test_heat_flow_huge_time_is_uniform_without_warnings():
    # t (j^2 + k^2) overflows to inf for every mode but the constant one
    g = random_grid(8, np.random.default_rng(18))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = heat_flow(g, 1e308)
    assert np.abs(out.w - 1.0 / 64.0).max() <= 1e-16


def _dct_heat_flow(g, t, j_max, k_max):
    """The flow through scipy's orthonormal DCT-II, written out as the reference."""
    from scipy.fft import dctn, idctn

    m = g.m
    modes = np.arange(m)
    damp = np.exp(-t * (modes[:, None] ** 2 + modes[None, :] ** 2))
    j_max = m if j_max is None else min(j_max, m)
    k_max = m if k_max is None else min(k_max, m)
    damp = damp * (modes[:, None] < j_max) * (modes[None, :] < k_max)
    w2 = idctn(dctn(g.density(), norm="ortho") * damp, norm="ortho") / (m * m)
    return rebalance_marginals(np.where(w2 < 0, 0.0, w2))


CUTOFFS = {"none": lambda m: None, "one": lambda m: 1,
           "m-1": lambda m: max(m - 1, 1), "past m": lambda m: m + 3}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
       st.sampled_from(sorted(CUTOFFS)), st.sampled_from(sorted(CUTOFFS)),
       st.integers(0, 2**32 - 1))
def test_heat_flow_is_the_cosine_flow(m, t, j_cut, k_cut, seed):
    g = random_grid(m, np.random.default_rng(seed))
    j_max, k_max = CUTOFFS[j_cut](m), CUTOFFS[k_cut](m)
    want = _dct_heat_flow(g, t, j_max, k_max)
    assert np.abs(heat_flow(g, t, j_max, k_max).w - want).max() <= 1e-14 * want.max()


def test_heat_flow_spec_validation():
    g = random_grid(4, np.random.default_rng(20))
    # NaN and inf once passed and failed later on the flowed cell masses
    for t in (-0.1, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="diffusion time must be finite and nonnegative"):
            heat_flow(g, t)
    with pytest.raises(ValueError):
        heat_flow(g, 0.0, j_max=0)
    heat_flow(g, 0.0, j_max=3, k_max=None)
    # a fractional cutoff once acted as the next integer
    for name in ("j_max", "k_max"):
        for bad in (2.5, 3.0, True):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                heat_flow(g, 0.0, **{name: bad})
    # a numpy integer cutoff flows as the equal int does, bit for bit
    for name in ("j_max", "k_max"):
        want = heat_flow(g, 0.05, **{name: 3}).w
        assert np.array_equal(heat_flow(g, 0.05, **{name: np.int64(3)}).w, want)

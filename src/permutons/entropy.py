"""Permuton entropy, refinement diagnostics, and heat-flow smoothing.

The entropy of a permuton with density g is H = -int g log g over the unit
square; by Jensen it is <= 0 with equality only for the uniform measure, and
it is -infinity for singular permutons.  For the step permuton of a cell-mass
grid w the density is m^2 w, so

    H(gamma^m) = -sum_ij w_ij log(m^2 w_ij).

Coarsening a grid averages cells, and -x log x is concave, so H(gamma^m) is
nonincreasing as m refines toward the underlying measure; tracking H along a
divisor chain (``riemann_refinement``) shows convergence for absolutely
continuous permutons and logarithmic divergence for singular ones (for a
permutation grid, H = -log n exactly).

Heat flow smooths a grid by damping its discrete cosine modes:

    g_t(j, k) = g_0(j, k) * exp(-(j^2 + k^2) t).

The cosine basis (DCT-II, Neumann boundary) is the eigensystem of the grid
Laplacian with zero-flux boundaries, and uniform marginals are equivalent to
the vanishing of all pure modes g(j, 0), g(0, k) for j, k > 0 -- the damping
multiplies zeros there, so marginals are preserved automatically.  The
DCT-II is the DFT of the half-sample mirror (Ahmed, Natarajan and Rao,
IEEE Trans. Computers C-23, 1974): bin (j, k) of the 2m x 2m mirrored
grid is cosine mode (min(j, 2m - j), k) times a phase that the real,
mirror-symmetric damping leaves alone.  Mode truncation can introduce
slightly negative cells; those are clipped, and ``rebalance_marginals``
restores the marginals if they moved.
"""

from __future__ import annotations

import math

import numpy as np

from .core import GridPermuton, _as_count, coarsen, rebalance_marginals


def entropy_grid(g: GridPermuton) -> float:
    """H of the step permuton: -sum w log(m^2 w), with 0 log 0 = 0.

    The log argument is formed as w * (m*m) so that near-uniform grids (where
    w * m^2 = 1 exactly in floating point) give entropy exactly 0 rather than
    an accumulation of rounding residue.
    """
    w = g.w
    pos = w > 0
    # + 0.0 normalizes -0.0 so the uniform grid reports exactly 0
    return float(-np.sum(w[pos] * np.log(w[pos] * (g.m * g.m))) + 0.0)


def riemann_refinement(g: GridPermuton, levels) -> list[tuple[int, float]]:
    """Entropy of the coarsened grid at each resolution in ``levels``.

    Every level must be an integer (numpy integers included, bools not) that
    divides g.m.  Along increasing levels the sequence is nonincreasing
    (block averaging can only raise -x log x sums).
    """
    out = []
    for m2 in levels:
        m2 = _as_count(m2, "level")
        out.append((m2, entropy_grid(coarsen(g, m2))))
    return out


def heat_flow(g: GridPermuton, t: float, j_max: int | None = None,
              k_max: int | None = None) -> GridPermuton:
    """Damp cosine modes by exp(-(j^2+k^2) t), clip, and rebalance.

    Modes j >= j_max and k >= k_max are dropped; the default cutoffs keep
    all m modes.  t must be finite and nonnegative, and a cutoff an integer
    (numpy integers included, bools not) >= 1; anything else raises
    ValueError.
    """
    # NaN and inf pass a plain t < 0 test and make exp(-t * 0) NaN
    if not 0 <= t < math.inf:
        raise ValueError("diffusion time must be finite and nonnegative")
    cuts = []
    for name, c in (("j_max", j_max), ("k_max", k_max)):
        if c is not None:
            c = _as_count(c, name)
            if c < 1:
                raise ValueError("mode cutoffs must be >= 1")
        cuts.append(c)
    m = g.m
    f = np.fft.fft(np.fft.rfft(np.pad(g.density(), (0, m), mode="symmetric")), axis=0)
    j = np.minimum(np.arange(2 * m), np.arange(2 * m, 0, -1))[:, None]
    k = np.arange(m + 1)
    # a huge t overflows t (j^2 + k^2) to inf, and exp(-inf) = 0 is the damping
    with np.errstate(over="ignore"):
        damp = np.exp(-t * (j ** 2 + k ** 2))
    # bin m of either axis is cosine mode m, which is zero: every cutoff drops it
    damp = damp * (j < min(cuts[0] or m, m)) * (k < min(cuts[1] or m, m))
    # rfft2 and irfft2, but only the m rows kept go through the last inverse
    w2 = np.fft.irfft(np.fft.ifft(f * damp, axis=0)[:m])[:, :m] / (m * m)
    return GridPermuton(rebalance_marginals(np.where(w2 < 0, 0.0, w2)))

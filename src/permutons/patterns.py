"""Pattern densities of permutations and permutons, exact and Monte Carlo.

The density rho_tau(gamma) of a pattern tau in S_k is the probability that k
i.i.d. points of the permuton gamma, sorted by x-coordinate, have y-values
ordered like tau.  For a step permuton with cell masses w this probability is
a polynomial in the entries of w, and for k <= 3 it is computed here exactly
in O(m^2) as follows.

Fix one point P in cell (i, j) with local offsets (u, v) in [0,1]^2.  The
masses of the four quadrants cut by P are affine in (u, v, uv):

    A = G(x, y)             (points below-left, CDF value)
    B = 1 - x - y + G       (above-right)
    C = x - G               (left-above)
    D = y - G               (right-below)

with coefficient fields in the cell built from three prefix-sum channels of
w (strict 2-D prefix, strict same-row prefix, strict same-column prefix) and
w itself.  A pattern probability is an expectation over P ~ gamma of products
of quadrant masses, e.g.

    rho_123 = 6 * E[A(P) B(P)],    rho_**3 = rho_123 + rho_213 = 3 * E[A(P)^2],

and for each cell the expectation of a product of two affine forms over
(u, v) ~ uniform reduces to a fixed 4x4 moment table of the basis
(1, u, v, uv).  Same-cell coincidences (two or three points in one cell) are
handled exactly by the same algebra: the uv channel carries precisely the
within-cell conditional probabilities, which is why the six length-3
densities sum to exactly 1.

The same structure yields the analytic gradient d rho / d w: the quadrant
coefficient fields are linear in w through prefix sums, so the adjoint is a
sum of suffix scans of weighted channel products.  Differentiating once
more gives the Hessian of any weighted sum of densities as a fixed linear
operator (``_hessian_operator``): a prefix scan, a 4 x 4 mix and a suffix
scan per product.  Gradients and Hessian-vector products power the
constrained entropy optimizer.

``densities`` evaluates a list of patterns on one grid: it builds the
channels once and evaluates each distinct quadrant term E[P Q], with its
gradient, once for all the patterns that use it.  Every density is a fixed
sum of such terms (the table ``_TERMS``), added in the same order
whatever else is in the list, so a batched value or gradient is bitwise the
one computed for its pattern alone.  The CLI sidecar gets its eight
densities from one ``densities`` call.

Monte Carlo densities draw k points per trial, 200,000 trials at a time,
in one loop (``_trial_hits``) that also serves the staircase sweep in
``regions``, and report the binomial standard error.  One matcher,
``_matches``, decides which rows of k points realize a pattern, for these
trials and for ``pattern_count``.  The identity and reversal patterns (12,
21, 123, 321, ...) take no ranks: a row realizes one exactly when each
pair of points compares the same way in x and in y, or the opposite way
(``_pairs_agree``).  Every other pattern is ranked by pairwise comparison,
in the narrowest integer type that holds k.  The subset estimator
(n_points > k) draws each trial as ``sample_permutation`` does and counts
the C(n, k) subsets of many trials in one blocked pass (``_subset_counts``),
of which ``pattern_count`` is the one-permutation case.  Both estimators
draw from the table the source permuton keeps, which its first draw builds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (GridPermuton, Permutation, SegmentPermuton, _as_count, _sampler_of,
                   sample_points)

# E[(basis_a)(basis_b)] over (u,v) uniform in the unit cell, basis (1,u,v,uv).
_BIL = np.array([
    [1.0, 1 / 2, 1 / 2, 1 / 4],
    [1 / 2, 1 / 3, 1 / 4, 1 / 6],
    [1 / 2, 1 / 4, 1 / 3, 1 / 6],
    [1 / 4, 1 / 6, 1 / 6, 1 / 9],
])


@dataclass(frozen=True)
class PatternSpec:
    """A pattern: explicit one-line values, or a star class *...*ell.

    The star class (k, ell) is the set of tau in S_k whose last symbol is
    ell, i.e. the final point has rank ell among the k points.
    """

    values: tuple[int, ...] | None = None
    star: tuple[int, int] | None = None

    def __post_init__(self):
        if (self.values is None) == (self.star is None):
            raise ValueError("specify exactly one of explicit values or star class")
        if self.values is not None:
            v = tuple(_as_count(x, "pattern symbol") for x in self.values)
            if not v:
                raise ValueError("a pattern needs at least one symbol")
            if sorted(v) != list(range(1, len(v) + 1)):
                raise ValueError(f"pattern {v} is not a bijection on 1..k")
            object.__setattr__(self, "values", v)
        else:
            k, ell = (_as_count(x, name) for x, name in zip(self.star, ("k", "ell")))
            if not 1 <= ell <= k:
                raise ValueError(f"star class needs 1 <= ell <= k, got ({k}, {ell})")
            object.__setattr__(self, "star", (k, ell))

    @classmethod
    def parse(cls, text: str) -> "PatternSpec":
        """Parse CLI syntax: "12", "321" explicit; "*2", "**3" star classes."""
        text = text.strip()
        if text.startswith("*"):
            stars = len(text) - len(text.lstrip("*"))
            rest = text[stars:]
            if not rest.isdigit():
                raise ValueError(f"bad star pattern {text!r}; expected like '**3'")
            return cls(star=(stars + 1, int(rest)))
        if not text.isdigit():
            raise ValueError(f"bad pattern {text!r}; expected digits like '132'")
        return cls(values=tuple(int(ch) for ch in text))

    @property
    def k(self) -> int:
        return len(self.values) if self.values is not None else self.star[0]

    @property
    def label(self) -> str:
        if self.values is not None:
            return "".join(str(v) for v in self.values)
        k, ell = self.star
        return "*" * (k - 1) + str(ell)

    def members(self) -> tuple[tuple[int, ...], ...]:
        """Explicit patterns in the class (the singleton for explicit specs)."""
        if self.values is not None:
            return (self.values,)
        k, ell = self.star
        out = []
        for head in itertools.permutations([v for v in range(1, k + 1) if v != ell]):
            out.append(head + (ell,))
        return tuple(out)


@dataclass(frozen=True)
class DensityEstimate:
    value: float
    stderr: float
    trials: int

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("density must lie in [0, 1]")
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


def pattern_count(pi: Permutation, tau: PatternSpec) -> int:
    """Number of index k-subsets of pi realizing tau (or its star class).

    Enumerates all C(n, k) subsets in blocks of 2^16 index rows, so memory
    stays bounded for any n while the time grows like C(n, k).
    """
    n, k = pi.n, tau.k
    if k > n:
        raise ValueError(f"pattern length {k} exceeds permutation length {n}")
    return int(_subset_counts(pi.values[None, :], tau)[0])


def _subset_counts(values: np.ndarray, tau: PatternSpec) -> np.ndarray:
    """Per row of ``values`` (trials, n), the number of column k-subsets
    whose values realize tau.

    One blocked pass over the C(n, k) subsets serves every row: a block
    holds about 2^16 / trials subsets, so about 2^16 (row, subset) pairs,
    and the x-ranks of a block's index subsets are shared by all rows.
    """
    trials, n = values.shape
    k = tau.k
    subsets = itertools.combinations(range(n), k)
    block = max(1, (1 << 16) // trials)
    counts = np.zeros(trials, dtype=np.intp)
    while (idx := np.fromiter(itertools.islice(subsets, block), (np.intp, k))).size:
        counts += np.count_nonzero(_matches(idx, values[:, idx], tau), axis=1)
    return counts


def _ranks(z: np.ndarray, dtype) -> list[np.ndarray]:
    """Rank of each point z[..., c] among the k points z[..., :], one
    comparison per pair and no sort; ties rank the earlier point lower, so
    the ranks of every k points form a permutation."""
    k = z.shape[-1]
    zero = np.zeros(z.shape[:-1], dtype=dtype)
    rank = [zero] * k
    for i, j in itertools.combinations(range(k), 2):
        below = z[..., i] <= z[..., j]
        rank[j] = rank[j] + below
        rank[i] = rank[i] + ~below
    return rank


def _matches(x: np.ndarray, y: np.ndarray, tau: PatternSpec) -> np.ndarray:
    """Which sets of k points (x[..., :], y[..., :]), in any order, realize
    tau: a boolean mask, the leading axes of x and y broadcast together.

    The point of x-rank a must have y-rank tau[a]; for a star class *...*l
    only the point of x-rank k is checked, against y-rank l.  Ranks
    (``_ranks``) are held in the narrowest integer type that holds k.  The
    identity and the reversal of length k >= 2 skip the ranks: their masks
    come from ``_pairs_agree``.
    """
    k = y.shape[-1]
    if k >= 2 and tau.values in (tuple(range(1, k + 1)), tuple(range(k, 0, -1))):
        return _pairs_agree(x, y, flip=tau.values[0] == k)
    dtype = np.min_scalar_type(k)
    rx, ry = _ranks(x, dtype), _ranks(y, dtype)
    if tau.star is not None:
        ell = tau.star[1]
        return np.any([(a == k - 1) & (b == ell - 1) for a, b in zip(rx, ry)], axis=0)
    want = np.asarray(tau.values, dtype=dtype) - 1
    return np.all([b == want.take(a) for a, b in zip(rx, ry)], axis=0)


def _pairs_agree(x: np.ndarray, y: np.ndarray, flip: bool) -> np.ndarray:
    """Where every pair i < j of the k points compares the same way in x
    and in y, (x_i <= x_j) == (y_i <= y_j), or, with ``flip``, the opposite
    way: the ``_matches`` mask of the identity pattern, or of its reversal.

    Exact with ties too: ``_ranks`` turns each set of pair comparisons into
    a different permutation (the ranks order the points by coordinate, then
    by position), so the x-ranks equal the y-ranks exactly when all pairs
    agree; reversing the ranks flips every comparison.
    """
    shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    ok = np.ones(shape, dtype=bool)
    pair = np.empty(shape, dtype=bool)
    same = np.not_equal if flip else np.equal
    for i, j in itertools.combinations(range(y.shape[-1]), 2):
        np.less_equal(y[..., i], y[..., j], out=pair)
        same(x[..., i] <= x[..., j], pair, out=pair)
        ok &= pair
    return ok


def _prefix(w: np.ndarray) -> np.ndarray:
    """The linear map L: w -> (strict 2-D prefix, strict same-row prefix,
    strict same-column prefix, w), shape (4, m, m).  It is the quadrant
    field A, and the w-linear part of every other quadrant field."""
    m = w.shape[0]
    L = np.zeros((4, m, m))
    col = np.cumsum(w, axis=0)
    L[0, 1:, 1:] = np.cumsum(col, axis=1)[:-1, :-1]  # sum over i' < i, j' < j
    L[1, :, 1:] = np.cumsum(w, axis=1)[:, :-1]        # same row i, j' < j
    L[2, 1:, :] = col[:-1, :]                         # same column j, i' < i
    L[3] = w
    return L


def _channels(w: np.ndarray):
    """Quadrant coefficient fields (4, m, m) for A, B, C, D (see module doc)."""
    m = w.shape[0]
    xi = (np.arange(m) / m)[:, None]    # cell corners, a column and a row
    yj = (np.arange(m) / m)[None, :]
    inv = 1.0 / m
    A = _prefix(w)
    g00, gu, gv = A[0], A[1], A[2]
    B, C, D = np.empty((3, 4, m, m))
    np.add(1.0 - xi - yj, g00, out=B[0])
    np.subtract(gu, inv, out=B[1])
    np.subtract(gv, inv, out=B[2])
    B[3] = w
    np.subtract(xi, g00, out=C[0])
    np.subtract(inv, gu, out=C[1])
    np.negative(gv, out=C[2])
    np.negative(w, out=C[3])
    np.subtract(yj, g00, out=D[0])
    np.negative(gu, out=D[1])
    np.subtract(inv, gv, out=D[2])
    D[3] = C[3]
    U = np.zeros((4, m, m))
    U[0] = 1.0
    return A, B, C, D, U


def _adjoint(T, out):
    """out + L^T T: the adjoint of ``_prefix`` applied to T (4, m, m), a
    strict suffix scan per channel, added to out in channel order."""
    S = np.zeros((3,) + T.shape[1:])
    S[0, :-1, :-1] = T[0, ::-1, ::-1].cumsum(0).cumsum(1)[::-1, ::-1][1:, 1:]
    S[1, :, :-1] = T[1, :, ::-1].cumsum(1)[:, ::-1][:, 1:]
    S[2, :-1, :] = T[2, ::-1, :].cumsum(0)[::-1, :][1:, :]
    return out + S[0] + S[1] + S[2] + T[3]


def _term_field(P, Q, sP: float, sQ: float):
    """R = sP BIL Q + sQ BIL^T P (4, m, m): d q / d w along the prefix
    channels, q = sum_ab BIL_ab P_a Q_b the field of the term E[P Q]."""
    TQ = np.einsum("cb,bij->cij", _BIL, Q)
    TP = np.einsum("ac,aij->cij", _BIL, P)
    return sP * TQ + sQ * TP


# Each explicit k <= 3 pattern density as a sum of coeff * E[P Q] terms over
# the quadrant fields.  _QSIGN is the sign of each field's w-dependent part
# (+1 for A and B, -1 for C and D, 0 for the constant field U), so that
# P = const + sP L(w); the affine parts contribute only through q.
_TERMS = {
    (1,): (),
    (1, 2): ((2.0, "A", "U"),),
    (2, 1): ((2.0, "C", "U"),),
    (1, 2, 3): ((6.0, "A", "B"),),
    (3, 2, 1): ((6.0, "C", "D"),),
    (2, 1, 3): ((3.0, "A", "A"), (-6.0, "A", "B")),
    (1, 3, 2): ((3.0, "B", "B"), (-6.0, "A", "B")),
    (2, 3, 1): ((3.0, "C", "C"), (-6.0, "C", "D")),
    (3, 1, 2): ((3.0, "D", "D"), (-6.0, "C", "D")),
}
_QSIGN = {"A": 1.0, "B": 1.0, "C": -1.0, "D": -1.0, "U": 0.0}


def _terms(tau: PatternSpec):
    """The (coeff, P, Q) terms of tau's density, member by member."""
    return [term for member in tau.members() for term in _TERMS[member]]


def densities(g: GridPermuton, taus, *, grad: bool = False):
    """Exact densities of several k <= 3 patterns of one step permuton.

    Returns ``(values, grads)``: values[i] is the density of taus[i] and,
    with ``grad=True``, grads[i] its analytic gradient d rho / d w (m x m);
    grads is None otherwise.  The quadrant channels are built once, and each
    distinct quadrant term E[P Q] (with its gradient) is evaluated once and
    shared by every pattern that uses it: rho_123 and rho_**3 share E[A B],
    and the eight patterns of length 2 and 3 need 8 terms, not 12.  Each
    pattern adds its own terms in a fixed order, so its value and gradient
    are bitwise those of a call for that pattern alone.
    """
    return _densities(g.w, tuple(taus), grad)


def _densities(w: np.ndarray, taus: tuple, grad: bool):
    # the one-pattern forms call this, not the public name, so a tracer that
    # wraps public functions (perfbench) charges their work to them.  It
    # reads only the cell masses w.
    if any(tau.k > 3 for tau in taus):
        raise ValueError("exact grid densities cover k <= 3 only; use density_mc")
    # a k = 1 pattern keeps density 1 and gradient 0
    values = np.ones(len(taus))
    grads = np.zeros((len(taus),) + w.shape) if grad else None
    fields = None
    terms = {}
    for i, tau in enumerate(taus):
        if tau.k == 1:
            continue
        if fields is None:
            fields = dict(zip("ABCDU", _channels(w)))
        value = 0.0
        for coeff, pn, qn in _terms(tau):
            term = terms.get((pn, qn))
            if term is None:
                # E[PQ] = sum w q, with gradient q + L^T (w R)
                P, Q = fields[pn], fields[qn]
                q = np.einsum("ab,aij,bij->ij", _BIL, P, Q)
                dJ = (_adjoint(w[None] * _term_field(P, Q, _QSIGN[pn], _QSIGN[qn]), q)
                      if grad else None)
                term = terms[pn, qn] = (float(np.sum(w * q)), dJ)
            value += coeff * term[0]
            if grad:
                grads[i] += coeff * term[1]
        values[i] = value
    return values, grads


def _hessian_operator(w: np.ndarray, taus: tuple, weights):
    """The map v -> sum_i weights[i] Hess(rho_{taus[i]})(w) v, exact.

    Every term J = sum w q, q = sum_ab BIL_ab P_a Q_b, has the gradient
    q + L^T (w R) with R = ``_term_field`` and P = const + sP L(w)
    (``_QSIGN``).  Differentiating along v, with L linear and BIL
    symmetric,

        Hess(J) v = sum_c R_c L_c(v) + L^T (v R + 2 sP sQ w BIL L(v)).

    R and the sign products are summed once, weighted by weights[i] times
    the term's coefficient, into one field Rbar (4, m, m) and one scalar;
    each product then costs one prefix map, one 4 x 4 mix and one adjoint,
    however many patterns and terms there are.
    """
    coeffs = {}
    for weight, tau in zip(weights, taus):
        for coeff, pn, qn in _terms(tau):
            coeffs[pn, qn] = coeffs.get((pn, qn), 0.0) + weight * coeff
    fields = dict(zip("ABCDU", _channels(w)))
    rbar = np.zeros((4,) + w.shape)
    sigma = 0.0
    for (pn, qn), c in coeffs.items():
        sP, sQ = _QSIGN[pn], _QSIGN[qn]
        rbar += c * _term_field(fields[pn], fields[qn], sP, sQ)
        sigma += c * sP * sQ
    mix = (2.0 * sigma) * w

    def apply(v: np.ndarray) -> np.ndarray:
        lv = _prefix(v)
        direct = np.einsum("cij,cij->ij", rbar, lv)
        return _adjoint(v * rbar + mix * np.einsum("ab,bij->aij", _BIL, lv), direct)

    return apply


def _trial_hits(source, taus, trials: int, rng: np.random.Generator) -> list[int]:
    """Per pattern of ``taus``, how many trials of k = max tau.k points from
    ``source`` (drawn 200,000 at a time) have first tau.k points that realize it."""
    k = max(tau.k for tau in taus)
    hits = [0] * len(taus)
    for done in range(0, trials, 200_000):
        t = min(200_000, trials - done)
        x, y = sample_points(source, t * k, rng)
        x, y = x.reshape(t, k), y.reshape(t, k)
        for i, tau in enumerate(taus):
            hits[i] += int(np.count_nonzero(_matches(x[:, :tau.k], y[:, :tau.k], tau)))
    return hits


def density_grid_exact(g: GridPermuton, tau: PatternSpec) -> float:
    """Exact pattern density of the step permuton, k <= 3 (module doc)."""
    return float(_densities(g.w, (tau,), False)[0][0])


def density_grid_exact_with_grad(g: GridPermuton, tau: PatternSpec):
    """Exact density and its analytic gradient d rho / d w (same algebra)."""
    (value,), (grad,) = _densities(g.w, (tau,), True)
    return float(value), grad


def density_mc(source: GridPermuton | SegmentPermuton, tau: PatternSpec,
               trials: int, seed: int | np.random.Generator,
               n_points: int | None = None) -> DensityEstimate:
    """Monte-Carlo pattern density.

    With n_points = k (default) each trial draws k points and records the 0/1
    pattern indicator; the standard error is binomial.  With n_points > k the
    per-trial statistic is pattern_count / C(n_points, k) over a sampled
    permutation of n_points points (lower variance, slower per trial).  That
    estimator draws each trial's permutation from the uniforms
    ``sample_permutation`` would take, and counts the subsets of about
    2^16 / C(n_points, k) trials at a time in one blocked pass, so its value
    and stderr are those of a loop over ``sample_permutation`` and
    ``pattern_count``.  Both estimators draw from the table ``source``
    built on its first draw and keeps, so no call rebuilds it.
    trials and n_points must be integers (numpy integers included, bools
    not); anything else raises ValueError.
    """
    trials = _as_count(trials, "trials")
    if trials < 1:
        raise ValueError("need at least one trial")
    k = tau.k
    n_points = k if n_points is None else _as_count(n_points, "n_points")
    if n_points < k:
        raise ValueError("n_points must be at least the pattern length")
    rng = np.random.default_rng(seed)
    if n_points == k:
        value = _trial_hits(source, (tau,), trials, rng)[0] / trials
        stderr = math.sqrt(max(value * (1.0 - value), 0.0) / trials)
        return DensityEstimate(value, stderr, trials)
    # subset-averaged estimator: the draws of sample_permutation; the counts
    # of pattern_count, for about 2^16 (trial, subset) pairs at a time
    sampler = _sampler_of(source)
    total = math.comb(n_points, k)
    chunk = max(1, (1 << 16) // total)
    vals = np.empty(trials)
    for done in range(0, trials, chunk):
        ranks = np.array([sampler.ranks(n_points, rng) for _ in range(min(chunk, trials - done))])
        vals[done:done + len(ranks)] = _subset_counts(ranks, tau) / total
    value = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return DensityEstimate(value, stderr, trials)

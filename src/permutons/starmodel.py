"""Exponential families over insertion processes fixing star-pattern densities.

Star patterns *...*ell fix only the rank of the last point, so their
densities are linear functionals of the insertion measures nu_x: inserting a
point at location t in [0, x] when the current length fraction is x
contributes t^r (x - t)^s / (r! s!) to the density of the star pattern with r
smaller and s larger predecessors (pattern length k = r + s + 1).  Weighting
the insertion process by exp(n * sum_i alpha_i <density_i>) produces an
exponential family whose normalized free energy is

    F(alpha) = 1 + int_0^1 log int_0^x exp(ptilde(t, x)) dt dx,
    ptilde(t, x) = sum_i alpha_i t^{r_i} (x - t)^{s_i} / (r_i! s_i!),

where the additive 1 is the Stirling constant (log n!/n ~ log n - 1) that
makes F(0) = 0.  The substitution t = x u turns each inner integral into a
smooth integral over [0, 1], so fixed Gauss-Legendre quadrature converges
spectrally.  Derivatives have the classical exponential-family form: the
gradient is the integrated tilted expectation of the monomials and the
Hessian is the integrated covariance matrix, hence symmetric positive
definite and F strictly convex in alpha.  The entropy of the constrained
maximizer is the Legendre dual

    H = F(alpha) - sum_i alpha_i dF/dalpha_i,   rho_i = k_i! dF/dalpha_i.

Newton iteration on grad F = rho/k! therefore converges quadratically for
targets strictly inside the feasible region and diverges (|alpha| -> inf)
on its boundary, which the solver reports as an error.

The single-term model (r, s) = (1, 0) is the one-parameter 1 2 model and has
closed forms: with rate r (alpha = -r), the permuton CDF, density, pattern
density rho(r), and entropy H(r) are

    G(x, y) = (1/r) log(1 + (e^{rx}-1)(e^{ry}-1)/(e^r - 1)),
    g(x, y) = r (1 - e^{-r}) / (2 [e^{-rx/2} sinh(r(1-y)/2)
                                  + e^{r(x-1)/2} sinh(ry/2)])^2,
    rho(r)  = [r (r - 2 log(1 - e^r) + 2) - 2 Li2(e^r)] / r^2 + pi^2/(3 r^2),
    H(r)    = -2 Li2(e^r)/r + pi^2/(3r) - 2 log(1-e^r)
              + log((1 - e^r)/(-r)) + 2            (forms for r < 0),

extended to r > 0 by the reflection rho(r) = 1 - rho(-r), H(r) = H(-r) and
to small |r| by Taylor series (the dilogarithm forms lose ~1e-9 to
cancellation near |r| = 1e-3, where the series are exact to 1e-16):

    rho(r) = 1/2 - r/18 + r^3/1800 - r^5/105840 + r^7/5443200 + ...
    H(r)   = -r^2/72 + r^4/4800 - r^6/254016 + r^8/12441600 + ...

rho(r) is strictly decreasing in r (negative rates reward ascents), so the
inverse r(rho) is computed by bisection.

The Mahonian counts C_i of permutations of n by number of 1 2 patterns have
generating function prod_{j=0}^{n-1} (1 + z + ... + z^j); the log-domain
coefficient DP here evaluates it stably to n = 500 for the finite-n
large-deviations checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import spence

from .core import GridPermuton, _as_count, uniform_grid

# Below this the dilogarithm closed forms switch to Taylor series.
_SERIES_SWITCH = 1e-3
# Final bracket width of the star12_r_from_rho bisection.
_BISECT_TOL = 1e-12
# Below this |r| the star12 model is flat to within rounding (its CDF differs
# from xy by O(r)), and expm1(r x) expm1(r y) underflows; the closed forms
# treat such rates as r = 0.
_FLAT_RATE = 1e-100
# Step halvings a damped Newton step may take before solve_star gives up.
_MAX_HALVINGS = 30


class ConvergenceError(RuntimeError):
    """Solver failed to converge; carries the last residual and iterate."""

    def __init__(self, message: str, residual: float, alpha=None):
        super().__init__(message)
        self.residual = residual
        self.alpha = None if alpha is None else np.asarray(alpha)


def _li2(z: float) -> float:
    """Real dilogarithm Li2(z) for z <= 1."""
    return float(spence(1.0 - z))


def star12_rho(r: float) -> float:
    """Density of 1 2 patterns in the one-parameter model; decreasing in r."""
    r = float(r)
    # NaN would recurse through the reflection below without end
    if not math.isfinite(r * r):
        raise ValueError(f"rate r = {r:g} outside the range where r^2 is finite")
    if abs(r) < _SERIES_SWITCH:
        return 0.5 - r / 18 + r ** 3 / 1800 - r ** 5 / 105840 + r ** 7 / 5443200
    if r < 0:
        er = math.exp(r)
        return ((r * (r - 2 * math.log1p(-er) + 2) - 2 * _li2(er)) / r ** 2
                + math.pi ** 2 / (3 * r ** 2))
    return 1.0 - star12_rho(-r)


def star12_entropy(r: float) -> float:
    """Entropy H(r) of the model permuton; even in r, maximal H(0) = 0."""
    r = float(r)
    if abs(r) < _SERIES_SWITCH:
        return -r ** 2 / 72 + r ** 4 / 4800 - r ** 6 / 254016 + r ** 8 / 12441600
    r = -abs(r)
    er = math.exp(r)
    one_minus = -math.expm1(r)
    return (-2 * _li2(er) / r + math.pi ** 2 / (3 * r)
            - 2 * math.log(one_minus) + math.log(one_minus / (-r)) + 2)


def star12_r_from_rho(rho: float) -> float:
    """Invert the strictly decreasing rho(r) by bisection."""
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie strictly inside (0, 1)")
    if rho == 0.5:
        return 0.0
    lo, hi = -1.0, 1.0
    while star12_rho(lo) < rho:
        lo *= 2
        if lo < -1e4:
            raise ValueError(f"rho = {rho} too extreme to bracket")
    while star12_rho(hi) > rho:
        hi *= 2
        if hi > 1e4:
            raise ValueError(f"rho = {rho} too extreme to bracket")
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if star12_rho(mid) > rho:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def star12_cdf(r: float, x, y):
    """Model CDF G(x, y); the expm1/log1p form is cancellation-free for all
    other r, and |r| < 1e-100 returns the uniform limit xy exactly."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if abs(r) < _FLAT_RATE:
        return x * y
    return np.log1p(np.expm1(r * x) * np.expm1(r * y) / np.expm1(r)) / r


def star12_density(r: float, x, y):
    """Model density g(x, y) = d^2 G / dx dy in a relatively accurate form."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if abs(r) < _FLAT_RATE:
        return np.ones(np.broadcast(x, y).shape)
    half = (np.exp(-r * x / 2) * np.sinh(r * (1 - y) / 2)
            + np.exp(r * (x - 1) / 2) * np.sinh(r * y / 2))
    return -r * np.expm1(-r) / (2 * half) ** 2


def star12_grid(r: float, m: int) -> GridPermuton:
    """Step permuton of the model: cell masses from corner CDF differences.

    The corner form keeps the marginals exactly uniform because G(x, 1) = x
    and G(1, y) = y hold to rounding in the expm1 evaluation.  |r| < 1e-100
    returns the uniform grid outright so its entropy is exactly 0.
    """
    if abs(r) < _FLAT_RATE:
        return uniform_grid(m)
    edges = np.linspace(0.0, 1.0, m + 1)
    G = star12_cdf(r, edges[:, None], edges[None, :])
    w = np.diff(np.diff(G, axis=0), axis=1)
    w = np.where(np.abs(w) < 1e-300, 0.0, w)
    if w.min() < -1e-12:
        raise RuntimeError(f"corner differences produced mass {w.min():.3e}")
    return GridPermuton(np.clip(w, 0.0, None))


_MAHONIAN_MAX_N = 500


def mahonian_log_gf(n: int) -> np.ndarray:
    """log C_i, i = 0..C(n,2): permutations of n by number of 1 2 patterns.

    Coefficient DP for prod_{j=0}^{n-1} (1 + z + ... + z^j) in the log
    domain.  Every factor is palindromic, hence so is every partial
    product: each stage computes only its left half, as trailing windows of
    length j + 1 that read no previous entry past it, and mirrors it, so
    the table is exactly palindromic.  The window sums run in the linear
    domain on blocks of j + 1 coefficients scaled by their minima
    (``_window_lse``), so a block sum is at most (j + 1) e^range, range the
    block's spread in log.  That stays below the largest double for
    n <= 500: the Mahonian numbers are log-concave and palindromic, so no
    block spreads more than the first, log C_j <= log binom(2j - 1, j)
    < j log 4, and 499 log 4 + log 500 < 698 < 709.78.  Larger n raise
    ValueError.
    """
    n = _as_count(n, "n")
    if not 1 <= n <= _MAHONIAN_MAX_N:
        raise ValueError(f"n must lie in [1, {_MAHONIAN_MAX_N}]")
    lc = np.zeros(1)
    for j in range(1, n):
        size = lc.size + j
        half = _window_lse(lc[:-(-size // 2)], j)
        lc = np.concatenate([half, half[:size // 2][::-1]])
    return lc


def _window_lse(a: np.ndarray, j: int) -> np.ndarray:
    """out[i] = logsumexp(a[max(0, i-j) .. i]) for finite a.

    Blocks of L = j + 1 entries are scaled by their minima lo_b, so the
    small entries lose nothing to cancellation.  The window ending at
    column c of block b is the strict suffix of block b - 1 after c plus the
    prefix of block b up to c, both plain cumulative sums of exp(a - lo),
    added on the common scale max(lo_{b-1}, lo_b).  Sound while L e^range
    stays below the largest double for every block, range its spread in
    log (mahonian_log_gf)."""
    L = j + 1
    nb = -(-a.size // L)
    e = np.pad(a, (0, nb * L - a.size), mode="edge").reshape(nb, L)
    lo = e.min(axis=1)
    e -= lo[:, None]
    np.exp(e, out=e)
    out = np.cumsum(e, axis=1)
    shift = lo
    if nb > 1:
        # strict suffix sums of the previous block: columns c+1 .. L-1
        suff = np.zeros((nb - 1, L))
        np.cumsum(e[:-1, :0:-1], axis=1, out=suff[:, -2::-1])
        shift = np.concatenate([lo[:1], np.maximum(lo[:-1], lo[1:])])
        suff *= np.exp(lo[:-1] - shift[1:])[:, None]
        out[1:] *= np.exp(lo[1:] - shift[1:])[:, None]
        out[1:] += suff
    np.log(out, out=out)
    out += shift[:, None]
    return out.ravel()[:a.size]


@dataclass(frozen=True)
class StarModel:
    """Exponent pairs and coefficients of ptilde; quad is the node count."""

    terms: tuple[tuple[int, int, float], ...]
    quad: int = 96

    def __post_init__(self):
        terms = tuple((int(r), int(s), float(a)) for r, s, a in self.terms)
        if not terms:
            raise ValueError("model needs at least one term")
        pairs = [(r, s) for r, s, _ in terms]
        if len(set(pairs)) != len(pairs):
            raise ValueError("exponent pairs must be distinct")
        for r, s in pairs:
            if r < 0 or s < 0 or r + s + 1 < 2:
                raise ValueError(f"bad exponent pair ({r}, {s}); need k = r+s+1 >= 2")
        if self.quad < 8:
            raise ValueError("need at least 8 quadrature nodes")
        object.__setattr__(self, "terms", terms)

    @property
    def alpha(self) -> np.ndarray:
        return np.array([a for _, _, a in self.terms], float)


@dataclass(frozen=True)
class StarSolution:
    """Coefficients alpha with densities, free energy, Legendre entropy and
    Hessian: solved by solve_star, or given to evaluate_star (0 iterations)."""

    terms: tuple[tuple[int, int], ...]
    alpha: np.ndarray
    densities: np.ndarray
    free_energy: float
    entropy: float
    hessian: np.ndarray
    newton_iterations: int


@functools.lru_cache(maxsize=None)
def _gl01(n: int):
    """Gauss-Legendre nodes and weights on [0, 1], read-only and computed
    once per n (``leggauss`` takes milliseconds at a hundred nodes)."""
    z, w = leggauss(n)
    nodes, weights = 0.5 * (z + 1.0), 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _fe_parts(exponents, alpha: np.ndarray, nquad: int):
    """(F, grad, hess) by tensor Gauss-Legendre after t = x u substitution.

    Columns are x nodes; per column the tilted density over u in [0, 1] gives
    M(x) = <e^ptilde>, so F = int log M dx (the Stirling +1 and the log x
    terms cancel exactly in this form), grad_i = int <phi_i> dx, and
    hess_ij = int Cov(phi_i, phi_j) dx.
    """
    # x and u share one rule
    xg, xw = ug, uw = _gl01(nquad)
    k = len(exponents)
    # phi_i(t = x u, x) = x^{r+s} u^r (1-u)^s / (r! s!)
    phi = np.empty((k, nquad, nquad))
    for i, (r, s) in enumerate(exponents):
        phi[i] = (xg[:, None] ** (r + s)) * (ug[None, :] ** r) \
            * ((1.0 - ug[None, :]) ** s) / (math.factorial(r) * math.factorial(s))
    pt = np.tensordot(alpha, phi, axes=1)
    pt_max = pt.max(axis=1, keepdims=True)
    ew = np.exp(pt - pt_max) * uw[None, :]
    M = ew.sum(axis=1)
    logM = np.log(M) + pt_max[:, 0]
    F = float(np.dot(xw, logM))
    probs = ew / M[:, None]
    means = np.einsum("kxu,xu->kx", phi, probs)
    grad = means @ xw
    second = np.einsum("axu,bxu,xu->abx", phi, phi, probs)
    cov = second - means[:, None, :] * means[None, :, :]
    hess = cov @ xw
    hess = 0.5 * (hess + hess.T)
    return F, grad, hess


def _fe_checked(exponents, alpha, nquad):
    """Evaluate at nquad and 2*nquad; refuse silently inaccurate quadrature."""
    F1, g1, h1 = _fe_parts(exponents, alpha, nquad)
    F2, g2, h2 = _fe_parts(exponents, alpha, 2 * nquad)
    gap = abs(F1 - F2)
    if gap > 1e-6 * max(1.0, abs(F2)):
        raise ConvergenceError(
            f"free-energy quadrature did not converge at quad = {nquad} "
            f"(refinement residual {gap:.3e}); raise quad", gap, alpha)
    return F2, g2, h2


def _k_factorials(exps) -> np.ndarray:
    return np.array([math.factorial(r + s + 1) for r, s in exps], float)


def _solution(exps, alpha, parts, newton_iterations: int) -> StarSolution:
    """Assemble (F, grad F, Hessian) at alpha into densities rho = k! grad F
    and the Legendre entropy H = F - alpha . grad F."""
    F, grad, hess = parts
    return StarSolution(tuple(exps), alpha, _k_factorials(exps) * grad, F,
                        F - float(alpha @ grad), hess, newton_iterations)


def evaluate_star(model: StarModel) -> StarSolution:
    """Free energy, densities, entropy and Hessian at the model's alpha.

    One evaluation at quad and 2*quad nodes (ConvergenceError if the two
    disagree on F); newton_iterations is 0.
    """
    exps = [(r, s) for r, s, _ in model.terms]
    alpha = model.alpha
    return _solution(exps, alpha, _fe_checked(exps, alpha, model.quad), 0)


def solve_star(exponents, targets, quad: int = 96, tol: float = 1e-10,
               max_iter: int = 100) -> StarSolution:
    """Newton inversion of grad F(alpha) = targets / k! with step halving.

    ``exponents`` is a sequence of (r_i, s_i); ``targets`` the desired star
    densities rho_i.  The Hessian is SPD, so the Newton direction always
    exists; damping halves the step until the residual decreases.  Failure to
    reach the residual tolerance signals a target on or outside the feasible
    region (boundary permutons have entropy -inf and |alpha| -> inf).  A
    solution whose residual at 2*quad nodes exceeds ``tol`` raises a
    ConvergenceError that names the quadrature.
    """
    exps = [(int(r), int(s)) for r, s in exponents]
    # construct a throwaway model so the exponent invariants are enforced here
    StarModel(tuple((r, s, 0.0) for r, s in exps), quad)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (len(exps),):
        raise ValueError("one target density per exponent pair")
    if np.any(targets <= 0.0) or np.any(targets >= 1.0):
        raise ValueError("target densities must lie strictly inside (0, 1)")
    scaled = targets / _k_factorials(exps)
    alpha = np.zeros(len(exps))
    _, grad, hess = _fe_parts(exps, alpha, quad)
    res = grad - scaled
    rnorm = float(np.abs(res).max())
    iters = 0
    while rnorm > tol:
        if iters >= max_iter:
            raise ConvergenceError(
                f"Newton did not converge in {max_iter} iterations "
                f"(residual {rnorm:.3e}); targets likely on or outside the "
                "feasible region", rnorm, alpha)
        try:
            step = np.linalg.solve(hess, res)
        except np.linalg.LinAlgError:
            # the Hessian degenerates as |alpha| -> inf on a divergent path
            raise ConvergenceError(
                f"Newton system became singular at residual {rnorm:.3e}; "
                "targets likely on or outside the feasible region",
                rnorm, alpha) from None
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = alpha - scale * step
            _, gt, ht = _fe_parts(exps, trial, quad)
            rt = float(np.abs(gt - scaled).max())
            if rt < rnorm:
                alpha, grad, hess = trial, gt, ht
                res = gt - scaled
                rnorm = rt
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                f"Newton stalled at residual {rnorm:.3e} after {iters} "
                "iterations; targets likely on or outside the feasible region",
                rnorm, alpha)
        iters += 1
    # confirm quadrature accuracy at the solution
    parts = _fe_checked(exps, alpha, quad)
    refined = float(np.abs(parts[1] - scaled).max())
    if refined > tol:
        raise ConvergenceError(
            f"free-energy quadrature under-resolved at quad = {quad} (residual "
            f"{refined:.3e} at 2*quad nodes, tol {tol:.1e}); raise quad", refined, alpha)
    return _solution(exps, alpha, parts, iters)

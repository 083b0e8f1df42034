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
smooth integral over [0, 1], so Gauss-Legendre quadrature converges
spectrally.  The integrand sharpens as |alpha| grows, so the node count is
not a setting: each result is checked against twice the nodes, and the
count doubles from 96 until the two agree (up to 768 per axis).
Derivatives have the classical exponential-family form: the
gradient is the integrated tilted expectation of the monomials and the
Hessian is the integrated covariance matrix, hence symmetric positive
definite and F strictly convex in alpha.  The entropy of the constrained
maximizer is the Legendre dual

    H = F(alpha) - sum_i alpha_i dF/dalpha_i,   rho_i = k_i! dF/dalpha_i.

Newton iteration on grad F = rho/k! therefore converges quadratically for
targets strictly inside the feasible region and diverges (|alpha| -> inf)
on its boundary, which the solver reports as a ``ConvergenceError`` (the
package's one failure type for a solver that gives up, defined in ``core``).

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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import ConvergenceError, GridPermuton, _as_count, _frozen, uniform_grid

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
# First and largest Gauss-Legendre node count per axis of the star quadrature.
_QUAD = 96
_MAX_QUAD = 768


# Cephes spence rational approximation (Moshier, Methods and Programs for
# Mathematical Functions, 1989), highest degree first as polevl reads them.
_SPENCE_A = (4.65128586073990045278e-5, 7.31589045238094711071e-3,
             1.33847639578309018650e-1, 8.79691311754530315341e-1,
             2.71149851196553469920e0, 4.25697156008121755724e0,
             3.29771340985225106936e0, 1.00000000000000000126e0)
_SPENCE_B = (6.90990488912553276999e-4, 2.54043763932544379113e-2,
             2.82974860602568089943e-1, 1.41172597751831069617e0,
             3.63800533345137075418e0, 5.03278880143316990390e0,
             3.54771340985225096217e0, 9.99999999999999998740e-1)
_PI2_6 = math.pi * math.pi / 6.0


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _li2(z: float) -> float:
    """Real dilogarithm Li2(z) for 0 <= z <= 1.

    Cephes spence(x) at x = 1 - z, operation for operation, so the result
    is scipy.special.spence's bit for bit.  On 0 <= x <= 1 only its branch
    for x < 1/2 (flag 1, the reflection Li2(z) = pi^2/6 - log z log(1 - z)
    - Li2(1 - z)) can apply; the inversions for x > 1 cannot."""
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"dilogarithm argument z = {z!r} outside [0, 1]")
    x = 1.0 - z
    if x == 1.0:
        return 0.0
    if x == 0.0:
        return _PI2_6
    w = -x if x < 0.5 else x - 1.0
    y = -w * _polevl(w, _SPENCE_A) / _polevl(w, _SPENCE_B)
    if x < 0.5:
        y = _PI2_6 - math.log(x) * math.log(1.0 - x) - y
    return y


def _rate_error(r: float) -> ValueError:
    return ValueError(f"rate r = {r:g} outside the range where r^2 is finite")


def star12_rho(r: float) -> float:
    """Density of 1 2 patterns in the one-parameter model; decreasing in r."""
    r = float(r)
    # NaN would recurse through the reflection below without end
    if not math.isfinite(r * r):
        raise _rate_error(r)
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
    if not math.isfinite(r):
        raise _rate_error(r)
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
    m = _as_count(m, "m")
    if m < 1:
        raise ValueError("m must be >= 1")
    if not math.isfinite(r):
        raise _rate_error(r)
    if abs(r) < _FLAT_RATE:
        return uniform_grid(m)
    edges = np.linspace(0.0, 1.0, m + 1)
    G = star12_cdf(r, edges[:, None], edges[None, :])
    w = np.diff(np.diff(G, axis=0), axis=1)
    w = np.where(np.abs(w) < 1e-300, 0.0, w)
    return GridPermuton(np.clip(w, 0.0, None))


def _exponent_pairs(pairs) -> list[tuple[int, int]]:
    """Integer pairs (r, s): at least one, distinct, each with k = r+s+1 >= 2."""
    exps = [(_as_count(r, "exponent r"), _as_count(s, "exponent s")) for r, s in pairs]
    if not exps:
        raise ValueError("model needs at least one term")
    if len(set(exps)) != len(exps):
        raise ValueError("exponent pairs must be distinct")
    for r, s in exps:
        if r < 0 or s < 0 or r + s + 1 < 2:
            raise ValueError(f"bad exponent pair ({r}, {s}); need k = r+s+1 >= 2")
    return exps


@dataclass(frozen=True)
class StarSolution:
    """Coefficients alpha with densities, free energy, Legendre entropy and
    Hessian: solved by solve_star, or given to evaluate_star (0 iterations).
    ``evaluate_star(sol.terms, sol.alpha)`` evaluates a solution as it is."""

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
    return _frozen(0.5 * (z + 1.0)), _frozen(0.5 * w)


def _phi(exponents, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Tilt monomials phi_i(x u, x) = x^{r+s} u^r (1-u)^s / (r! s!), stacked (k, x, u)."""
    phi = np.empty((len(exponents), x.size, u.size))
    for i, (r, s) in enumerate(exponents):
        phi[i] = (x[:, None] ** (r + s)) * (u[None, :] ** r) \
            * ((1.0 - u[None, :]) ** s) / (math.factorial(r) * math.factorial(s))
    return phi


def _fe_parts(exponents, alpha: np.ndarray, nquad: int):
    """(F, grad, hess) by tensor Gauss-Legendre after t = x u substitution.

    Columns are x nodes; per column the tilted density over u in [0, 1] gives
    M(x) = <e^ptilde>, so F = int log M dx (the Stirling +1 and the log x
    terms cancel exactly in this form), grad_i = int <phi_i> dx, and
    hess_ij = int Cov(phi_i, phi_j) dx.

    The tilt alpha . phi is a stack of one small BLAS product per x node, k
    * nquad entries each: that is the tensordot over all k * nquad^2 bit for
    bit, and OpenBLAS runs each product on the calling thread, where it
    splits the one tensordot call across its threads (for one term numpy
    makes it an axpy, split above 10,000 entries, so from 104 nodes on) and
    the woken workers spin on and slow what runs next.  einsum would move
    bits.
    """
    # x and u share one rule
    xg, xw = ug, uw = _gl01(nquad)
    phi = _phi(exponents, xg, ug)
    pt = alpha @ phi.transpose(1, 0, 2)
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


def _fe_checked(exponents, alpha, coarse, nquad, scaled=None, tol=0.0):
    """(F, grad, hess) at 2*nquad nodes, and whether the ``coarse`` parts the
    caller holds at nquad nodes resolve them: F within 1e-6 max(1, |F|) and,
    with ``scaled`` given, the residual |grad - scaled| within ``tol``.
    Unresolved at _MAX_QUAD nodes, it raises the one ConvergenceError for an
    under-resolved quadrature."""
    parts = _fe_parts(exponents, alpha, 2 * nquad)
    miss = abs(coarse[0] - parts[0])
    if miss <= 1e-6 * max(1.0, abs(parts[0])):
        miss = 0.0 if scaled is None else float(np.abs(parts[1] - scaled).max())
        if miss <= tol:
            return parts, True
    if nquad >= _MAX_QUAD:
        raise ConvergenceError(f"free-energy quadrature under-resolved at quad = "
                               f"{nquad} (residual {miss:.3e})", miss, alpha)
    return parts, False


def _k_factorials(exps) -> np.ndarray:
    return np.array([math.factorial(r + s + 1) for r, s in exps], float)


def _solution(exps, alpha, parts, newton_iterations: int) -> StarSolution:
    """Assemble (F, grad F, Hessian) at alpha into densities rho = k! grad F
    and the Legendre entropy H = F - alpha . grad F."""
    F, grad, hess = parts
    return StarSolution(tuple(exps), alpha, _k_factorials(exps) * grad, F,
                        F - float(alpha @ grad), hess, newton_iterations)


def _coefficients(exponents, alpha):
    """Checked exponent pairs and a float64 copy of alpha, one finite each."""
    exps = _exponent_pairs(exponents)
    alpha = np.array(alpha, dtype=np.float64)
    if alpha.shape != (len(exps),):
        raise ValueError("one coefficient per exponent pair")
    if not np.isfinite(alpha).all():
        raise ValueError(f"coefficients must be finite, got {alpha.tolist()}")
    return exps, alpha


def evaluate_star(exponents, alpha) -> StarSolution:
    """Free energy, densities, entropy and Hessian at coefficients ``alpha``,
    one per exponent pair (r_i, s_i) as ``solve_star`` takes them, on _QUAD
    nodes doubled while F disagrees at twice the count (_fe_checked, which
    raises ConvergenceError past _MAX_QUAD); newton_iterations is 0.
    ``alpha`` is copied, so the solution shares no array with the caller;
    a missing, extra or non-finite coefficient raises ValueError.
    """
    exps, alpha = _coefficients(exponents, alpha)
    nquad = _QUAD
    parts, resolved = _fe_parts(exps, alpha, nquad), False
    while not resolved:
        parts, resolved = _fe_checked(exps, alpha, parts, nquad)
        nquad *= 2
    return _solution(exps, alpha, parts, 0)


def solve_star(exponents, targets, tol: float = 1e-10,
               max_iter: int = 100) -> StarSolution:
    """Newton inversion of grad F(alpha) = targets / k! with step halving.

    ``exponents`` is a sequence of (r_i, s_i); ``targets`` the desired star
    densities rho_i.  The Hessian is SPD, so the Newton direction always
    exists; damping halves the step until the residual decreases.  Failure to
    reach it in ``max_iter`` steps in all signals a target on or outside the
    feasible region (boundary permutons have entropy -inf and |alpha| -> inf).
    Newton starts on _QUAD nodes and continues from alpha on twice the nodes
    while F or the residual there misses (_fe_checked).
    ``tol`` must be positive and finite, ``max_iter`` a nonnegative integer
    and every target inside (0, 1); anything else raises ValueError.
    """
    exps = _exponent_pairs(exponents)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (len(exps),):
        raise ValueError("one target density per exponent pair")
    # written so that NaN fails it
    if not np.all((targets > 0.0) & (targets < 1.0)):
        raise ValueError("target densities must lie strictly inside (0, 1), "
                         f"got {targets.tolist()}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if _as_count(max_iter, "max_iter") < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    scaled = targets / _k_factorials(exps)
    alpha = np.zeros(len(exps))
    nquad = _QUAD
    parts = _fe_parts(exps, alpha, nquad)
    iters = 0
    while True:
        _, grad, hess = parts
        res = grad - scaled
        rnorm = float(np.abs(res).max())
        if rnorm <= tol:
            # confirm quadrature accuracy at the solution, else double the nodes
            parts, resolved = _fe_checked(exps, alpha, parts, nquad, scaled, tol)
            if resolved:
                return _solution(exps, alpha, parts, iters)
            nquad *= 2
            continue
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
            pt = _fe_parts(exps, trial, nquad)
            if float(np.abs(pt[1] - scaled).max()) < rnorm:
                alpha, parts = trial, pt
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                f"Newton stalled at residual {rnorm:.3e} after {iters} "
                "iterations; targets likely on or outside the feasible region",
                rnorm, alpha)
        iters += 1

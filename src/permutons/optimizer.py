"""Entropy maximization over grid permutons under pattern-density constraints.

The problem: maximize H(w) = -sum w log(m^2 w) over m x m nonnegative grids
with uniform marginals, subject to rho_tau(w) = target for a set of k <= 3
patterns.  H is strictly concave and the constraints are low-degree
polynomials, so for star patterns the maximizer is unique; the solver treats
the general case and reports diagnostics.

Method: an augmented-Lagrangian outer loop on the density constraints,

    Phi(w) = H(w) - lambda . c(w) - (mu/2) |c(w)|^2,    c = rho(w) - target,

with an inner loop of entropic mirror ascent: a step w <- w * exp(eta * pg)
followed by alternating row/column rescaling back onto the uniform-marginal
polytope.  Multiplicative updates keep w strictly positive (so H stays
finite), the rescaling is the natural projection for this geometry, and pg
is the gradient of Phi double-centered (row means, column means, and grand
mean removed) -- the component of the gradient tangent to the marginal
constraints, so |pg| measures first-order optimality.  The step size grows
geometrically while steps keep improving Phi and is halved on failure
(backtracking), making the accepted inner objective sequence nondecreasing.
Density gradients are the analytic prefix-sum adjoints from the exact
pattern-density evaluation.  Each projected trial point costs one
``density_grid_exact_with_grad`` call per constraint pattern and one
entropy evaluation; an accepted point keeps both, so the next inner
iteration starts from them without recomputing anything.  A projection that stalls
on a trial step ends the run: the last accepted iterate is returned
unconverged, and the last ``history`` entry records the cause under
``"stop"``.

The converged grids satisfy the Euler-Lagrange equations of the continuum
problem; ``pde_residual_12`` and ``pde_residual_123`` check them.  For a
single 1 2 constraint with multiplier alpha the stationarity condition is

    (log g)_xy + 2 alpha g = 0,

and for a single 1 2 3 constraint, writing K = 2G - x - y + 1 (so K_xy = 2g),

    (log K_xy)_xy + 3 alpha (2 K_xy K + K_x K_y - 1) = 0.

Both checks fit the scalar alpha by least squares on interior finite
differences and report the post-fit RMS residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import GridPermuton, cdf, rebalance_marginals, uniform_grid
from .patterns import PatternSpec, density_grid_exact_with_grad


@dataclass(frozen=True)
class Constraint:
    pattern: PatternSpec
    target: float

    def __post_init__(self):
        if not 0.0 < self.target < 1.0:
            raise ValueError("constraint targets must lie strictly in (0, 1)")
        if self.pattern.k > 3:
            raise ValueError("constraints support patterns of length <= 3")


@dataclass(frozen=True)
class ConstraintSet:
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        cons = tuple(self.constraints)
        if not cons:
            raise ValueError("need at least one constraint")
        labels = [c.pattern.label for c in cons]
        if len(set(labels)) != len(labels):
            raise ValueError("constraint patterns must be distinct")
        object.__setattr__(self, "constraints", cons)

    @classmethod
    def of(cls, *pairs) -> "ConstraintSet":
        """Build from (pattern spec or CLI string, target) pairs."""
        cons = []
        for pat, target in pairs:
            if not isinstance(pat, PatternSpec):
                pat = PatternSpec.parse(str(pat))
            cons.append(Constraint(pat, float(target)))
        return cls(tuple(cons))


@dataclass
class OptimizerResult:
    grid: GridPermuton
    entropy: float
    achieved: np.ndarray
    residuals: np.ndarray
    multipliers: np.ndarray
    iterations: int
    converged: bool
    history: list = field(default_factory=list)


def _entropy_and_grad(w: np.ndarray, m: int):
    lw = np.log(w) + 2.0 * np.log(m)
    return float(-np.sum(w * lw)), -(lw + 1.0)


def _center(g: np.ndarray) -> np.ndarray:
    return (g - g.mean(axis=1, keepdims=True) - g.mean(axis=0, keepdims=True)
            + g.mean())


def maximize_entropy(cons: ConstraintSet, m: int, *, tol_constraint: float = 1e-6,
                     tol_grad: float = 1e-6, max_inner: int = 10_000,
                     max_outer: int = 50, restarts: int = 0,
                     seed: int = 0) -> OptimizerResult:
    """Augmented-Lagrangian + entropic mirror ascent (module doc).

    Deterministic from the uniform initialization; ``restarts`` adds that
    many seeded perturbed starts and returns the best feasible result (the
    maximizer is proven unique only for star constraints).
    """
    if m < 8:
        raise ValueError("resolution m must be >= 8")
    if isinstance(cons, (list, tuple)):
        cons = ConstraintSet(tuple(cons))
    best = None
    rng = np.random.default_rng(seed)
    for attempt in range(restarts + 1):
        w0 = np.full((m, m), 1.0 / (m * m))
        if attempt > 0:
            w0 = rebalance_marginals(w0 * np.exp(0.1 * rng.standard_normal((m, m))))
        res = _maximize_from(cons, w0, m, tol_constraint, tol_grad,
                             max_inner, max_outer)
        if best is None:
            best = res
        else:
            key = (res.converged, res.entropy)
            if key > (best.converged, best.entropy):
                best = res
    return best


def _maximize_from(cons: ConstraintSet, w: np.ndarray, m: int,
                   tol_constraint: float, tol_grad: float,
                   max_inner: int, max_outer: int) -> OptimizerResult:
    patterns = [c.pattern for c in cons.constraints]
    targets = np.array([c.target for c in cons.constraints])
    k = len(patterns)

    def densities_and_grads(wm):
        g = GridPermuton(wm)
        vals = np.empty(k)
        grads = np.empty((k, m, m))
        for i, pat in enumerate(patterns):
            vals[i], grads[i] = density_grid_exact_with_grad(g, pat)
        return vals, grads

    lam = np.zeros(k)
    mu = 10.0
    total_inner = 0
    history = []
    prev_maxc = np.inf
    converged = False

    def phi_of(wm, rho):
        H, gH = _entropy_and_grad(wm, m)
        c = rho - targets
        return H - lam @ c - 0.5 * mu * (c @ c), gH

    rho, grads = densities_and_grads(w)
    for outer in range(max_outer):
        eta = 0.5
        phi, gH = phi_of(w, rho)
        phi_series = [phi]
        inner_ok = False
        stop = None
        inner = 0
        while inner < max_inner:
            inner += 1
            total_inner += 1
            c = rho - targets
            g = gH - np.tensordot(lam + mu * c, grads, axes=1)
            pg = _center(g)
            if np.abs(pg).max() < tol_grad:
                inner_ok = True
                break
            accepted = False
            while eta >= 1e-9:
                try:
                    trial = rebalance_marginals(w * np.exp(eta * pg))
                except RuntimeError as exc:
                    stop = f"projection stalled: {exc}"
                    break
                rho_t, grads_t = densities_and_grads(trial)
                phi_t, gH_t = phi_of(trial, rho_t)
                if phi_t >= phi - 1e-15:
                    w, rho, grads, phi, gH = trial, rho_t, grads_t, phi_t, gH_t
                    phi_series.append(phi)
                    eta = min(eta * 1.3, 5.0)
                    accepted = True
                    break
                eta *= 0.5
            if stop is not None:
                break
            if not accepted:
                # step collapsed: the merit is flat to machine precision, so
                # the iterate is stationary even if the gradient tolerance
                # was not formally reached
                inner_ok = True
                break
        c = rho - targets
        maxc = float(np.abs(c).max())
        history.append({"outer": outer, "inner": inner, "max_residual": maxc,
                        "phi": phi, "phi_series": phi_series})
        if stop is not None:
            history[-1]["stop"] = stop
            break
        if maxc < tol_constraint and inner_ok:
            converged = True
            break
        lam = lam + mu * c
        if maxc > 0.25 * prev_maxc:
            mu = min(2.0 * mu, 1e6)
        prev_maxc = maxc

    H, _ = _entropy_and_grad(w, m)
    return OptimizerResult(
        grid=GridPermuton(w), entropy=H, achieved=rho, residuals=rho - targets,
        multipliers=lam, iterations=total_inner, converged=converged,
        history=history)


def pde_residual_12(g: GridPermuton) -> tuple[float, float]:
    """Fit alpha in (log g)_xy + 2 alpha g = 0 on interior nodes; return
    (alpha, post-fit RMS).  Centered differences with spacing 1/m, interior
    margin of 2 cells."""
    m = g.m
    if m < 8:
        raise ValueError("need m >= 8 for interior stencils")
    d = g.density()
    if np.any(d[1:-1, 1:-1] <= 0):
        raise ValueError("interior cells must be strictly positive")
    ld = np.log(d[1:-1, 1:-1])
    # cross stencil of log density at nodes [2, m-3] x [2, m-3]
    lxy = (ld[2:, 2:] - ld[2:, :-2] - ld[:-2, 2:] + ld[:-2, :-2]) * (m * m / 4.0)
    dint = d[2:-2, 2:-2]
    denom = float(np.sum(dint * dint))
    alpha = -float(np.sum(lxy * dint)) / (2.0 * denom) + 0.0
    resid = lxy + 2.0 * alpha * dint
    return alpha, float(np.sqrt(np.mean(resid ** 2)))


def pde_residual_123(g: GridPermuton) -> tuple[float, float]:
    """Fit alpha in (log K_xy)_xy + 3 alpha (2 K_xy K + K_x K_y - 1) = 0,
    K = 2G - x - y + 1, on interior corner nodes; return (alpha, RMS)."""
    m = g.m
    if m < 8:
        raise ValueError("need m >= 8 for interior stencils")
    G = cdf(g).G
    e = np.linspace(0.0, 1.0, m + 1)
    K = 2.0 * G - e[:, None] - e[None, :] + 1.0
    # first cross stencil on corners [1, m-1]
    kxy = (K[2:, 2:] - K[2:, :-2] - K[:-2, 2:] + K[:-2, :-2]) * (m * m / 4.0)
    if np.any(kxy <= 0):
        raise ValueError("K_xy must be positive on interior corners (needs g > 0)")
    lk = np.log(kxy)
    # second cross stencil: valid on corners [2, m-2]
    t = (lk[2:, 2:] - lk[2:, :-2] - lk[:-2, 2:] + lk[:-2, :-2]) * (m * m / 4.0)
    kx = (K[2:, 1:-1] - K[:-2, 1:-1]) * (m / 2.0)
    ky = (K[1:-1, 2:] - K[1:-1, :-2]) * (m / 2.0)
    sl = slice(1, -1)
    b = (2.0 * kxy[sl, sl] * K[2:-2, 2:-2] + kx[sl, sl] * ky[sl, sl] - 1.0)
    denom = float(np.sum(b * b))
    alpha = -float(np.sum(t * b)) / (3.0 * denom) + 0.0
    resid = t + 3.0 * alpha * b
    return alpha, float(np.sqrt(np.mean(resid ** 2)))

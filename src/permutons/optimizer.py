"""Entropy maximization over grid permutons under pattern-density constraints.

The problem: maximize H(w) = -sum w log(m^2 w) over m x m nonnegative grids
with uniform marginals, subject to rho_tau(w) = target for a set of k <= 3
patterns.  H is strictly concave and the constraints are low-degree
polynomials, so for star patterns the maximizer is unique; the solver treats
the general case and reports diagnostics.

Method: Newton's method on the KKT system of (w, lambda).  The Lagrangian
is L = H - lambda . c with c = rho(w) - target, and its stationary points
on the polytope are the maximizers.  Each Newton step works on the tangent
space T of the marginal polytope: matrices with zero row and column sums,
onto which double centering (row means, column means and grand mean
removed) is the Euclidean projection P_T.  With

    K = diag(1/w) + sum_i lambda_i Hess(rho_i)      (minus Hess L, on T)

a step solves the KKT system

    K dw + A^T mu = g,    A dw = -c_b,

for the direction dw in T and the new multipliers lambda' = B mu, where B
(k x r, r <= k) is an orthonormal basis of the constraint combinations,
A = B^T P_T grad rho, g = P_T grad H and c_b = B^T c.  Combinations whose
tangent gradients are dependent (rho_12 and rho_*2 are one density;
rho_123 + rho_213 = rho_**3) are left out of B, which gives the
minimum-norm multipliers.  When their targets violate the dependency at
two successive iterates the run stops as inconsistent.

One projected preconditioned conjugate-gradient (PCG) solve gives both dw
and mu (Gould, Hribar and Nocedal, SIAM J. Sci. Comput. 23 (2001)).  With
the preconditioner M (below), Q_i = M^-1 a_i for the rows a_i of A and the
r x r matrix G = A Q, it starts from the particular solution x = -Q G^-1 c_b of
A x = -c_b and runs CG on the null space of A: each iteration makes one
product with K and one with M^-1, and projects the preconditioned residual
with y = G^-1 A M^-1 r.  The projection also takes A^T y out of the
residual r = g - K x - A^T mu and adds y to mu, so r itself goes to zero
and mu comes out of the same iterations.  The solve stops once r . M^-1 r
falls below _CG_RTOL^2 (g . M^-1 g + (K x) . M^-1 (K x)) for the starting
x, a scale that stays positive where g = 0, as at the uniform start.

Hessian-vector products are exact and direct.  Every density is a sum of
quadrant terms whose fields are affine in w through one linear prefix map
L, so the Hessian of sum_i lambda_i rho_i is a fixed linear operator at w:
``patterns._hessian_operator`` sums the terms' fields, weighted by lambda,
once per Newton step, and each product then costs one pass of L, a 4 x 4
mix and one pass of its adjoint, however many patterns there are.  It
never calls the density kernel.  The preconditioner is the entropy
diagonal M = diag(1/w) restricted to T; its inverse costs one m x m solve
per step.  If PCG meets negative curvature, K is indefinite on the null
space of A, and the step is that of the entropy metric alone: the solution
dw = M^-1 g - Q G^-1 (A M^-1 g + c_b) of the KKT system with K replaced by M.

The step is multiplicative, w * exp(a dw / w) with |a dw / w| <= 2, then
projected back onto the polytope by ``rebalance_marginals``, so w stays
strictly positive.  It is accepted on the l1 merit H - nu |c|_1 with
nu = 2 max |lambda'|, never decreased; the step length a is halved until
the merit falls by no more than rounding (1e-15).  A run converges when
max |c| < ``tol_constraint`` and max |P_T grad L| < ``tol_grad``.
``max_outer`` caps Newton steps and ``max_inner`` the CG iterations of a
step's solve, which never exceed the dimension (m - 1)^2 of T.  Values and
gradients at the start and at each trial point come from
``density_grid_exact_with_grad``, one call per pattern; these are the
only density-kernel evaluations of a run.

Before any step, a target for one pattern of length 2 or 3 (or a star
class with one member) is checked against a proven bound at resolution m:
rho_tau <= 1 - P(E) / 2, E the event that two of the k points share an
x-band (``_beyond_resolution``).  A target above it stops the run at once
as infeasible at that resolution.  Joint feasibility of several targets is
left to the Newton iteration.

Every Newton step appends one entry to ``history``: the constraint residual
max |c| (``max_residual``), ``grad_norm`` = max |P_T grad L|, the step
length a, the step's CG iterations, the trial points its line search
evaluated (``trial_points``), whether negative curvature truncated it, the
merit, its gain over the step and the penalty nu.  An unconverged run
names its cause in ``OptimizerResult.stop``: a target beyond the
resolution bound (no step taken), or, also under ``"stop"`` in the last
history entry, a stalled projection (the last accepted iterate is
returned), inconsistent targets, a failed line search, or the step limit.

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

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ConvergenceError, GridPermuton, _as_count, cdf, rebalance_marginals
from .entropy import entropy_grid
from .patterns import PatternSpec, _hessian_operator, density_grid_exact_with_grad

# relative residual of each CG solve, and relative singular value below
# which tangent constraint gradients count as dependent
_CG_RTOL = 1e-10
_RANK_RTOL = 1e-9
# backtracking halves the step length at most down to this, and accepts a
# merit that falls by no more than rounding
_MIN_STEP = 1e-9
_MERIT_SLACK = 1e-15


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
    # why an unconverged run stopped (None when converged); a run stopped by
    # a Newton step also names it under history[-1]["stop"]
    stop: str | None = None


def _entropy_and_grad(w: np.ndarray, m: int):
    lw = np.log(w) + 2.0 * np.log(m)
    return float(-np.sum(w * lw)), -(lw + 1.0)


def _tangent(g: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the tangent space of the marginal polytope:
    remove row means and column means, add back the grand mean.  The last
    axes are the grid; leading axes are a batch."""
    ny, nx = g.shape[-2:]
    # np.mean's own sums and divisions, without its per-call overhead
    return (g - g.sum(axis=-1, keepdims=True) / nx - g.sum(axis=-2, keepdims=True) / ny
            + g.sum(axis=(-2, -1), keepdims=True) / (nx * ny))


def maximize_entropy(cons: ConstraintSet, m: int, *, tol_constraint: float = 1e-6,
                     tol_grad: float = 1e-6, max_inner: int = 10_000,
                     max_outer: int = 50, restarts: int = 0,
                     seed: int = 0) -> OptimizerResult:
    """Newton-KKT entropy maximization (module doc).

    ``max_outer`` caps Newton steps and ``max_inner`` the CG iterations of
    the one projected solve each step makes; both must be at least 1, and
    the tolerances positive and finite (ValueError otherwise).
    Deterministic from the uniform initialization; ``restarts`` adds that
    many seeded perturbed starts and returns the best feasible result (the
    maximizer is proven unique only for star constraints).
    """
    if _as_count(m, "m") < 8:
        raise ValueError("resolution m must be >= 8")
    for name, tol in (("tol_constraint", tol_constraint), ("tol_grad", tol_grad)):
        if not 0.0 < tol < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {tol}")
    for name, count, least in (("max_inner", max_inner, 1), ("max_outer", max_outer, 1),
                               ("restarts", restarts, 0)):
        if _as_count(count, name) < least:
            raise ValueError(f"{name} must be >= {least}, got {count}")
    best = None
    rng = np.random.default_rng(seed)
    for attempt in range(restarts + 1):
        w0 = np.full((m, m), 1.0 / (m * m))
        if attempt > 0:
            w0 = rebalance_marginals(w0 * np.exp(0.1 * rng.standard_normal((m, m))))
        res = _maximize_from(cons, w0, tol_constraint, tol_grad,
                             max_inner, max_outer)
        if best is None:
            best = res
        else:
            key = (res.converged, res.entropy)
            if key > (best.converged, best.entropy):
                best = res
    return best


class _Iterate:
    """A point of the polytope with its entropy, densities and their gradients."""

    def __init__(self, w: np.ndarray, patterns, targets: np.ndarray):
        m = w.shape[0]
        g = GridPermuton(w)
        self.w = w
        self.rho = np.empty(len(patterns))
        self.grads = np.empty((len(patterns), m, m))
        for i, pat in enumerate(patterns):
            self.rho[i], self.grads[i] = density_grid_exact_with_grad(g, pat)
        self.H, self.gH = _entropy_and_grad(w, m)
        self.c = self.rho - targets

    def merit(self, nu: float) -> float:
        return self.H - nu * float(np.abs(self.c).sum())

    def grad_norm(self, lam: np.ndarray) -> float:
        return float(np.abs(_tangent(self.gH - np.tensordot(lam, self.grads, axes=1))).max())


class _NewtonSystem:
    """The Lagrangian Hessian K = diag(1/w) + sum lam_i Hess(rho_i) on the
    tangent space at w, its entropy-diagonal preconditioner, and the
    projected PCG solve of a Newton step."""

    def __init__(self, w: np.ndarray, taus: tuple, lam: np.ndarray, max_iter: int):
        m = w.shape[0]
        self.w = w
        # in exact arithmetic CG ends within the (m - 1)^2 dimensions of the
        # tangent space; iterations beyond that only fight rounding
        self.max_iter = min(max_iter, (m - 1) ** 2)
        self.hessian = _hessian_operator(w, taus, lam) if np.any(lam != 0.0) else None
        # z = w (r + a_i + b_j) solves P_T (z / w) = r in T once (a, b) zero
        # the row and column sums of z.  With row sums R, column sums C and
        # p, q the row and column sums of w r, eliminating a = -(p + w b) / R
        # leaves (diag(C) - w^T diag(1/R) w) b = w^T (p / R) - q, singular
        # along b = const; the rank-one term pins sum(b) = 0.
        self.rows = w.sum(axis=1)
        s = np.diag(w.sum(axis=0)) - (w.T / self.rows) @ w + np.full((m, m), 1.0 / m)
        self.s_inv = np.linalg.inv(s)
        self.cg_iterations = 0
        self.truncated = False

    def precondition(self, r: np.ndarray) -> np.ndarray:
        wr = self.w * r
        rsum = wr.sum(axis=1)
        b = self.s_inv @ (self.w.T @ (rsum / self.rows) - wr.sum(axis=0))
        a = -(rsum + self.w @ b) / self.rows
        return wr + self.w * (a[:, None] + b[None, :])

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = v / self.w
        if self.hessian is not None:
            out += self.hessian(v)
        return _tangent(out)

    def newton_step(self, cur: _Iterate, basis: np.ndarray):
        """The Newton direction dw and multipliers lam for the constraint
        combinations in ``basis``: one projected PCG solve of the KKT system
        K dw + A^T mu = g, A dw = -c_b (module doc)."""
        a = list(np.tensordot(basis.T, _tangent(cur.grads), axes=1))
        g = _tangent(cur.gH)
        cb = basis.T @ cur.c
        # Q_i = M^-1 a_i and G = A Q; pinv: a G that rounding leaves
        # singular yields the minimum-norm multipliers instead of an exception
        q = [self.precondition(ai) for ai in a]
        rank = len(a)
        gram = np.array([[float(np.vdot(ai, qj)) for qj in q] for ai in a]).reshape(rank, rank)
        gram_inv = np.linalg.pinv(0.5 * (gram + gram.T)).tolist()

        def solve_gram(t):
            return [sum(gi * ti for gi, ti in zip(row, t)) for row in gram_inv]

        def combine(v, coeffs, vecs):
            for ci, u in zip(coeffs, vecs):
                v = v - ci * u
            return v

        mg = self.precondition(g)
        x = combine(np.zeros_like(g), solve_gram(cb), q)
        kx = self.apply(x)
        mkx = self.precondition(kx)
        stop = _CG_RTOL ** 2 * (float(np.vdot(g, mg)) + float(np.vdot(kx, mkx)))
        # r = g - K x - A^T mu throughout; each projection moves the part of
        # r that M^-1 r sends out of null(A) into the multipliers mu
        r, mr = g - kx, mg - mkx
        mu = [0.0] * rank
        for it in range(self.max_iter + 1):
            y = solve_gram([float(np.vdot(ai, mr)) for ai in a])
            mu = [mi + yi for mi, yi in zip(mu, y)]
            r, z = combine(r, y, a), combine(mr, y, q)
            rz_new = float(np.vdot(r, z))
            if rz_new <= stop or it == self.max_iter:
                break
            p = z if it == 0 else z + (rz_new / rz) * p
            rz = rz_new
            kp = self.apply(p)
            self.cg_iterations += 1
            pkp = float(np.vdot(p, kp))
            if pkp <= 0.0:
                # negative curvature, on null(A): take the step of the
                # entropy metric M, which solves M dw + A^T mu = g and
                # A dw = -c_b
                self.truncated = True
                mu = solve_gram([float(np.vdot(ai, mg)) + ci for ai, ci in zip(a, cb)])
                return combine(mg, mu, q), basis @ mu
            alpha = rz / pkp
            x = x + alpha * p
            r = r - alpha * kp
            mr = self.precondition(r)
        return x, basis @ mu


def _maximize_from(cons: ConstraintSet, w: np.ndarray,
                   tol_constraint: float, tol_grad: float,
                   max_inner: int, max_outer: int) -> OptimizerResult:
    patterns = tuple(c.pattern for c in cons.constraints)
    targets = np.array([c.target for c in cons.constraints])
    cur = _Iterate(w, patterns, targets)
    lam = np.zeros(len(patterns))
    nu = 0.0
    history = []
    stop = _beyond_resolution(cons, w.shape[0])
    converged = (stop is None and np.abs(cur.c).max() < tol_constraint
                 and cur.grad_norm(lam) < tol_grad)
    missed_before = 0.0
    for step in range(1, max_outer + 1):
        if converged or stop is not None:
            break
        system = _NewtonSystem(cur.w, patterns, lam, max_inner)
        basis, missed = _constraint_basis(cur)
        a, gain, trials = 0.0, 0.0, 0
        if missed > tol_constraint and missed_before > tol_constraint:
            # a dependency that holds at two successive iterates is taken as
            # global; the uniform start alone can make gradients dependent
            stop = ("inconsistent targets: the constraint gradients stay "
                    "dependent and the targets miss the dependency by "
                    f"{missed:.3e}")
        else:
            dw, lam_new = system.newton_step(cur, basis)
            nu = max(nu, 2.0 * float(np.abs(lam_new).max()))
            merit0 = cur.merit(nu)
            ratio = float(np.abs(dw / cur.w).max())
            a = 1.0 if ratio <= 2.0 else 2.0 / ratio
            while stop is None:
                try:
                    trial = rebalance_marginals(cur.w * np.exp(a * dw / cur.w))
                except (ConvergenceError, ValueError) as exc:
                    stop, a = f"projection stalled: {exc}", 0.0
                    break
                nxt = _Iterate(trial, patterns, targets)
                trials += 1
                gain = nxt.merit(nu) - merit0
                if gain >= -_MERIT_SLACK:
                    cur, lam = nxt, lam_new
                    break
                a *= 0.5
                if a < _MIN_STEP:
                    stop, a, gain = "line search failed: no step increases the merit", 0.0, 0.0
        missed_before = missed
        maxc = float(np.abs(cur.c).max())
        gnorm = cur.grad_norm(lam)
        history.append({
            "step": step, "max_residual": maxc, "grad_norm": gnorm,
            "step_length": a, "cg_iterations": system.cg_iterations,
            "trial_points": trials, "negative_curvature": system.truncated,
            "merit": cur.merit(nu), "merit_gain": gain, "penalty": nu})
        if stop is not None:
            history[-1]["stop"] = stop
            break
        converged = maxc < tol_constraint and gnorm < tol_grad
    else:
        if not converged:
            stop = history[-1]["stop"] = f"no convergence in {max_outer} Newton steps"

    g = GridPermuton(cur.w)
    return OptimizerResult(
        grid=g, entropy=entropy_grid(g), achieved=cur.rho, residuals=cur.c,
        multipliers=lam, iterations=len(history), converged=converged,
        history=history, stop=stop)


def _beyond_resolution(cons: ConstraintSet, m: int) -> str | None:
    """The cause naming a target that no m x m step permuton attains, or None.

    For one pattern tau of length k in {2, 3} (or a star class with one
    member) let E be the event that two of the k points share an x-band.
    Swapping those two points' x-coordinates keeps the measure, since the
    density is constant on cells, and keeps every point's band, so it is an
    involution of E; it also changes the pattern.  Hence at most half of E
    realizes tau, and rho_tau <= 1 - P(E) / 2 with P(E) = 1/m for k = 2 and
    1 - (1 - 1/m)(1 - 2/m) for k = 3.  The identity grid attains the k = 2
    bound, 1 - 1/(2m).
    """
    for c in cons.constraints:
        k = c.pattern.k
        if k not in (2, 3) or len(c.pattern.members()) != 1:
            continue
        shared = 1.0 / m if k == 2 else 1.0 - (1.0 - 1.0 / m) * (1.0 - 2.0 / m)
        cap = 1.0 - shared / 2.0
        if c.target > cap:
            return f"infeasible at resolution m = {m}: rho_{c.pattern.label} <= {cap:.6g}"
    return None


def _constraint_basis(cur: _Iterate):
    """An orthonormal basis (k x r) of the constraint combinations whose
    tangent gradients are independent, and how far the residual c is from
    their span: the part of c that no step can change to first order."""
    pj = _tangent(cur.grads).reshape(len(cur.c), -1)
    u, sv, _ = np.linalg.svd(pj, full_matrices=False)
    keep = sv > _RANK_RTOL * sv[0]
    null = u[:, ~keep]
    missed = float(np.abs(null @ (null.T @ cur.c)).max()) if null.size else 0.0
    return u[:, keep], missed


def _interior_m(g: GridPermuton) -> int:
    if g.m < 8:
        raise ValueError("need m >= 8 for interior stencils")
    return g.m


def _cross(a: np.ndarray, m: int) -> np.ndarray:
    """Centered cross difference a_xy, spacing 1/m, at the nodes a[1:-1, 1:-1]."""
    return (a[2:, 2:] - a[2:, :-2] - a[:-2, 2:] + a[:-2, :-2]) * (m * m / 4.0)


def _fit(t: np.ndarray, b: np.ndarray, c: float) -> tuple[float, float]:
    """Least-squares alpha in t + c alpha b = 0, and the post-fit RMS."""
    denom = float(np.sum(b * b))
    alpha = -float(np.sum(t * b)) / (c * denom) + 0.0
    resid = t + c * alpha * b
    return alpha, float(np.sqrt(np.mean(resid ** 2)))


def pde_residual_12(g: GridPermuton) -> tuple[float, float]:
    """Fit alpha in (log g)_xy + 2 alpha g = 0 on interior nodes; return
    (alpha, post-fit RMS).  Centered differences with spacing 1/m, interior
    margin of 2 cells."""
    m = _interior_m(g)
    d = g.density()
    if np.any(d[1:-1, 1:-1] <= 0):
        raise ValueError("interior cells must be strictly positive")
    # cross stencil of log density at nodes [2, m-3] x [2, m-3]
    return _fit(_cross(np.log(d[1:-1, 1:-1]), m), d[2:-2, 2:-2], 2.0)


def pde_residual_123(g: GridPermuton) -> tuple[float, float]:
    """Fit alpha in (log K_xy)_xy + 3 alpha (2 K_xy K + K_x K_y - 1) = 0,
    K = 2G - x - y + 1, on interior corner nodes; return (alpha, RMS)."""
    m = _interior_m(g)
    G = cdf(g)
    e = np.linspace(0.0, 1.0, m + 1)
    K = 2.0 * G - e[:, None] - e[None, :] + 1.0
    # first cross stencil on corners [1, m-1]
    kxy = _cross(K, m)
    if np.any(kxy <= 0):
        raise ValueError("K_xy must be positive on interior corners (needs g > 0)")
    # second cross stencil: valid on corners [2, m-2]
    t = _cross(np.log(kxy), m)
    kx = (K[2:, 1:-1] - K[:-2, 1:-1]) * (m / 2.0)
    ky = (K[1:-1, 2:] - K[1:-1, :-2]) * (m / 2.0)
    sl = slice(1, -1)
    b = (2.0 * kxy[sl, sl] * K[2:-2, 2:-2] + kx[sl, sl] * ky[sl, sl] - 1.0)
    return _fit(t, b, 3.0)

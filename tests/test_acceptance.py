"""End-to-end acceptance battery.

Each test exercises one headline capability at its contracted tolerance
and prints a single verdict line of the form

    PASS criterion N: <measurements>  [<elapsed>s]

before asserting, so a plain ``pytest -v`` run leaves a grep-able audit
trail.  Wall-clock budgets are part of the contract and are enforced
alongside the numerics.

Criterion 6 checks feasibility on both sides of the lower boundary of
the star pair region (rho_*2, rho_**3).  With T_x in [0, x] the insertion
location at length fraction x and m(x) = E[T_x], the densities are
rho_*2 = 2 int m and rho_**3 = 3 int E[T_x^2] >= 3 int m^2 (Jensen).
Minimizing int m^2 subject to int m = rho_*2 / 2 and m(x) <= x gives
m = min(x, t), which traces the lower curve (2t - t^2, 3t^2 - 2t^3).  On
the slice rho_*2 = 0.5 (t = 1 - 1/sqrt(2)) the smallest attainable triple
density is therefore (sqrt(2) - 1)/2 = 0.20710678...  The criterion
requires the solver to report (0.5, 0.2), which lies below that bound, as
non-convergent, and to reach the mirror target (0.5, sqrt(2) - 1 - 0.2),
which lies as far above the curve, to the contracted tolerance.
"""

import time

import numpy as np

from permutons import (
    ConstraintSet,
    ConvergenceError,
    GridPermuton,
    PatternSpec,
    Permutation,
    density_grid_exact,
    density_mc,
    dimple,
    entropy_grid,
    evaluate_star,
    gamma_ab,
    grid_from_permutation,
    heat_flow,
    insertion_entropy,
    ldp_estimate,
    maximize_entropy,
    pde_residual_12,
    pde_residual_123,
    rebalance_marginals,
    reconstruct,
    rect_distance,
    region_123_321,
    region_star23_boundary,
    solve_star,
    star12_cdf,
    star12_density,
    star12_entropy,
    star12_grid,
    star12_r_from_rho,
    star12_rho,
    star_family,
    uniform_grid,
)

STAR23 = ((1, 0), (2, 0))


def _verdict(num, budget, ok, detail, t0):
    elapsed = time.perf_counter() - t0
    if elapsed > budget:
        ok = False
        detail += "; exceeded %gs budget" % budget
    line = "%s criterion %d: %s  [%.1fs]" % (
        "PASS" if ok else "FAIL", num, detail, elapsed)
    print(line)
    assert ok, line


def _random_grid(m, rng):
    w = rng.uniform(0.2, 1.0, size=(m, m))
    for _ in range(60):
        w /= w.sum(axis=1, keepdims=True) * m
        w /= w.sum(axis=0, keepdims=True) * m
    return GridPermuton(rebalance_marginals(w))


def test_criterion_1_closed_form_values_and_symmetries():
    t0 = time.perf_counter()
    exact = star12_rho(0.0) == 0.5 and star12_entropy(0.0) == 0.0
    worst = 0.0
    for r in (0.5, 2.0, 6.0):
        worst = max(worst, abs(star12_rho(r) + star12_rho(-r) - 1.0))
        worst = max(worst, abs(star12_entropy(r) - star12_entropy(-r)))
    _verdict(1, 1.0, exact and worst <= 1e-9,
             "rho(0) = 1/2 and H(0) = 0 exact, worst symmetry gap %.1e "
             "(tol 1e-9)" % worst, t0)


def test_criterion_2_quadrature_cross_checks():
    t0 = time.perf_counter()
    xg, wg = np.polynomial.legendre.leggauss(96)
    x, wq = 0.5 * (xg + 1.0), 0.5 * wg
    X, Y = np.meshgrid(x, x, indexing="ij")
    W2 = np.outer(wq, wq)
    worst_rho = worst_ent = 0.0
    for r in (-4.0, -1.0, 1.0, 4.0):
        g = star12_density(r, X, Y)
        rho_quad = 2.0 * np.sum(W2 * g * star12_cdf(r, X, Y))
        worst_rho = max(worst_rho, abs(rho_quad - star12_rho(r)))
        ent = insertion_entropy(star_family(((1, 0),), (-r,), 512, 512))
        worst_ent = max(worst_ent, abs(ent - star12_entropy(r)))
    _verdict(2, 10.0, worst_rho <= 1e-6 and worst_ent <= 1e-5,
             "pair-density quadrature gap %.1e (tol 1e-6), insertion "
             "entropy gap %.1e (tol 1e-5)" % (worst_rho, worst_ent), t0)


def test_criterion_3_entropy_maximizer_recovers_star_law():
    t0 = time.perf_counter()
    res = maximize_entropy(ConstraintSet.of(("12", 0.3)), 32)
    r = star12_r_from_rho(0.3)
    dist = rect_distance(res.grid, star12_grid(r, 32))
    gap = abs(res.entropy - star12_entropy(r))
    _verdict(3, 60.0, res.converged and dist <= 0.02 and gap <= 5e-3,
             "rho_12 = 0.3 at m = 32: rect distance %.1e (tol 0.02), "
             "entropy gap %.1e (tol 5e-3)" % (dist, gap), t0)


def test_criterion_4_deviation_rate_estimates():
    t0 = time.perf_counter()
    target = star12_entropy(star12_r_from_rho(0.4))
    ests = [ldp_estimate(n, 0.4, 0.05) for n in (50, 100, 200)]
    ok = ests[0] < ests[1] < ests[2] and abs(ests[2] - target) <= 0.05
    _verdict(4, 60.0, ok,
             "estimates %.4f < %.4f < %.4f rising toward s(0.4) = %.4f, "
             "final gap %.3f (tol 0.05)"
             % (ests[0], ests[1], ests[2], target, abs(ests[2] - target)),
             t0)


def test_criterion_5_star_solver_identity_checks():
    t0 = time.perf_counter()
    sol = solve_star(STAR23, (0.5, 1.0 / 3.0))
    zero_gap = max(np.abs(sol.alpha).max(), abs(sol.entropy))
    rng = np.random.default_rng(505)
    spd_ok = True
    for _ in range(100):
        hess = evaluate_star(STAR23, rng.uniform(-6.0, 6.0, 2)).hessian
        spd_ok = (spd_ok and np.abs(hess - hess.T).max() <= 1e-12
                  and np.linalg.eigvalsh(hess).min() > 0.0)
    grad_worst = 0.0
    for _ in range(4):
        al = rng.uniform(-4.0, 4.0, size=2)
        grad = evaluate_star(STAR23, al).densities / (2.0, 6.0)
        for i in range(2):
            hi, lo = al.copy(), al.copy()
            hi[i] += 1e-6
            lo[i] -= 1e-6
            fd = (evaluate_star(STAR23, hi).free_energy
                  - evaluate_star(STAR23, lo).free_energy) / 2e-6
            grad_worst = max(grad_worst, abs(grad[i] - fd))
    _verdict(5, 30.0, zero_gap <= 1e-8 and spd_ok and grad_worst <= 1e-6,
             "uniform targets give |alpha|, |entropy| <= %.1e (tol 1e-8); "
             "100 Hessians positive definite: %s; gradient vs central "
             "difference %.1e (tol 1e-6)" % (zero_gap, spd_ok, grad_worst),
             t0)


def test_criterion_6_star23_feasibility_targets():
    t0 = time.perf_counter()
    lower, upper = region_star23_boundary(np.linspace(0.0, 1.0, 33))
    corners = {(0.0, 0.0), (1.0, 1.0)}
    ends_ok = (
        {tuple(lower.points[0]), tuple(lower.points[-1])} == corners
        and {tuple(upper.points[0]), tuple(upper.points[-1])} == corners)
    sol = solve_star(STAR23, (0.5, 0.53))
    ach = np.abs(sol.densities - (0.5, 0.53)).max()
    # (a) the lower curve crosses rho_*2 = 1/2 at rho_**3 = (sqrt(2)-1)/2
    bound = (np.sqrt(2.0) - 1.0) / 2.0
    low_pt = region_star23_boundary([1.0 - 1.0 / np.sqrt(2.0)])[0].points[0]
    bound_ok = np.abs(low_pt - (0.5, bound)).max() <= 1e-12
    # (b) (0.5, 0.2) lies below that point, so the solver must refuse it
    try:
        solve_star(STAR23, (0.5, 0.2))
        below_ok = False
        below = "(0.5, 0.2) returned a solution"
    except ConvergenceError as err:
        below_ok = (np.isfinite(err.residual) and err.residual > 0.0
                    and err.alpha is not None and err.alpha.shape == (2,))
        below = ("(0.5, 0.2) raised ConvergenceError (residual %.1e)"
                 % err.residual)
    # (c) its mirror image above the curve must be reached
    mirror = (0.5, 2.0 * bound - 0.2)
    above = np.abs(solve_star(STAR23, mirror).densities - mirror).max()
    _verdict(6, 60.0, ends_ok and ach <= 1e-3 and bound_ok and below_ok
             and above <= 1e-3,
             "boundary endpoints exact: %s; (0.5, 0.53) achieved to %.1e "
             "(tol 1e-3); lower boundary at rho_*2 = 0.5 is (%.8f, %.8f); "
             "%s; mirror (0.5, %.5f) achieved to %.1e (tol 1e-3)"
             % (ends_ok, ach, low_pt[0], low_pt[1], below, mirror[1],
                above), t0)


def test_criterion_7_staircase_cloud_inside_region():
    t0 = time.perf_counter()
    s, r = dimple()
    dimple_gap = max(abs(s - 0.653), abs(r - 0.278))
    f1 = region_123_321(np.linspace(0.0, 1.0, 65))["F1"].points
    ends_ok = (np.array_equal(f1[0], (0.0, 1.0))
               and np.array_equal(f1[-1], (1.0, 0.0)))

    def cubic(x):
        c = np.cbrt(x)
        return 1.0 - 3.0 * c * c + 2.0 * x

    # the attainable set is bounded above by the UPPER envelope of the
    # cubic arc and its mirror across y = x (the arcs cross at the
    # dimple), and below by x + y = 1/4; both arcs decrease, so shifting
    # the abscissa down by 3 sigma bounds the envelope over the whole
    # confidence interval
    td = np.linspace(0.0, 1.0, 4001)
    xs, ys = td ** 3, cubic(td ** 3)
    violations = 0
    for ia, a in enumerate(np.linspace(0.0, 1.0, 10)):
        for ib, frac in enumerate(np.linspace(0.0, 1.0, 10)):
            g = gamma_ab(a, frac * a / 2.0)
            e123 = density_mc(g, PatternSpec.parse("123"), 1_000_000,
                              1000 + 10 * ia + ib)
            e321 = density_mc(g, PatternSpec.parse("321"), 1_000_000,
                              2000 + 10 * ia + ib)
            x, y = e123.value, e321.value
            xlo = min(max(x - 3.0 * e123.stderr, 0.0), 1.0)
            env = max(cubic(xlo), float(np.interp(xlo, ys[::-1], xs[::-1])))
            if y > env + 3.0 * e321.stderr:
                violations += 1
            if x + y < 0.25 - 3.0 * (e123.stderr + e321.stderr):
                violations += 1
    _verdict(7, 300.0,
             dimple_gap <= 1e-3 and ends_ok and violations == 0,
             "dimple within %.1e of (0.653, 0.278) (tol 1e-3), cubic "
             "endpoints exact: %s, boundary violations beyond 3 sigma in "
             "100-point staircase sweep at 1e6 trials: %d"
             % (dimple_gap, ends_ok, violations), t0)


def test_criterion_8_pde_residuals():
    t0 = time.perf_counter()
    alpha, rms = pde_residual_12(star12_grid(-2.0, 256))
    u = uniform_grid(64)
    a12, r12 = pde_residual_12(u)
    a123, r123 = pde_residual_123(u)
    flat_alpha = max(abs(a12), abs(a123))
    flat_rms = max(r12, r123)
    ok = (abs(alpha + 2.0) <= 1e-3 and rms <= 1e-3
          and flat_alpha <= 1e-6 and flat_rms <= 1e-6)
    _verdict(8, 30.0, ok,
             "star grid m = 256: fitted weight %.5f (true -2), rms "
             "residual %.1e (tol 1e-3); uniform grid: weights <= %.1e, "
             "residuals <= %.1e (tol 1e-6)"
             % (alpha, rms, flat_alpha, flat_rms), t0)


def test_criterion_9_structural_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)

    def marg_err(g):
        return max(np.abs(g.w.sum(axis=0) - 1.0 / g.m).max(),
                   np.abs(g.w.sum(axis=1) - 1.0 / g.m).max())

    built = [
        uniform_grid(32),
        grid_from_permutation(Permutation(rng.permutation(17) + 1)),
        star12_grid(-1.5, 64),
        maximize_entropy(ConstraintSet.of(("12", 0.35)), 16).grid,
        heat_flow(_random_grid(16, rng), 0.05),
        reconstruct(star_family(((1, 0),), (-1.0,), 32, 32), 16).grid,
    ]
    marg_worst = max(marg_err(g) for g in built)

    g = _random_grid(12, rng)
    total = sum(density_grid_exact(g, PatternSpec.parse(p))
                for p in ("123", "132", "213", "231", "312", "321"))
    sum_gap = abs(total - 1.0)

    mc_bad = 0
    pats = ("12", "21", "123", "231", "321", "132")
    for i in range(50):
        gi = _random_grid(int(rng.integers(2, 8)), rng)
        tau = PatternSpec.parse(pats[i % len(pats)])
        est = density_mc(gi, tau, 20000, int(rng.integers(1 << 31)))
        gap = abs(est.value - density_grid_exact(gi, tau))
        if gap > 3.0 * max(est.stderr, 1e-12):
            mc_bad += 1

    flow_src = _random_grid(20, rng)
    ents, flow_marg = [], 0.0
    for t in (0.0, 0.01, 0.05, 0.2, 1.0):
        out = heat_flow(flow_src, t)
        flow_marg = max(flow_marg, marg_err(out))
        ents.append(entropy_grid(out))
    flow_ok = flow_marg <= 1e-12 and all(
        b - a >= -1e-12 for a, b in zip(ents, ents[1:]))

    perm_gap = 0.0
    for n in (2, 5, 17, 40):
        pg = grid_from_permutation(Permutation(rng.permutation(n) + 1))
        perm_gap = max(perm_gap, abs(entropy_grid(pg) + np.log(n)))

    ok = (marg_worst <= 1e-12 and sum_gap <= 1e-12 and mc_bad == 0
          and flow_ok and perm_gap <= 1e-12)
    _verdict(9, 60.0, ok,
             "marginal error %.1e over 6 constructors (tol 1e-12); "
             "triple densities sum to 1 within %.1e; Monte Carlo beyond "
             "3 sigma on %d/50 random grids; heat flow keeps marginals "
             "(%.1e) with nondecreasing entropy: %s; permutation grid "
             "entropy vs -log n gap %.1e"
             % (marg_worst, sum_gap, mc_bad, flow_marg, flow_ok, perm_gap),
             t0)

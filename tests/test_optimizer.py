"""Entropy maximization under density constraints, and the stationarity
residuals of the resulting grids.

The one-constraint problem has a closed-form answer: constraining the
ascent-pair density to rho gives entropy H(r(rho)) and the truncated-
exponential permuton, so the optimizer's grid and objective can be scored
exactly.  Stationarity is checked through the Euler-Lagrange residuals: the
analytic model grid must solve its own equation to discretization accuracy,
the uniform grid solves both equations exactly, and a grid optimized for
one pattern must NOT satisfy the equation of a different constraint family
(negative control), which guards against residuals that vanish identically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutons import (
    ConstraintSet,
    ConvergenceError,
    GridPermuton,
    OptimizerResult,
    density_grid_exact,
    entropy_grid,
    maximize_entropy,
    PatternSpec,
    pde_residual_12,
    pde_residual_123,
    rebalance_marginals,
    rect_distance,
    star12_entropy,
    star12_grid,
    star12_r_from_rho,
    coarsen,
    uniform_grid,
)
from permutons.optimizer import _Iterate, _NewtonSystem, _constraint_basis, _tangent
from permutons.patterns import _densities, _hessian_operator


def test_constraint_set_validation():
    with pytest.raises(ValueError):
        ConstraintSet.of(("12", 1.2))
    with pytest.raises(ValueError):
        ConstraintSet.of(("2413", 0.1))
    with pytest.raises(ValueError):
        ConstraintSet.of(("12", 0.4), ("12", 0.5))
    with pytest.raises(ValueError):
        ConstraintSet.of()
    with pytest.raises(ValueError):
        maximize_entropy(ConstraintSet.of(("12", 0.4)), 4)


def test_already_satisfied_constraints():
    # the uniform start satisfies these targets; the optimizer must keep it
    cs = ConstraintSet.of(("12", 0.5), ("123", 1.0 / 6.0))
    res = maximize_entropy(cs, 16)
    assert res.converged
    assert np.abs(res.residuals).max() <= 1e-6
    assert res.entropy >= -1e-8
    assert rect_distance(res.grid, uniform_grid(16)) <= 1e-6


@pytest.mark.parametrize("rho", [0.2, 0.3, 0.4, 0.6, 0.8])
def test_single_constraint_matches_closed_form(rho):
    res = maximize_entropy(ConstraintSet.of(("12", rho)), 32)
    assert res.converged
    assert abs(res.achieved[0] - rho) <= 1e-4
    target_H = star12_entropy(star12_r_from_rho(rho))
    # the coarse grid can only lose entropy relative to the smooth optimum
    assert res.entropy <= target_H + 1e-9
    assert abs(res.entropy - target_H) <= 5e-3


def test_single_constraint_recovers_model_grid():
    res = maximize_entropy(ConstraintSet.of(("12", 0.3)), 32)
    analytic = star12_grid(star12_r_from_rho(0.3), 32)
    assert rect_distance(res.grid, analytic) <= 0.02
    # also against the coarsening of a finer analytic grid
    fine = coarsen(star12_grid(star12_r_from_rho(0.3), 128), 32)
    assert rect_distance(res.grid, fine) <= 0.02


def test_result_structure_and_invariants():
    res = maximize_entropy(ConstraintSet.of(("123", 0.25)), 16)
    assert isinstance(res, OptimizerResult)
    assert res.converged
    w = res.grid.w
    assert np.abs(w.sum(axis=0) - 1.0 / 16.0).max() <= 1e-10
    assert np.abs(w.sum(axis=1) - 1.0 / 16.0).max() <= 1e-10
    assert w.min() > 0.0
    assert res.entropy == pytest.approx(entropy_grid(res.grid), abs=1e-12)
    assert density_grid_exact(res.grid, PatternSpec.parse("123")) == \
        pytest.approx(res.achieved[0], abs=1e-12)
    assert res.iterations > 0
    assert len(res.multipliers) == 1


def test_accepted_merit_values_nondecrease():
    for pairs in ((("12", 0.35),), (("321", 0.8),), (("12", 0.55), ("123", 0.2))):
        res = maximize_entropy(ConstraintSet.of(*pairs), 16)
        assert res.converged and res.history
        for entry in res.history:
            # each accepted step raises the l1 merit H - nu |c|_1 at the
            # step's penalty nu, up to rounding
            assert entry["step_length"] > 0.0
            assert entry["merit_gain"] >= -1e-15
        # the penalty never falls
        penalties = [e["penalty"] for e in res.history]
        assert penalties == sorted(penalties)
        last = res.history[-1]
        assert last["merit"] == pytest.approx(
            res.entropy - last["penalty"] * np.abs(res.residuals).sum(), abs=1e-12)
        # Newton steps drive the worst constraint residual down overall
        assert last["max_residual"] <= res.history[0]["max_residual"]


def test_seeded_runs_are_reproducible():
    cs = ConstraintSet.of(("12", 0.42))
    a = maximize_entropy(cs, 16, restarts=1, seed=5)
    b = maximize_entropy(cs, 16, restarts=1, seed=5)
    assert np.array_equal(a.grid.w, b.grid.w)
    assert a.entropy == b.entropy


def test_unreachable_target_reports_failure():
    # no 8x8 step measure has ascent density 0.99 (the cap is 1 - 1/(2m));
    # the optimizer must say so before any Newton step rather than spend
    # its budget or claim success
    res = maximize_entropy(ConstraintSet.of(("12", 0.99)), 8,
                           max_inner=200, max_outer=6)
    assert not res.converged
    assert res.history == [] and res.iterations == 0
    assert res.stop == "infeasible at resolution m = 8: rho_12 <= 0.9375"
    assert np.array_equal(res.grid.w, uniform_grid(8).w)
    assert res.achieved[0] == 0.5


def test_step_limit_reports_failure():
    # 123 = 0.6 at m = 16 needs six Newton steps: five stop at the limit
    # and say so rather than claim success
    res = maximize_entropy(ConstraintSet.of(("123", 0.6)), 16,
                           max_inner=200, max_outer=5)
    assert not res.converged
    assert len(res.history) == res.iterations == 5
    assert res.stop == res.history[-1]["stop"] == "no convergence in 5 Newton steps"
    # one projected CG solve per step, which max_inner caps
    assert all(e["cg_iterations"] <= 200 for e in res.history)


def test_inner_limit_caps_every_step():
    # at max_inner=3 the cap binds: steps that need more stop at exactly 3
    res = maximize_entropy(ConstraintSet.of(("123", 0.6)), 16,
                           max_inner=3, max_outer=5)
    steps = [e["cg_iterations"] for e in res.history]
    assert len(steps) == 5 and max(steps) == 3 and all(i <= 3 for i in steps), steps


@pytest.mark.parametrize("pairs,m,cause", [
    ((("123", 0.95),), 16, "rho_123 <= 0.910156"),
    ((("321", 0.92),), 16, "rho_321 <= 0.910156"),
    ((("12", 0.4), ("*1", 0.95)), 8, "rho_*1 <= 0.9375"),
    ((("213", 0.9),), 8, "rho_213 <= 0.828125"),
], ids=["123", "321", "*1", "213"])
def test_targets_beyond_the_resolution_bound_stop_at_once(pairs, m, cause):
    # however many restarts, a target over the bound costs no Newton step
    res = maximize_entropy(ConstraintSet.of(*pairs), m, restarts=2)
    assert not res.converged and res.iterations == 0
    assert res.stop == f"infeasible at resolution m = {m}: {cause}"


@pytest.mark.parametrize("m", [8, 9, 16, 32, 64, 257])
def test_resolution_bound_against_the_identity_grid(m):
    # the identity grid attains the k = 2 bound and stays under the k = 3
    # one; its rho_123 is (1 - 1/m)(1 - 2/m) + 3 (1 - 1/m) / (2m) + 1/(6m^2)
    ident = GridPermuton(np.eye(m) / m)
    rho12 = density_grid_exact(ident, PatternSpec.parse("12"))
    rho123 = density_grid_exact(ident, PatternSpec.parse("123"))
    closed = (1 - 1 / m) * (1 - 2 / m) + 3 * (1 - 1 / m) / (2 * m) + 1 / (6 * m * m)
    assert rho123 == pytest.approx(closed, abs=1e-13)
    cap2 = 1 - (1 / m) / 2
    cap3 = 1 - (1 - (1 - 1 / m) * (1 - 2 / m)) / 2
    assert rho12 == pytest.approx(cap2, abs=1e-13)
    assert closed <= cap3
    # a target just over each bound is rejected, one just under it is not
    for label, cap in (("12", cap2), ("*2", cap2), ("123", cap3), ("231", cap3)):
        over = maximize_entropy(ConstraintSet.of((label, cap + 1e-9)), m, max_outer=1)
        assert over.iterations == 0 and over.stop.startswith(
            f"infeasible at resolution m = {m}: rho_{label} <= ")
        under = maximize_entropy(ConstraintSet.of((label, cap - 1e-9)), m, max_outer=1)
        assert under.iterations == 1
    # star classes with several members are left to the solver
    assert maximize_entropy(ConstraintSet.of(("**3", (cap3 + 1) / 2)), m,
                            max_outer=1).iterations == 1


@pytest.mark.parametrize("kwargs", [
    {"restarts": -1}, {"max_outer": 0}, {"max_inner": 0},
    {"tol_constraint": float("nan")}, {"tol_constraint": 0.0},
    {"tol_grad": float("inf")}, {"tol_grad": -1e-6},
], ids=["restarts=-1", "max_outer=0", "max_inner=0", "tol_constraint=nan",
        "tol_constraint=0", "tol_grad=inf", "tol_grad<0"])
def test_invalid_arguments_are_rejected(kwargs):
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=name):
        maximize_entropy(ConstraintSet.of(("12", 0.3)), 8, **kwargs)


def test_fractional_counts_are_refused_by_name():
    cons = ConstraintSet.of(("12", 0.3))
    with pytest.raises(ValueError, match="m must be an integer"):
        maximize_entropy(cons, 16.5)
    for name in ("max_inner", "max_outer", "restarts"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            maximize_entropy(cons, 8, **{name: 2.5})


@pytest.mark.parametrize("exc", [
    ConvergenceError("marginal rebalancing did not reach 1.0e-13", 1.0),
    ValueError("cannot rebalance: non-finite mass"),
], ids=["ConvergenceError", "ValueError"])
def test_stalled_projection_stops_with_last_accepted_iterate(monkeypatch, exc):
    # a Sinkhorn stall or a refused input inside a trial step ends the run
    # unconverged, with the cause recorded, instead of escaping
    import permutons.optimizer as opt

    real, calls, projected = opt.rebalance_marginals, [], []

    def stalls_on_third_call(w, *args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise exc
        projected.append(real(w, *args, **kwargs))
        return projected[-1]

    monkeypatch.setattr(opt, "rebalance_marginals", stalls_on_third_call)
    res = maximize_entropy(ConstraintSet.of(("123", 0.3)), 16)
    # the run converges in more than two steps, so the stall hits a trial
    assert not res.converged
    assert len(calls) == 3 and len(res.history) == res.iterations == 3
    assert res.history[-1]["stop"] == f"projection stalled: {exc}"
    assert res.history[-1]["step_length"] == 0.0
    assert all(e["step_length"] > 0.0 for e in res.history[:-1])
    # the returned grid is a projected trial, the one accepted last, and
    # the recorded merit is its merit
    assert any(np.array_equal(res.grid.w, w) for w in projected)
    last = res.history[-1]
    assert last["merit"] == pytest.approx(
        res.entropy - last["penalty"] * abs(res.residuals[0]), abs=1e-12)
    assert res.achieved[0] == density_grid_exact(res.grid, PatternSpec.parse("123"))


def test_two_constraint_problem():
    cs = ConstraintSet.of(("12", 0.55), ("123", 0.2))
    res = maximize_entropy(cs, 16)
    # thousands of first-order iterations, a handful of Newton steps;
    # counted in steps so the bound does not depend on the host
    assert res.converged and res.iterations == 4
    assert sum(e["cg_iterations"] for e in res.history) == 15
    assert np.abs(res.residuals).max() <= 1e-6
    # entropy cannot exceed the single-constraint optimum for either target
    assert res.entropy <= star12_entropy(star12_r_from_rho(0.55)) + 1e-9


@pytest.mark.parametrize("label,target,m", [
    ("123", 0.6, 16), ("123", 0.8, 16), ("321", 0.8, 16),
    ("123", 0.4, 32), ("321", 0.4, 32),
])
def test_formerly_slow_targets_converge_in_few_steps(label, target, m):
    # targets the benchmark ladder left out because first-order ascent took
    # 10,000 to 30,000 iterations on each
    res = maximize_entropy(ConstraintSet.of((label, target)), m)
    assert res.converged and res.iterations <= 12
    w = res.grid.w
    assert np.abs(w.sum(axis=0) - 1.0 / m).max() <= 1e-12
    assert np.abs(w.sum(axis=1) - 1.0 / m).max() <= 1e-12
    assert abs(density_grid_exact(res.grid, PatternSpec.parse(label)) - target) <= 1e-6


def test_history_records_one_newton_step_per_entry():
    res = maximize_entropy(ConstraintSet.of(("123", 0.7)), 16)
    assert res.converged
    assert [e["step"] for e in res.history] == list(range(1, res.iterations + 1))
    for e in res.history:
        assert {"max_residual", "grad_norm", "step_length", "cg_iterations",
                "trial_points", "negative_curvature", "merit", "merit_gain",
                "penalty"} <= set(e)
        assert 0.0 < e["step_length"] <= 1.0 and e["cg_iterations"] >= 0
        assert e["trial_points"] >= 1
        assert "stop" not in e
    last = res.history[-1]
    assert last["max_residual"] == np.abs(res.residuals).max() < 1e-6
    assert last["grad_norm"] < 1e-6


def test_dependent_constraints_with_consistent_targets_converge():
    # "12" and "*2" are one density under two labels: the step keeps only
    # their sum, whose tangent gradient is not zero, and so splits the
    # multiplier evenly
    single = maximize_entropy(ConstraintSet.of(("12", 0.4)), 16)
    twice = maximize_entropy(ConstraintSet.of(("12", 0.4), ("*2", 0.4)), 16)
    assert twice.converged
    assert twice.multipliers[0] == pytest.approx(twice.multipliers[1], abs=1e-12)
    assert twice.multipliers.sum() == pytest.approx(single.multipliers[0], abs=1e-9)
    assert twice.entropy == pytest.approx(single.entropy, abs=1e-12)
    # rho_123 + rho_213 = rho_**3: the multipliers stay orthogonal to the
    # dependency and match those of the independent pair
    triple = maximize_entropy(
        ConstraintSet.of(("123", 0.2), ("213", 0.15), ("**3", 0.35)), 16)
    pair = maximize_entropy(ConstraintSet.of(("123", 0.2), ("213", 0.15)), 16)
    assert triple.converged and np.abs(triple.residuals).max() <= 1e-6
    lam = triple.multipliers
    assert lam @ [1.0, 1.0, -1.0] == pytest.approx(0.0, abs=1e-9)
    assert lam[:2] + lam[2] == pytest.approx(pair.multipliers, abs=1e-6)
    assert triple.entropy == pytest.approx(pair.entropy, abs=1e-9)


@pytest.mark.parametrize("pairs,miss", [
    ((("12", 0.4), ("*2", 0.45)), 0.025),
    ((("123", 0.2), ("213", 0.15), ("**3", 0.4)), 0.05 / 3),
    ((("1", 0.5),), 0.5),
], ids=["12+*2", "123+213+**3", "constant"])
def test_inconsistent_targets_stop_unconverged(pairs, miss):
    res = maximize_entropy(ConstraintSet.of(*pairs), 16)
    assert not res.converged
    stop = res.history[-1]["stop"]
    assert stop.startswith("inconsistent targets: ")
    assert float(stop.rsplit(" ", 1)[1]) == pytest.approx(miss, rel=1e-3)
    assert res.iterations == len(res.history) <= 3


_SPECS = ["1", "12", "21", "*1", "*2", "123", "132", "213", "231", "312",
          "321", "**1", "**2", "**3"]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 12), st.sampled_from(_SPECS), st.integers(0, 2**32 - 1))
def test_central_difference_is_the_exact_hessian_vector_product(m, label, seed):
    # every k <= 3 density is a polynomial of degree k in the cell masses,
    # so its gradient is quadratic and the central difference does not
    # depend on the step: the solver's Hessian-vector products rely on this.
    # The smallest step's rounding error grows like 1 / min(w); the grids
    # here keep every cell within a few times 1/m^2, like the solver's
    # iterates.
    rng = np.random.default_rng(seed)
    w = rebalance_marginals(np.exp(0.5 * rng.standard_normal((m, m))))
    v = rng.standard_normal((m, m))
    v = v - v.mean(axis=0) - v.mean(axis=1)[:, None] + v.mean()
    tau = (PatternSpec.parse(label),)
    base = w.min() / np.abs(v).max()
    hvps = []
    for s in (1e-3 * base, base, 10.0 * base):
        gp = _densities(w + s * v, tau, True)[1][0]
        gm = _densities(w - s * v, tau, True)[1][0]
        hvps.append((gp - gm) / (2.0 * s))
    scale = max(np.abs(h).max() for h in hvps)
    for h in hvps[1:]:
        assert np.abs(h - hvps[0]).max() <= 1e-9 * scale


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 12),
       st.lists(st.sampled_from(_SPECS), min_size=1, max_size=4, unique=True),
       st.integers(0, 2**32 - 1))
def test_hessian_operator_is_the_weighted_central_difference(m, labels, seed):
    # the solver's operator v -> sum_i lam_i Hess(rho_i) v, built once per
    # Newton step, against the central difference of the kernel's gradients
    # (exact by the test above), on a batch of directions; it is symmetric
    rng = np.random.default_rng(seed)
    w = rebalance_marginals(np.exp(0.5 * rng.standard_normal((m, m))))
    taus = tuple(PatternSpec.parse(label) for label in labels)
    lam = rng.standard_normal(len(taus))
    hess = _hessian_operator(w, taus, lam)
    vs = rng.standard_normal((3, m, m))
    kvs = [hess(v) for v in vs]
    for v, kv in zip(vs, kvs):
        s = w.min() / np.abs(v).max()
        gp = _densities(w + s * v, taus, True)[1]
        gm = _densities(w - s * v, taus, True)[1]
        ref = np.tensordot(lam, gp - gm, axes=1) / (2.0 * s)
        assert np.abs(kv - ref).max() <= 1e-9 * max(np.abs(ref).max(), 1e-300)
    for i in range(len(vs)):
        for j in range(i):
            scale = np.linalg.norm(vs[i]) * max(np.linalg.norm(kvs[j]),
                                                np.linalg.norm(kvs[i]), 1e-300)
            assert abs(np.vdot(vs[i], kvs[j]) - np.vdot(kvs[i], vs[j])) <= 1e-12 * scale


def test_kernel_calls_are_the_trial_points(monkeypatch):
    # Hessian-vector products never call the density kernel: it runs once
    # for the start and once per trial point the line searches evaluate
    import permutons.patterns as pat

    real, calls = pat._densities, []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(pat, "_densities", counted)
    res = maximize_entropy(ConstraintSet.of(("12", 0.55), ("123", 0.2)), 16)
    assert res.converged
    trials = [e["trial_points"] for e in res.history]
    assert all(t >= 1 for t in trials)
    assert len(calls) == 2 * (1 + sum(trials))


def test_tangent_is_the_mean_form_bit_for_bit():
    rng = np.random.default_rng(5)
    for shape in ((5, 5), (16, 16), (33, 33), (3, 16, 16), (2, 32, 32)):
        for _ in range(20):
            g = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5)
            ref = (g - g.mean(axis=-1, keepdims=True) - g.mean(axis=-2, keepdims=True)
                   + g.mean(axis=(-2, -1), keepdims=True))
            assert np.array_equal(_tangent(g), ref)


def test_pde_residuals_on_uniform_grid():
    for resfun in (pde_residual_12, pde_residual_123):
        alpha, rms = resfun(uniform_grid(64))
        assert alpha == 0.0
        assert rms == 0.0
        assert not np.signbit(alpha)


def test_pde12_residual_on_model_grid():
    r = -2.0
    alpha, rms = pde_residual_12(star12_grid(r, 256))
    assert rms <= 1e-3
    assert alpha == pytest.approx(r, abs=1e-3)


def test_pde12_residual_on_optimized_grid():
    res = maximize_entropy(ConstraintSet.of(("12", 0.3)), 64)
    alpha, rms = pde_residual_12(res.grid)
    assert rms <= 5e-2
    assert alpha == pytest.approx(star12_r_from_rho(0.3), abs=5e-2)


def test_pde123_residual_on_optimized_grid():
    res = maximize_entropy(ConstraintSet.of(("123", 0.25)), 64)
    assert res.converged
    _, rms = pde_residual_123(res.grid)
    assert rms <= 5e-2


def test_pde123_negative_control():
    # a grid stationary for the pair constraint is far from stationary for
    # the triple equation; the residual must see that
    _, rms = pde_residual_123(star12_grid(-2.0, 128))
    assert rms >= 0.5


def test_pde_residual_input_validation():
    with pytest.raises(ValueError):
        pde_residual_12(uniform_grid(4))


def _tangent_basis(m: int) -> np.ndarray:
    """An orthonormal basis of the tangent space T, as the m^2 x (m - 1)^2
    columns of a matrix."""
    u, _, _ = np.linalg.svd(_tangent(np.eye(m * m).reshape(-1, m, m)).reshape(m * m, -1))
    return u[:, :(m - 1) ** 2]


def _dense_kkt(metric: np.ndarray, a: np.ndarray, g: np.ndarray, cb: np.ndarray):
    """dw and mu of metric dw + a^T mu = g, a dw = -cb, by one dense solve."""
    d, r = metric.shape[0], a.shape[0]
    kkt = np.block([[metric, a.T], [a, np.zeros((r, r))]])
    sol = np.linalg.solve(kkt, np.concatenate([g, -cb]))
    return sol[:d], sol[d:]


@st.composite
def _newton_problems(draw):
    """A grid of side 3 to 6, uniform in about a quarter of the draws, one to
    three patterns (the dependent pair 12 and *2 among them in about half
    the draws), targets and multipliers of several scales, zero included."""
    m = draw(st.integers(3, 6))
    flat = draw(st.integers(0, 3)) == 0
    labels = draw(st.lists(st.sampled_from(_SPECS[1:]), min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        labels = ["12", "*2"] + [lbl for lbl in labels if lbl not in ("12", "*2")][:1]
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([0.0, 0.1, 1.0, 10.0, 1e3, 1e5]))
    return m, flat, tuple(labels), seed, scale


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_newton_problems())
def test_newton_step_is_the_dense_kkt_solution(problem):
    # the projected PCG step against a dense solve of the KKT system on T:
    # K dw + A^T mu = g, A dw = -c_b, or, where the solve meets negative
    # curvature, the same system with K replaced by the entropy metric diag(1/w)
    m, flat, labels, seed, scale = problem
    rng = np.random.default_rng(seed)
    w = rebalance_marginals(np.exp(0.5 * rng.standard_normal((m, m))))
    if flat:
        w = np.full((m, m), 1.0 / (m * m))
    patterns = tuple(PatternSpec.parse(lbl) for lbl in labels)
    cur = _Iterate(w, patterns, rng.uniform(0.05, 0.95, len(labels)))
    basis, _ = _constraint_basis(cur)
    lam = scale * rng.standard_normal(len(labels))
    system = _NewtonSystem(w, patterns, lam, 10_000)
    dw, lam_new = system.newton_step(cur, basis)

    u = _tangent_basis(m)
    a = (basis.T @ _tangent(cur.grads).reshape(len(labels), -1)) @ u
    g, cb = u.T @ _tangent(cur.gH).ravel(), basis.T @ cur.c
    if system.truncated:
        metric = u.T @ (u / w.reshape(-1, 1))
    else:
        metric = u.T @ np.array([system.apply(col.reshape(m, m)).ravel() for col in u.T]).T
    v, mu = _dense_kkt(metric, a, g, cb)
    want_dw, want_lam = (u @ v).reshape(m, m), basis @ mu
    assert np.abs(dw - want_dw).max() <= 1e-8 * np.abs(want_dw).max()
    assert np.abs(lam_new - want_lam).max() <= 1e-8 * max(np.abs(want_lam).max(), 1e-300)
    if scale == 0.0:
        # K is the entropy metric, the preconditioner itself: one iteration
        # ends the solve, and none is needed where g = 0 (the uniform grid)
        assert system.cg_iterations == (0 if flat else 1)
    # the step lies in T and solves the linearized constraints
    assert np.abs(_tangent(dw) - dw).max() <= 1e-12 * np.abs(dw).max()
    assert np.abs(a @ (u.T @ dw.ravel()) + cb).max() <= 1e-8 * np.abs(cb).max() + 1e-12


@pytest.mark.parametrize("pairs,kwargs", [
    ((("12", 0.55), ("123", 0.2)), {}),
    ((("123", 0.7),), {}),
    ((("123", 0.6),), {"max_inner": 5, "max_outer": 6}),
], ids=["12+123", "123=0.7", "123=0.6-capped"])
def test_one_hessian_product_per_cg_iteration_and_one_for_the_start(monkeypatch, pairs, kwargs):
    # a Newton step with lam != 0 applies the Hessian once to the particular
    # solution and once per CG iteration of its one projected solve
    import permutons.optimizer as opt

    real, counts = opt._hessian_operator, []

    def counted(*args):
        apply, i = real(*args), len(counts)
        counts.append(0)

        def wrapped(v):
            counts[i] += 1
            return apply(v)

        return wrapped

    monkeypatch.setattr(opt, "_hessian_operator", counted)
    res = maximize_entropy(ConstraintSet.of(*pairs), 16, **kwargs)
    # the first step starts from lam = 0 and the uniform grid, where g = 0
    # and K is the entropy metric: the particular solution is the step
    assert res.history[0]["cg_iterations"] == 0
    assert counts == [e["cg_iterations"] + 1 for e in res.history[1:]]
    assert all(e["cg_iterations"] <= kwargs.get("max_inner", 10_000) for e in res.history)

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

from permutons import (
    ConstraintSet,
    OptimizerResult,
    density_grid_exact,
    entropy_grid,
    maximize_entropy,
    PatternSpec,
    pde_residual_12,
    pde_residual_123,
    rect_distance,
    star12_entropy,
    star12_grid,
    star12_r_from_rho,
    coarsen,
    uniform_grid,
)


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
    res = maximize_entropy(ConstraintSet.of(("12", 0.35)), 16)
    assert res.history
    for entry in res.history:
        series = entry["phi_series"]
        assert all(b >= a - 1e-12 for a, b in zip(series, series[1:]))
    # outer passes drive the worst constraint residual down overall
    assert res.history[-1]["max_residual"] <= res.history[0]["max_residual"]


def test_seeded_runs_are_reproducible():
    cs = ConstraintSet.of(("12", 0.42))
    a = maximize_entropy(cs, 16, restarts=1, seed=5)
    b = maximize_entropy(cs, 16, restarts=1, seed=5)
    assert np.array_equal(a.grid.w, b.grid.w)
    assert a.entropy == b.entropy


def test_unreachable_target_reports_failure():
    # no 8x8 step measure has ascent density 0.99 (the cap is 1 - 1/(2m));
    # the optimizer must stop and say so rather than claim success
    res = maximize_entropy(ConstraintSet.of(("12", 0.99)), 8,
                           max_inner=200, max_outer=6)
    assert not res.converged
    assert res.achieved[0] < 0.95
    assert len(res.history) == 6


@pytest.mark.parametrize("exc", [
    RuntimeError("marginal rebalancing did not reach 1.0e-13"),
    ValueError("cannot rebalance: non-finite mass"),
], ids=["RuntimeError", "ValueError"])
def test_stalled_projection_stops_with_last_accepted_iterate(monkeypatch, exc):
    # a Sinkhorn stall or a refused input inside a trial step ends the run
    # unconverged, with the cause recorded, instead of escaping
    import permutons.optimizer as opt

    real, calls, projected = opt.rebalance_marginals, [], []

    def stalls_on_seventh_call(w, *args, **kwargs):
        calls.append(1)
        if len(calls) == 7:
            raise exc
        projected.append(real(w, *args, **kwargs))
        return projected[-1]

    monkeypatch.setattr(opt, "rebalance_marginals", stalls_on_seventh_call)
    res = maximize_entropy(ConstraintSet.of(("123", 0.3)), 16)
    assert not res.converged
    assert len(calls) == 7 and len(res.history) == 1
    assert res.history[-1]["stop"] == f"projection stalled: {exc}"
    assert res.iterations == res.history[-1]["inner"]
    # the returned grid is a projected trial, and the one whose merit was
    # accepted last (first outer pass: lambda = 0, mu = 10)
    assert any(np.array_equal(res.grid.w, w) for w in projected)
    c = res.achieved[0] - 0.3
    assert res.history[-1]["phi_series"][-1] == pytest.approx(
        res.entropy - 5.0 * c * c, abs=1e-12)
    assert res.achieved[0] == density_grid_exact(res.grid, PatternSpec.parse("123"))


def test_zero_outer_budget_returns_the_start():
    res = maximize_entropy(ConstraintSet.of(("12", 0.3)), 8, max_outer=0)
    assert not res.converged
    assert res.history == [] and res.iterations == 0
    assert np.array_equal(res.grid.w, uniform_grid(8).w)
    assert res.achieved[0] == density_grid_exact(uniform_grid(8), PatternSpec.parse("12"))


def test_two_constraint_problem():
    cs = ConstraintSet.of(("12", 0.55), ("123", 0.2))
    res = maximize_entropy(cs, 16)
    assert res.converged
    assert np.abs(res.residuals).max() <= 1e-6
    # entropy cannot exceed the single-constraint optimum for either target
    assert res.entropy <= star12_entropy(star12_r_from_rho(0.55)) + 1e-9


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

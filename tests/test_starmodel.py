"""One-parameter ascent model and general star exponential families.

Independent references used here:

* Gauss-Legendre quadrature of the model density g recomputes the pair
  density as 2 * integral of g * G and the entropy as -integral of g log g;
  both must match the closed forms to near machine precision because g is
  analytic on the square.
* The ascent generating polynomial of S_n factors as prod_j (1 + z + ... +
  z^j), so an exact integer convolution reproduces the log-space table;
  its total is n! and the coefficient list is palindromic.
* At zero exponents every star family reduces to the uniform law, where
  the density of a (r, s) star pattern is known by pure combinatorics:
  the integral of x^(r+s) u^r (1-u)^s / (r! s!) is 1/((r+s+1) (r+s+1)!),
  and multiplying by (r+s+1)! gives 1/(r+s+1) choose weights, e.g. 1/2 and
  1/3 for the ascent pair and the two-star-max triple.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permutons import (
    ConvergenceError,
    evaluate_star,
    flat_family,
    mahonian_log_gf,
    region_star23_boundary,
    solve_star,
    star12_cdf,
    star12_density,
    star12_entropy,
    star12_grid,
    star12_r_from_rho,
    star12_rho,
    star_family,
    starmodel,
    uniform_grid,
)

STAR23 = ((1, 0), (2, 0))


def gl_nodes(n=96):
    xg, wg = np.polynomial.legendre.leggauss(n)
    return 0.5 * (xg + 1.0), 0.5 * wg


def test_zero_parameter_values_are_exact():
    assert star12_rho(0.0) == 0.5
    assert star12_entropy(0.0) == 0.0


def test_rho_symmetry_and_entropy_evenness():
    for r in (0.5, 2.0, 6.0):
        assert abs(star12_rho(r) + star12_rho(-r) - 1.0) <= 1e-9
        assert abs(star12_entropy(r) - star12_entropy(-r)) <= 1e-9


def test_rho_strictly_decreasing():
    rs = np.linspace(-8.0, 8.0, 81)
    vals = np.array([star12_rho(r) for r in rs])
    assert np.all(np.diff(vals) < 0.0)
    assert np.all((vals > 0.0) & (vals < 1.0))


def test_series_branch_joins_closed_form():
    # the evaluation switches expansions near zero; the closed form loses
    # ~eps/r^2 = 1e-10 digits to cancellation there, which bounds the seam
    for seam in (1e-3, -1e-3):
        lo, hi = seam * (1 - 1e-9), seam * (1 + 1e-9)
        assert abs(star12_rho(lo) - star12_rho(hi)) <= 2e-9
        assert abs(star12_entropy(lo) - star12_entropy(hi)) <= 2e-9


def test_r_from_rho_round_trip():
    for r in (-6.0, -2.0, -0.3, 1e-4, 0.0, 0.7, 3.0, 6.0):
        assert star12_r_from_rho(star12_rho(r)) == pytest.approx(r, abs=1e-9)
    for rho in (1e-3, 0.25, 0.5, 0.999):
        assert star12_rho(star12_r_from_rho(rho)) == pytest.approx(
            rho, abs=1e-12)
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            star12_r_from_rho(bad)
    # NaN once recursed without end through the r -> -r symmetry
    with pytest.raises(ValueError, match="range"):
        star12_rho(math.nan)


@pytest.mark.parametrize("call, match", [
    (lambda: star12_entropy(math.nan), "range"),
    (lambda: star12_entropy(math.inf), "range"),
    (lambda: star12_entropy(-math.inf), "range"),
    (lambda: star12_grid(math.nan, 4), "range"),
    (lambda: star12_grid(math.inf, 4), "range"),
    (lambda: star12_grid(1.0, 0), "m must be >= 1"),
    (lambda: star12_grid(0.0, -2), "m must be >= 1"),
    (lambda: star12_grid(1.0, 4.0), "integer"),
    # these need |r| = 4e4, past the 1e4 the bracket may grow to
    (lambda: star12_r_from_rho(0.99995), "rho = 0.99995 too extreme to bracket"),
    (lambda: star12_r_from_rho(5e-5), "rho = 5e-05 too extreme to bracket"),
])
def test_closed_forms_reject_bad_inputs(call, match):
    # each once returned NaN or failed inside math or numpy instead
    with pytest.raises(ValueError, match=match):
        call()


def test_density_quadrature_recovers_rho_and_entropy():
    x, wq = gl_nodes()
    X, Y = np.meshgrid(x, x, indexing="ij")
    W2 = np.outer(wq, wq)
    for r in (-4.0, -1.0, 1.0, 4.0):
        g = star12_density(r, X, Y)
        G = star12_cdf(r, X, Y)
        assert np.all(g > 0.0)
        assert np.sum(W2 * g) == pytest.approx(1.0, abs=1e-12)
        assert 2.0 * np.sum(W2 * g * G) == pytest.approx(
            star12_rho(r), abs=1e-12)
        assert -np.sum(W2 * g * np.log(g)) == pytest.approx(
            star12_entropy(r), abs=1e-12)


def test_cdf_marginals_and_zero_limit():
    x = np.linspace(0.0, 1.0, 17)
    for r in (-3.0, 0.7):
        assert np.abs(star12_cdf(r, x, np.ones_like(x)) - x).max() <= 1e-12
        assert np.abs(star12_cdf(r, np.ones_like(x), x) - x).max() <= 1e-12
        assert star12_cdf(r, 0.0, 0.5) == 0.0
    X, Y = np.meshgrid(x, x, indexing="ij")
    assert np.array_equal(star12_cdf(0.0, X, Y), X * Y)


def test_grid_cells_are_cdf_increments():
    r, m = -2.5, 8
    g = star12_grid(r, m)
    edges = np.linspace(0.0, 1.0, m + 1)
    X, Y = np.meshgrid(edges, edges, indexing="ij")
    F = star12_cdf(r, X, Y)
    ref = F[1:, 1:] - F[:-1, 1:] - F[1:, :-1] + F[:-1, :-1]
    assert np.abs(g.w - ref).max() <= 1e-13


def test_grid_zero_parameter_is_uniform():
    g = star12_grid(0.0, 12)
    assert np.array_equal(g.w, uniform_grid(12).w)


@pytest.mark.parametrize("r", [5e-324, -5e-324, 1e-200, -1e-200, 9.9e-101])
def test_tiny_rates_give_the_flat_model(r):
    # expm1(r x) expm1(r y) underflows at these rates, where the model is
    # flat to within rounding: every form must equal its r = 0 value
    x = np.linspace(0.0, 1.0, 9)
    X, Y = np.meshgrid(x, x, indexing="ij")
    assert np.array_equal(star12_cdf(r, X, Y), X * Y)
    assert np.array_equal(star12_density(r, X, Y), np.ones_like(X))
    assert np.array_equal(star12_grid(r, 16).w, uniform_grid(16).w)
    fam, zero = (star_family(((1, 0),), (a,), 16, 24) for a in (-r, 0.0))
    assert all(np.array_equal(a, b) for a, b in zip(fam.cols, zero.cols))
    # and the r = 0 family is flat up to the rounding of its quadrature
    worst = max(np.abs(a / b - 1.0).max() for a, b in zip(zero.cols, flat_family(16, 24).cols))
    assert worst <= 2 * np.finfo(float).eps


def test_grid_pair_density_tracks_closed_form():
    from permutons import PatternSpec, density_grid_exact
    tau = PatternSpec.parse("12")
    for r, m in ((-3.0, 16), (-3.0, 64), (1.5, 32)):
        gap = abs(density_grid_exact(star12_grid(r, m), tau) - star12_rho(r))
        assert gap <= 1.0 / m


def test_mahonian_small_table():
    lgf = mahonian_log_gf(3)
    assert np.allclose(np.exp(lgf), [1.0, 2.0, 2.0, 1.0], rtol=1e-14)


def test_mahonian_matches_integer_convolution():
    for n in (2, 5, 25, 60):
        coeffs = [1]
        for j in range(1, n):
            # multiply by 1 + z + ... + z^j exactly
            out = [0] * (len(coeffs) + j)
            for i, c in enumerate(coeffs):
                for d in range(j + 1):
                    out[i + d] += c
            coeffs = out
        lgf = mahonian_log_gf(n)
        assert lgf.size == len(coeffs) == n * (n - 1) // 2 + 1
        ref = np.array([math.log(c) for c in coeffs])
        assert np.abs(lgf - ref).max() <= 1e-13


def test_mahonian_total_and_palindrome():
    for n in (*range(1, 13), 40, 200, 499, 500):
        lgf = mahonian_log_gf(n)
        assert np.array_equal(lgf, lgf[::-1])
    from scipy.special import logsumexp
    for n in (4, 40, 200):
        assert logsumexp(mahonian_log_gf(n)) == pytest.approx(
            math.lgamma(n + 1), abs=1e-10)
    assert logsumexp(mahonian_log_gf(500)) == pytest.approx(
        math.lgamma(501), abs=1e-12)


def test_mahonian_smallest_counts_at_the_cap():
    # the first block of each stage spans the most in log, so a block
    # over- or underflow would reach these entries first
    n = 500
    lgf = mahonian_log_gf(n)
    exact = np.log([1, n - 1, n * (n - 1) // 2 - 1, n * (n * n - 7) // 6])
    assert np.abs(lgf[:4] - exact).max() <= 1e-13


def test_mahonian_input_validation():
    for n in (0, 501, 50.5, "3", 3.0, True):
        with pytest.raises(ValueError):
            mahonian_log_gf(n)
    assert np.array_equal(mahonian_log_gf(np.int64(30)), mahonian_log_gf(30))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 120), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_window_lse_matches_direct_logsumexp(size, j, seed):
    from scipy.special import logsumexp

    from permutons.oracle import _window_lse
    rng = np.random.default_rng(seed)
    # log-concave: non-increasing steps, a rise then a fall, spread <= 240
    steps = np.sort(rng.uniform(-2.0, 2.0, size))[::-1]
    a = np.cumsum(steps) + rng.uniform(-20.0, 20.0)
    out = _window_lse(a, j)
    ref = np.array([logsumexp(a[max(0, i - j):i + 1]) for i in range(size)])
    assert out.shape == a.shape
    assert np.abs(out - ref).max() <= 1e-13


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0))
@example(0.0)
@example(1.0)
@example(0.5)
@example(5e-324)
@example(2.2250738585072009e-308)
@example(1e-310)
@example(1.1102230246251565e-16)
@example(0.9999999999999999)
def test_dilogarithm_is_cephes_spence_bit_for_bit(z):
    from scipy.special import spence

    assert starmodel._li2(z) == 1.0 * spence(1.0 - z)


def test_dilogarithm_end_values():
    assert starmodel._li2(0.0) == 0.0
    assert starmodel._li2(1.0) == math.pi * math.pi / 6


@pytest.mark.parametrize("z", [-0.5, -5e-324, 1.0000000000000002, 2.0, math.inf,
                               math.nan])
def test_dilogarithm_refuses_arguments_outside_its_domain(z):
    with pytest.raises(ValueError, match=r"dilogarithm argument z = .* outside \[0, 1\]"):
        starmodel._li2(z)


@pytest.mark.parametrize("nquad", [96, 192, 768, 1536])
def test_stacked_contraction_is_the_tensordot_bit_for_bit(nquad):
    """alpha @ phi.transpose(1, 0, 2), the tilt of the star quadrature as one
    small BLAS product per x node, gives the bits of np.tensordot(alpha, phi,
    axes=1), one BLAS call over all of phi, on random tables of k = 1 to 4
    terms.  Platform-bound like golden.json: both sides run numpy's BLAS, and
    another BLAS or CPU may order the sums differently (einsum already does
    on this one)."""
    rng = np.random.default_rng(nquad)
    for k in (1, 2, 3, 4):
        phi = rng.standard_normal((k, nquad, nquad))
        alpha = rng.uniform(-5.0, 5.0, size=k)
        want = np.tensordot(alpha, phi, axes=1)
        assert np.array_equal(alpha @ phi.transpose(1, 0, 2), want), k


def test_free_energy_zero_and_uniform_gradient():
    ev = evaluate_star(STAR23, (0.0, 0.0))
    assert ev.free_energy == pytest.approx(0.0, abs=1e-14)
    assert ev.entropy == pytest.approx(0.0, abs=1e-14)
    assert ev.newton_iterations == 0
    # densities are k! times the gradient: 1/(2 * 2!) and 1/(3 * 3!)
    assert ev.densities[0] == pytest.approx(0.5, abs=1e-12)
    assert ev.densities[1] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_free_energy_matches_one_parameter_model():
    # a single (1, 0) term is the ascent model; a positive weight favors
    # the pattern, while the closed-form rate measures the opposite tilt,
    # so the two parameters are negatives of each other
    for a in (-3.0, 1.2):
        ev = evaluate_star([(1, 0)], [a])
        assert ev.densities[0] == pytest.approx(star12_rho(-a), abs=1e-10)
        assert ev.entropy == pytest.approx(star12_entropy(a), abs=1e-10)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    kfac = np.array([2.0, 6.0])
    for _ in range(4):
        alpha = rng.uniform(-4.0, 4.0, size=2)
        grad = evaluate_star(STAR23, alpha).densities / kfac
        eps = 1e-6
        for i in range(2):
            a_hi, a_lo = alpha.copy(), alpha.copy()
            a_hi[i] += eps
            a_lo[i] -= eps
            fd = (evaluate_star(STAR23, a_hi).free_energy
                  - evaluate_star(STAR23, a_lo).free_energy) / (2 * eps)
            assert grad[i] == pytest.approx(fd, abs=1e-6)


def test_hessian_positive_definite():
    rng = np.random.default_rng(83)
    for _ in range(20):
        hess = evaluate_star(STAR23, rng.uniform(-6.0, 6.0, size=2)).hessian
        assert np.abs(hess - hess.T).max() <= 1e-12
        assert np.linalg.eigvalsh(hess).min() > 0.0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(exps=st.sampled_from((((1, 0), (2, 0)), ((0, 1),), ((1, 1), (0, 2)))),
       data=st.data())
def test_evaluation_round_trips_through_solver(exps, data):
    # evaluating at alpha and solving for the densities it reports must
    # give alpha back, and the entropy is the Legendre dual of F
    alpha = np.array([data.draw(st.floats(-4.0, 4.0)) for _ in exps])
    ev = evaluate_star(exps, alpha)
    kfac = np.array([math.factorial(r + s + 1) for r, s in exps], float)
    assert ev.entropy == pytest.approx(
        ev.free_energy - float(alpha @ (ev.densities / kfac)), abs=1e-12)
    sol = solve_star(exps, ev.densities)
    assert np.abs(sol.alpha - alpha).max() <= 1e-6


def test_solver_at_uniform_targets():
    sol = solve_star(STAR23, (0.5, 1.0 / 3.0))
    assert np.abs(sol.alpha).max() <= 1e-8
    assert abs(sol.entropy) <= 1e-8
    assert np.abs(sol.densities - (0.5, 1.0 / 3.0)).max() <= 1e-10


def test_solver_interior_target():
    sol = solve_star(STAR23, (0.5, 0.53))
    assert np.abs(sol.densities - (0.5, 0.53)).max() <= 1e-10
    assert sol.alpha[0] == pytest.approx(-21.825635947717203, abs=1e-6)
    assert sol.alpha[1] == pytest.approx(57.832559905281009, abs=1e-6)
    assert sol.entropy == pytest.approx(-0.85295297934253811, abs=1e-9)
    assert sol.free_energy == pytest.approx(-1.2008191746626247, abs=1e-9)
    ev = evaluate_star(STAR23, sol.alpha)
    assert ev.free_energy == sol.free_energy
    assert ev.entropy == sol.entropy
    assert np.array_equal(ev.densities, sol.densities)
    assert np.linalg.eigvalsh(sol.hessian).min() > 0.0


def test_solver_single_constraint_matches_closed_form():
    rho = 0.3
    sol = solve_star(((1, 0),), (rho,))
    assert sol.alpha[0] == pytest.approx(-star12_r_from_rho(rho), abs=1e-8)
    assert sol.entropy == pytest.approx(
        star12_entropy(star12_r_from_rho(rho)), abs=1e-10)


def test_solver_reports_divergence_outside_region():
    with pytest.raises(ConvergenceError) as err:
        solve_star(STAR23, (0.5, 0.2), max_iter=60)
    assert err.value.residual > 0.0
    assert np.asarray(err.value.alpha).shape == (2,)


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_star(STAR23, (0.5,))
    with pytest.raises(ValueError):
        solve_star(((0, 0),), (0.5,))
    with pytest.raises(ValueError):
        solve_star(STAR23, (1.2, 0.3))


@pytest.mark.parametrize("kwargs, match", [
    # a NaN tolerance once ended the loop at once, reporting alpha = 0
    ({"tol": math.nan}, "tol must be positive and finite"),
    ({"tol": math.inf}, "tol must be positive and finite"),
    ({"tol": 0.0}, "tol must be positive and finite"),
    ({"tol": -1e-10}, "tol must be positive and finite"),
    # a NaN target once passed the (0, 1) check and "converged"
    ({"targets": [math.nan]}, "strictly inside"),
    # a negative budget once raised ConvergenceError
    ({"max_iter": -1}, "max_iter must be >= 0"),
    ({"max_iter": 2.5}, "max_iter must be an integer"),
    # a fractional exponent was once truncated, solving the (1, 0) model
    ({"exponents": [(1.5, 0)]}, "exponent r must be an integer"),
    ({"exponents": [(1, 0.5)]}, "exponent s must be an integer"),
    # no term, or one term twice (the check evaluate_star shares)
    ({"exponents": []}, "model needs at least one term"),
    ({"exponents": [(1, 0), (2, 0), (1, 0)], "targets": [0.3, 0.2, 0.3]},
     "exponent pairs must be distinct"),
])
def test_solver_rejects_bad_settings_by_name(kwargs, match):
    args = {"exponents": [(1, 0)], "targets": [0.3], **kwargs}
    with pytest.raises(ValueError, match=match):
        solve_star(**args)


def test_model_rejects_non_finite_coefficients():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            evaluate_star([(1, 0)], [bad])


@pytest.mark.parametrize("alpha", [[], [0.1], [0.1, 0.2, 0.3], [[0.1, 0.2]], 0.1])
def test_evaluation_needs_one_coefficient_per_exponent_pair(alpha):
    with pytest.raises(ValueError, match="one coefficient per exponent pair"):
        evaluate_star(STAR23, alpha)


def test_evaluation_takes_a_solution_as_it_is_returned():
    sol = solve_star(STAR23, (0.5, 0.4))
    ev = evaluate_star(sol.terms, sol.alpha)
    assert ev.terms == sol.terms and ev.newton_iterations == 0
    assert ev.free_energy == sol.free_energy and ev.entropy == sol.entropy
    assert np.array_equal(ev.densities, sol.densities)
    assert np.array_equal(ev.hessian, sol.hessian)
    # alpha is copied: the evaluation shares no array with the solution
    assert np.array_equal(ev.alpha, sol.alpha)
    assert not np.shares_memory(ev.alpha, sol.alpha)


def test_newton_stall_raises_convergence_error(monkeypatch):
    # with no step halving allowed, the first line search has no trial
    # that lowers the residual
    monkeypatch.setattr(starmodel, "_MAX_HALVINGS", 0)
    with pytest.raises(ConvergenceError, match=r"Newton stalled at residual 1\.[0-9]{3}e-01 "
                                               "after 0 iterations") as err:
        solve_star([(1, 0)], [0.3])
    assert err.value.residual == pytest.approx(0.1, abs=1e-12)
    assert np.array_equal(err.value.alpha, [0.0])


def test_model_refuses_a_fractional_exponent_by_name():
    # it was once truncated to the (1, 0, 0.2) model
    with pytest.raises(ValueError, match="exponent r must be an integer"):
        evaluate_star([(1.5, 0)], [0.2])
    with pytest.raises(ValueError, match="exponent s must be an integer"):
        evaluate_star([(1, True)], [0.2])


def test_quadrature_has_no_setting():
    # the node count is derived from the solver's own refinement check
    with pytest.raises(TypeError):
        evaluate_star([(1, 0)], [0.5], quad=96)
    with pytest.raises(TypeError):
        solve_star([(1, 0)], [0.3], quad=96)


def test_star23_boundary_curves():
    t = np.array([0.0, 0.5, 1.0])
    lower, upper = region_star23_boundary(t)
    assert lower.label == "star23-lower" and upper.label == "star23-upper"
    assert np.array_equal(lower.points[0], (0.0, 0.0))
    assert np.array_equal(lower.points[-1], (1.0, 1.0))
    # midpoint values of the parametrizations
    assert np.abs(lower.points[1] - (0.75, 0.5)).max() <= 1e-15
    assert np.abs(upper.points[1] - (0.75, 0.875)).max() <= 1e-15
    # both curves trace from one corner of the region to the other
    assert {tuple(upper.points[0]), tuple(upper.points[-1])} == {
        (0.0, 0.0), (1.0, 1.0)}


LOW = (np.sqrt(2.0) - 1.0) / 2.0  # the star23 lower curve at rho_*2 = 1/2


def test_boundary_brackets_solver_feasibility(monkeypatch):
    # halfway targets between the curves solve; targets below the lower
    # curve diverge
    t = np.linspace(0.0, 1.0, 257)
    lower, _ = region_star23_boundary(t)
    x = 0.5
    y_low = np.interp(x, lower.points[:, 0], lower.points[:, 1])
    inside = solve_star(STAR23, (x, y_low + 0.05))
    assert np.abs(inside.densities - (x, y_low + 0.05)).max() <= 1e-9
    with pytest.raises(ConvergenceError):
        solve_star(STAR23, (x, max(y_low - 0.05, 1e-3)), max_iter=60)
    # feasible targets just above the lower curve need more than the first
    # 96 nodes: at +2e-4 the solution fails the refined residual check there,
    # at +5e-5 the two quadrature resolutions disagree on F, and the solver
    # doubles the nodes until both pass
    for d in (1e-3, 2e-4, 5e-5):
        sol = solve_star(STAR23, (0.5, LOW + d))
        assert np.abs(sol.densities - (0.5, LOW + d)).max() <= 1e-9
    # capped at 96 nodes, the one quadrature error names the count reached
    monkeypatch.setattr(starmodel, "_MAX_QUAD", 96)
    with pytest.raises(ConvergenceError, match="quadrature") as err:
        solve_star(STAR23, (0.5, LOW + 2e-4))
    assert "quad = 96" in str(err.value)
    assert err.value.residual > 0.0
    assert np.asarray(err.value.alpha).shape == (2,)


def test_each_point_and_node_count_is_evaluated_once(monkeypatch):
    # near the lower curve the solver doubles the nodes twice and checks its
    # solution at 768, and the evaluation of its alpha stops at 384: each
    # check reuses the coarse parts its caller holds
    real, calls = starmodel._fe_parts, []

    def counted(exponents, alpha, nquad):
        calls.append((np.asarray(alpha).tobytes(), nquad))
        return real(exponents, alpha, nquad)

    monkeypatch.setattr(starmodel, "_fe_parts", counted)
    sol = solve_star(STAR23, (0.5, 0.20718))
    assert {n for _, n in calls} == {96, 192, 384, 768}
    assert len(set(calls)) == len(calls)
    calls.clear()
    evaluate_star(STAR23, sol.alpha)
    assert [n for _, n in calls] == [96, 192, 384]


def test_large_coefficients_evaluate_on_refined_nodes(monkeypatch):
    # the +5e-5 solution's alpha: 96 nodes disagree with 192 on F there
    alpha = (2.3e4, -7.7e4)
    ev = evaluate_star(STAR23, alpha)
    assert np.all((ev.densities > 0.0) & (ev.densities < 1.0))
    assert np.linalg.eigvalsh(ev.hessian).min() > 0.0
    monkeypatch.setattr(starmodel, "_MAX_QUAD", 96)
    with pytest.raises(ConvergenceError, match="quad = 96"):
        evaluate_star(STAR23, alpha)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.floats(math.log10(2.5e-5), -2.0))
def test_solver_near_the_lower_curve_hits_its_target_or_raises(log_d):
    # never an off-target solution: within 1e-9 of the target, or an error;
    # d = 10^log_d from 2.5e-5 to 1e-2 above the curve, evenly in log
    d = 10.0 ** log_d
    try:
        sol = solve_star(STAR23, (0.5, LOW + d))
    except ConvergenceError as err:
        assert err.residual > 0.0
    else:
        assert np.abs(sol.densities - (0.5, LOW + d)).max() <= 1e-9

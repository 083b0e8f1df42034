"""Pattern densities: exact grid sums against brute-force references.

Independent oracle for step measures: k i.i.d. points from a density grid
land in cells with the grid weights and carry independent uniform offsets,
so any ordering probability factors over cells.  For labeled points the
chance their x coordinates come sorted is 1 when the x-cells strictly
increase, 0 when they decrease anywhere, and picks up 1/g! per group of g
points sharing a cell (the within-cell offsets are exchangeable); the same
holds for y independently.  Summing cell products times these factors over
all ordered cell tuples and multiplying by k! gives the exact density in
O(m^(2k)) work.  That brute force is small enough to trust by inspection
and is compared here against the production O(m^2) channel sums.

Hand-enumerated counts: the ascents of 2 4 1 3 are (2,4), (2,3), (1,3), so
it has three occurrences of 1 2; the word 4 3 1 2 contains 3 2 1 twice, as
(4,3,1) and (4,3,2).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutons import (
    DensityEstimate,
    GridPermuton,
    Permutation,
    PatternSpec,
    density_grid_exact,
    density_grid_exact_with_grad,
    density_mc,
    densities,
    gamma_ab,
    grid_from_permutation,
    pattern_count,
    rebalance_marginals,
    star12_grid,
    uniform_grid,
)

ALL3 = ["123", "132", "213", "231", "312", "321"]


def random_grid(m, rng):
    w = rng.uniform(0.2, 1.0, size=(m, m))
    return GridPermuton(rebalance_marginals(w))


def order_factor(cells):
    """P(iid uniform offsets sort the given cell sequence), exact."""
    p = 1.0
    run = 1
    for a, b in zip(cells, cells[1:]):
        if b < a:
            return 0.0
        if b == a:
            run += 1
        else:
            p /= math.factorial(run)
            run = 1
    return p / math.factorial(run)


def brute_density(g, tau):
    """O(m^(2k)) reference: sum over ordered cell tuples (module doc)."""
    m = g.m
    k = len(tau)
    inv = [0] * k
    for pos, v in enumerate(tau):
        inv[v - 1] = pos
    total = 0.0
    cells = list(itertools.product(range(m), repeat=2))
    for combo in itertools.product(cells, repeat=k):
        wprod = 1.0
        for (i, j) in combo:
            wprod *= g.w[i, j]
        if wprod == 0.0:
            continue
        px = order_factor([c[0] for c in combo])
        if px == 0.0:
            continue
        py = order_factor([combo[inv[v]][1] for v in range(k)])
        total += wprod * px * py
    return math.factorial(k) * total


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_exact_pair_density_matches_brute_force(m):
    rng = np.random.default_rng(100 + m)
    g = random_grid(m, rng)
    for lab, tau in (("12", (1, 2)), ("21", (2, 1))):
        got = density_grid_exact(g, PatternSpec.parse(lab))
        assert got == pytest.approx(brute_density(g, tau), abs=1e-13)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_exact_triple_density_matches_brute_force(m):
    rng = np.random.default_rng(200 + m)
    g = random_grid(m, rng)
    for lab in ALL3:
        tau = tuple(int(c) for c in lab)
        got = density_grid_exact(g, PatternSpec.parse(lab))
        assert got == pytest.approx(brute_density(g, tau), abs=1e-12)


def test_brute_force_on_structured_grids():
    for g in (star12_grid(2.0, 4), grid_from_permutation(
            Permutation(np.array([2, 4, 1, 3])))):
        for lab in ("12", "132", "321"):
            tau = tuple(int(c) for c in lab)
            got = density_grid_exact(g, PatternSpec.parse(lab))
            assert got == pytest.approx(brute_density(g, tau), abs=1e-12)


def test_densities_sum_to_one():
    rng = np.random.default_rng(7)
    for m in (1, 3, 8, 16):
        g = random_grid(m, rng)
        s2 = sum(density_grid_exact(g, PatternSpec.parse(t))
                 for t in ("12", "21"))
        s3 = sum(density_grid_exact(g, PatternSpec.parse(t)) for t in ALL3)
        assert s2 == pytest.approx(1.0, abs=1e-12)
        assert s3 == pytest.approx(1.0, abs=1e-12)


def test_uniform_grid_densities():
    g = uniform_grid(6)
    assert density_grid_exact(g, PatternSpec.parse("12")) == pytest.approx(
        0.5, abs=1e-14)
    for lab in ALL3:
        assert density_grid_exact(g, PatternSpec.parse(lab)) == pytest.approx(
            1.0 / 6.0, abs=1e-14)


@pytest.mark.parametrize("m", [2, 5, 16])
def test_identity_grid_pair_density(m):
    # step measure of the identity: two points sharing a diagonal cell are
    # ascending only half the time, so the density is 1 - 1/(2m), not 1
    g = grid_from_permutation(Permutation(np.arange(1, m + 1)))
    d12 = density_grid_exact(g, PatternSpec.parse("12"))
    d21 = density_grid_exact(g, PatternSpec.parse("21"))
    assert d12 == pytest.approx(1.0 - 0.5 / m, abs=1e-14)
    assert d21 == pytest.approx(0.5 / m, abs=1e-14)


def test_star_class_density_is_member_sum():
    rng = np.random.default_rng(41)
    g = random_grid(7, rng)
    for star, mems in (("*2", ["12"]), ("*1", ["21"]),
                       ("**3", ["123", "213"]), ("**2", ["132", "312"]),
                       ("**1", ["231", "321"])):
        lhs = density_grid_exact(g, PatternSpec.parse(star))
        rhs = sum(density_grid_exact(g, PatternSpec.parse(t)) for t in mems)
        assert lhs == pytest.approx(rhs, abs=1e-13)
        assert PatternSpec.parse(star).members() == tuple(
            tuple(int(c) for c in t) for t in mems)


def test_pattern_count_hand_values():
    p2413 = Permutation(np.array([2, 4, 1, 3]))
    assert pattern_count(p2413, PatternSpec.parse("12")) == 3
    assert pattern_count(p2413, PatternSpec.parse("21")) == 3
    assert pattern_count(Permutation(np.array([4, 3, 1, 2])),
                         PatternSpec.parse("321")) == 2
    ident = Permutation(np.arange(1, 9))
    assert pattern_count(ident, PatternSpec.parse("12")) == 28
    assert pattern_count(ident, PatternSpec.parse("21")) == 0
    assert pattern_count(ident, PatternSpec.parse("123")) == 56
    # length-4 pattern in its own word: exactly the trivial occurrence
    assert pattern_count(p2413, PatternSpec.parse("2413")) == 1
    with pytest.raises(ValueError, match="pattern length 3 exceeds permutation length 2"):
        pattern_count(Permutation(np.array([2, 1])), PatternSpec.parse("123"))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_pattern_count_brute_force(values):
    # every explicit pattern and every star class with k <= min(n, 4)
    vals = np.array(values)
    n = vals.size
    pi = Permutation(vals)
    for k in range(1, min(n, 4) + 1):
        found = []
        for combo in itertools.combinations(range(n), k):
            sub = vals[list(combo)]
            found.append(tuple(np.argsort(np.argsort(sub)) + 1))
        for tau in itertools.permutations(range(1, k + 1)):
            spec = PatternSpec(values=tau)
            assert pattern_count(pi, spec) == found.count(tau)
        for ell in range(1, k + 1):
            spec = PatternSpec(star=(k, ell))
            ref = sum(found.count(tau) for tau in spec.members())
            assert pattern_count(pi, spec) == ref


def test_star_pattern_count_is_member_sum():
    rng = np.random.default_rng(59)
    pi = Permutation(rng.permutation(np.arange(1, 13)))
    for star, mems in (("**3", ["123", "213"]), ("**1", ["231", "321"])):
        lhs = pattern_count(pi, PatternSpec.parse(star))
        rhs = sum(pattern_count(pi, PatternSpec.parse(t)) for t in mems)
        assert lhs == rhs
    # n = 80 has C(80, 3) = 82,160 triples, more than one enumeration block
    pi = Permutation(rng.permutation(np.arange(1, 81)))
    counts = {t: pattern_count(pi, PatternSpec.parse(t)) for t in ALL3}
    assert sum(counts.values()) == math.comb(80, 3)
    assert pattern_count(pi, PatternSpec.parse("**3")) == counts["123"] + counts["213"]


@pytest.mark.parametrize("n", [24, 60, 120])
def test_density_approximates_count_proportion(n):
    # coincidence terms contribute at most C(k,2)/n, the chance two of the
    # sampled points share a cell of the n-cell permutation grid
    rng = np.random.default_rng(n)
    pi = Permutation(rng.permutation(np.arange(1, n + 1)))
    g = grid_from_permutation(pi)
    for lab in ("12", "123", "321"):
        k = len(lab)
        prop = pattern_count(pi, PatternSpec.parse(lab)) / math.comb(n, k)
        dens = density_grid_exact(g, PatternSpec.parse(lab))
        assert abs(dens - prop) <= k * (k - 1) / (2.0 * n)


# every k <= 3 spec: explicit patterns and star classes, including the
# pairs that share quadrant terms (123, 213 and **3 all use E[A B])
SPECS = ([PatternSpec.parse(t) for t in ["1", "12", "21"] + ALL3]
         + [PatternSpec(star=(k, ell)) for k in (1, 2, 3) for ell in range(1, k + 1)])

positive_grids = st.tuples(st.integers(2, 12), st.integers(0, 2**32 - 1),
                           st.sampled_from([1.0, 3.0]))


def positive_grid(params):
    # the exponent 3 gives peaked grids, cell masses spread over ~3 decades
    m, seed, power = params
    w = np.random.default_rng(seed).uniform(0.1, 1.0, size=(m, m)) ** power
    return GridPermuton(rebalance_marginals(w))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(positive_grids)
def test_reversal_symmetry(params):
    # the symmetries of the square act on patterns: flipping x reverses tau,
    # flipping y complements it and transposing inverts it, so
    # rho_tau(g) = rho_{s(tau)}(s(g)) for each of the three.  The kernel's
    # quadrant identities take the marginals as exactly 1/m; rebalanced ones
    # miss it by a defect d <= 1e-13, and the two sides then differ by up to
    # 5 d for each symmetry (measured over 1,320 grids), so the bound is 8 d
    g = positive_grid(params)
    m = g.m
    defect = max(abs(g.w.sum(axis=0) - 1.0 / m).max(), abs(g.w.sum(axis=1) - 1.0 / m).max())
    tol = 1e-15 + 8 * defect
    symmetries = (
        (g.w[::-1, :], lambda t: t[::-1]),
        (g.w[:, ::-1], lambda t: tuple(len(t) + 1 - v for v in t)),
        (g.w.T, lambda t: tuple(int(i) + 1 for i in np.argsort(t))),
    )
    for w, act in symmetries:
        image = GridPermuton(w.copy())
        for lab in ["12", "21"] + ALL3:
            tau = PatternSpec.parse(lab)
            assert density_grid_exact(image, PatternSpec(values=tuple(act(tau.values)))) \
                == pytest.approx(density_grid_exact(g, tau), abs=tol)
    # complement sends the star class (k, ell) to (k, k + 1 - ell)
    image = GridPermuton(g.w[:, ::-1].copy())
    for k in (2, 3):
        for ell in range(1, k + 1):
            assert density_grid_exact(image, PatternSpec(star=(k, k + 1 - ell))) \
                == pytest.approx(density_grid_exact(g, PatternSpec(star=(k, ell))),
                                 abs=tol)


def test_reversal_symmetry_on_fixed_grid():
    # reversal on one fixed grid, held to 1e-13 (the two sides agree to 5.5e-14)
    rng = np.random.default_rng(31)
    g = random_grid(6, rng)
    flip = GridPermuton(g.w[::-1, :].copy())
    pairs = [("12", "21"), ("123", "321"), ("132", "231"), ("213", "312")]
    for a, b in pairs:
        da = density_grid_exact(g, PatternSpec.parse(a))
        db = density_grid_exact(flip, PatternSpec.parse(b))
        assert da == pytest.approx(db, abs=1e-13)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(positive_grids,
       st.lists(st.sampled_from(SPECS), min_size=1, max_size=8)
       | st.permutations([PatternSpec.parse(t) for t in ("12", "123", "213", "**3")]))
def test_batched_densities_equal_single_pattern_calls(params, taus):
    # the batch shares channels and quadrant terms across patterns, yet every
    # value and gradient is bitwise that of the pattern's own call
    g = positive_grid(params)
    values, grads = densities(g, taus, grad=True)
    plain, none = densities(g, taus)
    assert none is None
    assert values.shape == (len(taus),) and grads.shape == (len(taus), g.m, g.m)
    assert np.array_equal(values, plain)
    for tau, value, grad in zip(taus, values, grads):
        single, single_grad = density_grid_exact_with_grad(g, tau)
        assert value == single == density_grid_exact(g, tau)
        assert np.array_equal(grad, single_grad)


def test_batched_sidecar_densities_at_m256():
    g = star12_grid(1.5, 256)
    taus = [PatternSpec.parse(t) for t in ["12", "21"] + ALL3]
    values, grads = densities(g, taus)
    assert grads is None
    for tau, value in zip(taus, values):
        assert value == density_grid_exact(g, tau)
    assert values[:2].sum() == pytest.approx(1.0, abs=1e-12)
    assert values[2:].sum() == pytest.approx(1.0, abs=1e-12)


def test_batched_densities_reject_long_patterns():
    g = uniform_grid(3)
    for long in ("2413", "***2"):
        with pytest.raises(ValueError, match="k <= 3"):
            densities(g, [PatternSpec.parse("12"), PatternSpec.parse(long)])
        with pytest.raises(ValueError, match="k <= 3"):
            density_grid_exact_with_grad(g, PatternSpec.parse(long))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(positive_grids, st.sampled_from([t for t in SPECS if t.k > 1]), st.data())
def test_gradient_matches_finite_differences(params, tau, data):
    # perturb along marginal-preserving directions E_ij + E_i'j' - E_ij' - E_i'j
    g = positive_grid(params)
    m = g.m
    eps = 1e-6
    val, grad = density_grid_exact_with_grad(g, tau)
    assert val == pytest.approx(density_grid_exact(g, tau), abs=1e-15)
    assert grad.shape == (m, m)
    index = st.integers(0, m - 1)
    i, j = data.draw(index), data.draw(index)
    i2 = data.draw(index.filter(lambda x: x != i))
    j2 = data.draw(index.filter(lambda x: x != j))
    d = np.zeros((m, m))
    d[i, j] = d[i2, j2] = 1.0
    d[i, j2] = d[i2, j] = -1.0
    plus = density_grid_exact(GridPermuton(g.w + eps * d), tau)
    minus = density_grid_exact(GridPermuton(g.w - eps * d), tau)
    fd = (plus - minus) / (2.0 * eps)
    assert float(np.sum(grad * d)) == pytest.approx(fd, abs=1e-7)


def test_mc_density_agrees_with_exact():
    rng = np.random.default_rng(71)
    for m, lab, seed in ((5, "12", 1), (6, "123", 2), (4, "321", 3)):
        g = random_grid(m, rng)
        exact = density_grid_exact(g, PatternSpec.parse(lab))
        est = density_mc(g, PatternSpec.parse(lab), 40000, seed)
        assert est.trials == 40000
        assert est.stderr > 0.0
        assert abs(est.value - exact) <= 4.0 * est.stderr + 1e-12


def test_mc_density_on_segments():
    # staircase with one full-width step: known triple densities
    g = gamma_ab(1.0, 1.0 / 3.0)
    est12 = density_mc(g, PatternSpec.parse("12"), 60000, 19)
    est123 = density_mc(g, PatternSpec.parse("123"), 60000, 23)
    assert abs(est12.value - 2.0 / 3.0) <= 4.0 * est12.stderr
    assert abs(est123.value - 2.0 / 9.0) <= 4.0 * est123.stderr


def test_mc_density_seeded_reproducible():
    g = uniform_grid(4)
    a = density_mc(g, PatternSpec.parse("132"), 5000, 99)
    b = density_mc(g, PatternSpec.parse("132"), 5000, 99)
    assert a.value == b.value and a.stderr == b.stderr
    # hit counts pinned at fixed seeds: any change to the random stream or
    # to pattern matching shows here
    sources = {"grid": star12_grid(1.5, 8), "segments": gamma_ab(0.7, 0.2)}
    pinned = {"grid": (2790, 4965, 545, 5552), "segments": (1803, 4490, 690, 6497)}
    for name, src in sources.items():
        for (lab, seed), hits in zip((("132", 5), ("**3", 6), ("2143", 7), ("***2", 8)),
                                     pinned[name]):
            est = density_mc(src, PatternSpec.parse(lab), 20000, seed)
            assert est.value == hits / 20000
    # the subset estimator averages pattern_count over sampled permutations
    pinned = {"grid": (0.12008928571428572, 0.014167717528820655),
              "segments": (0.10491071428571427, 0.015467217478356053)}
    for name, src in sources.items():
        est = density_mc(src, PatternSpec.parse("132"), 40, 9, n_points=8)
        assert (est.value, est.stderr) == pinned[name]


def test_subset_counts_match_pattern_count():
    # 20 permutations of 40 share one pass over the C(40, 3) = 9880 subsets,
    # in four blocks of about 2^16 / 20 subsets
    from permutons.patterns import _subset_counts
    rng = np.random.default_rng(17)
    values = np.array([rng.permutation(40) for _ in range(20)])
    for lab in ("123", "132", "312", "**1", "**2", "**3"):
        tau = PatternSpec.parse(lab)
        each = [pattern_count(Permutation(row + 1), tau) for row in values]
        assert _subset_counts(values, tau).tolist() == each


def _ranks_mask(x, y, tau):
    """The mask of the ranks path of _matches, for an explicit pattern."""
    from permutons.patterns import _ranks
    want = np.asarray(tau.values) - 1
    rx, ry = _ranks(x, np.intp), _ranks(y, np.intp)
    return np.all([b == want.take(a) for a, b in zip(rx, ry)], axis=0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.booleans(), st.integers(1, 4),
       st.sampled_from(["rows", "subsets", "subsets-flipped"]), st.integers(0, 2**32 - 1))
def test_monotone_matcher_equals_ranks(k, reverse, levels, shape, seed):
    # the identity and the reversal take the pair-agreement path of
    # _matches; coordinates on a few levels make ties common, and the
    # leading axes broadcast as in the trial loop (equal shapes) and in
    # _subset_counts (index rows against (trials, rows) values)
    from permutons.patterns import _matches
    tau = PatternSpec(values=tuple(range(k, 0, -1) if reverse else range(1, k + 1)))
    rng = np.random.default_rng(seed)

    def coords(*lead):
        return rng.integers(0, levels, size=lead + (k,)).astype(np.float64)

    x, y = {"rows": (coords(50), coords(50)),
            "subsets": (coords(12), coords(7, 12)),
            "subsets-flipped": (coords(7, 12), coords(12))}[shape]
    got = _matches(x, y, tau)
    assert got.dtype == bool and got.shape == np.broadcast_shapes(x.shape, y.shape)[:-1]
    assert np.array_equal(got, _ranks_mask(x, y, tau))


def test_subset_counts_of_monotone_patterns_match_pattern_count():
    # the pair-agreement path under _subset_counts' broadcast, against a
    # count of the increasing and decreasing subsequences
    from permutons.patterns import _subset_counts
    values = np.array([np.random.default_rng(s).permutation(9) for s in range(6)])
    for lab in ("12", "21", "123", "321", "1234", "4321"):
        k, sign = len(lab), 1 if lab[0] == "1" else -1
        want = [sum(all(sign * (row[b] - row[a]) > 0 for a, b in zip(c, c[1:]))
                    for c in itertools.combinations(range(9), k)) for row in values]
        assert _subset_counts(values, PatternSpec.parse(lab)).tolist() == want


def test_mc_density_rejects_bad_counts():
    g, tau = uniform_grid(3), PatternSpec.parse("12")
    for bad in (2.5, 3.0, "10", True, np.bool_(True)):
        with pytest.raises(ValueError, match="trials must"):
            density_mc(g, tau, bad, 1)
    for bad in (2.7, 4.0, "3", True):
        with pytest.raises(ValueError, match="n_points must"):
            density_mc(g, tau, 10, 1, n_points=bad)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="at least one trial"):
            density_mc(g, tau, bad, 1)
    with pytest.raises(ValueError, match="n_points must be at least the pattern length"):
        density_mc(g, PatternSpec.parse("123"), 10, 1, n_points=2)
    for value, stderr, match in ((1.5, 0.0, "density must lie in"),
                                 (0.5, -1.0, "stderr must be nonnegative")):
        with pytest.raises(ValueError, match=match):
            DensityEstimate(value, stderr, 10)
    est = density_mc(g, tau, np.int64(10), 1, n_points=np.int64(4))
    assert est.trials == 10 and type(est.trials) is int


def test_pattern_spec_parsing_and_errors():
    assert PatternSpec.parse("132").values == (1, 3, 2)
    assert PatternSpec.parse("*2").star == (2, 2)
    assert PatternSpec.parse("**3").k == 3
    for bad in ("", "14", "103", "1*2", "*", "*5"):
        with pytest.raises(ValueError):
            PatternSpec.parse(bad)
    for empty in ([], ()):
        with pytest.raises(ValueError, match="at least one symbol"):
            PatternSpec(values=empty)
    for kwargs in ({}, {"values": (1, 2), "star": (2, 2)}):
        with pytest.raises(ValueError, match="exactly one of explicit values or star class"):
            PatternSpec(**kwargs)
    with pytest.raises(ValueError):
        density_grid_exact(uniform_grid(3), PatternSpec.parse("2413"))


@pytest.mark.parametrize("call, match", [
    (lambda: PatternSpec(values=(1.5, 2)), "pattern symbol must be an integer"),
    (lambda: PatternSpec(values=(True, 2)), "pattern symbol must be an integer"),
    (lambda: PatternSpec(star=(3.7, 3)), "k must be an integer"),
    (lambda: PatternSpec(star=(3, 2.5)), "ell must be an integer"),
])
def test_pattern_spec_refuses_non_integer_symbols_by_name(call, match):
    # each was once truncated: to 12, 12, **3 and **2
    with pytest.raises(ValueError, match=match):
        call()

"""Golden outputs: the exact values of the package's results, pinned.

``golden.json`` (next to this file) holds one entry per named result of
``catalogue()``: the float64 values of a number or array, flattened, as
``float.hex`` strings, or the exact text of a CLI run's stdout or of a
file it writes.  The test
recomputes every entry and compares exactly.  A failure lists every entry
that moved, with its largest relative change and its largest change in
units in the last place (ulp), so a refactor that claims "every bit
unchanged" is checked here, and a change that moves bits on purpose shows
which results moved and by how much.

The file also records the Python and numpy versions it was made with, the
SIMD dispatch targets numpy enabled on the CPU and the BLAS numpy was
built with: another numpy build or CPU may move low bits (pairwise
summation, SIMD paths), and a failure message says which of these differ
from the recorded ones.

Regenerate the file (after a change that moves bits on purpose; the
change then states which entries moved, by how much, and why) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from permutons import cli
from permutons.core import (GridPermuton, Permutation, SegmentPermuton, gamma_ab,
                            grid_from_permutation, grid_to_csv, rebalance_marginals,
                            sample_permutation, sample_points)
from permutons.entropy import heat_flow, riemann_refinement
from permutons.insertion import insertion_from_permuton, reconstruct, star_family
from permutons.optimizer import (ConstraintSet, maximize_entropy, pde_residual_12,
                                 pde_residual_123)
from permutons.oracle import ldp_estimate, mahonian_log_gf
from permutons.patterns import PatternSpec, _hessian_operator, densities, density_mc
from permutons.regions import dimple, gamma_ab_sweep, region_123_321, region_star23_boundary
from permutons.starmodel import (evaluate_star, solve_star, star12_cdf, star12_density,
                                 star12_entropy, star12_grid, star12_r_from_rho,
                                 star12_rho)

GOLDEN = Path(__file__).resolve().parent / "golden.json"

LABELS = ("1", "12", "21", "123", "132", "213", "231", "312", "321",
          "*2", "**1", "**2", "**3")
MAXENT_JOBS = (
    ("12=0.3", 16, {}),
    ("12=0.55,123=0.2", 16, {}),
    ("321=0.25", 32, {}),
    ("123=0.4", 32, {}),
    ("*2=0.4,**3=0.3", 16, {}),
    ("**3=0.4", 8, {}),
    ("213=0.3", 16, {}),
    ("123=0.6", 16, {"max_outer": 3}),
    ("12=0.4", 8, {"restarts": 1, "seed": 3}),
)


def _seeded_grid(m: int) -> np.ndarray:
    """A strictly positive random grid rebalanced onto uniform marginals."""
    rng = np.random.default_rng(m)
    return rebalance_marginals(rng.random((m, m)) + 0.05)


def _cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return f"exit {code}\n{out.getvalue()}"


def catalogue():
    """Yield (name, value): value is a number, an array or a string."""
    taus = [PatternSpec.parse(lbl) for lbl in LABELS]

    # the exact density kernel and the projection
    for m in (1, 2, 3, 8, 17, 32):
        w = _seeded_grid(m)
        yield f"rebalance/m={m}", w
        yield f"rebalance/m={m}/own-output", rebalance_marginals(w)
        values, grads = densities(GridPermuton(w), taus, grad=True)
        yield f"densities/m={m}/values", values
        for lbl, grad in zip(LABELS, grads):
            yield f"densities/m={m}/grad/{lbl}", grad
    hess_taus = tuple(PatternSpec.parse(lbl) for lbl in ("12", "123", "321", "**3"))
    for m in (3, 8, 17):
        apply = _hessian_operator(_seeded_grid(m), hess_taus, (0.7, -1.3, 0.4, 2.1))
        v = np.random.default_rng(100 + m).standard_normal((m, m))
        yield f"hessian/m={m}", apply(v)

    # the optimizer
    grids = {}
    for spec, m, kwargs in MAXENT_JOBS:
        pairs = [(p, float(t)) for p, t in (c.split("=") for c in spec.split(","))]
        res = maximize_entropy(ConstraintSet.of(*pairs), m, **kwargs)
        name = f"maxent/{spec}@{m}"
        grids[name] = res.grid
        yield f"{name}/grid", res.grid.w
        yield f"{name}/scalars", [res.entropy, res.iterations, res.converged]
        yield f"{name}/achieved", [res.achieved, res.residuals, res.multipliers]
        yield f"{name}/history", [[h[k] for k in sorted(h) if k != "stop"] for h in res.history]
        yield f"{name}/stop", str(res.stop)

    # entropy, heat flow and reconstruction
    star = star12_grid(-2.0, 16)
    flow_src = GridPermuton(_seeded_grid(16))
    yield "entropy/refinement", riemann_refinement(star, [1, 2, 4, 8, 16])
    yield "heat_flow/seeded", heat_flow(flow_src, 0.05).w
    yield "heat_flow/seeded/cutoff", heat_flow(flow_src, 0.0, j_max=3, k_max=5).w
    yield "heat_flow/star12", heat_flow(star, 0.3).w
    rr = reconstruct(star_family([(1, 0)], [1.0], 8, 16), 8)
    yield "reconstruct/star_family/[(1, 0)]", [rr.grid.w, rr.correction]
    # the two-term model at the coefficients of the star23 targets (0.5, 0.4)
    rr = reconstruct(star_family([(1, 0), (2, 0)], solve_star([(1, 0), (2, 0)], [0.5, 0.4]).alpha,
                                 8, 16), 8)
    yield "reconstruct/star_family/[(1, 0), (2, 0)]", [rr.grid.w, rr.correction]
    rr = reconstruct(insertion_from_permuton(star12_grid(2.0, 16)), 16)
    yield "reconstruct/extracted", [rr.grid.w, rr.correction]
    # a 32-column family to 16 output cells at the default step, and a step
    # of 1/300, whose nodes are not dyadic: there x + dx of one step and the
    # x of the next can differ in the last bit
    rr = reconstruct(insertion_from_permuton(star12_grid(1.5, 32)), 16)
    yield "reconstruct/extracted/mt=32", [rr.grid.w, rr.correction]
    rr = reconstruct(insertion_from_permuton(star12_grid(2.0, 16)), 16, step=1 / 300)
    yield "reconstruct/extracted/step=1/300", [rr.grid.w, rr.correction]

    # seeded Monte Carlo on a grid and on a gamma_ab permuton
    for src_name, src in (("grid", GridPermuton(_seeded_grid(8))), ("gamma_ab", gamma_ab(0.5, 0.1))):
        yield f"sample_points/{src_name}", sample_points(src, 64, 1)
        yield f"sample_permutation/{src_name}", sample_permutation(src, 20, 2).values
        for lbl, trials, seed, n_points in (("123", 5000, 3, None), ("**3", 3000, 5, None),
                                            ("132", 200, 4, 6), ("12", 5000, 6, None),
                                            ("21", 5000, 7, None), ("321", 5000, 8, None)):
            est = density_mc(src, PatternSpec.parse(lbl), trials, seed, n_points=n_points)
            yield (f"density_mc/{src_name}/{lbl}/n_points={n_points}",
                   [est.value, est.stderr, est.trials])
    # draw tables that exercise each path of the cell or segment lookup: a
    # grid whose cdf has long flat runs between jumps that fall inside guide
    # buckets (a permutation of 192 at m = 64), a zero-mass segment, and 17
    # segments
    pi = Permutation(np.random.default_rng(192).permutation(192) + 1)
    flat = grid_from_permutation(pi, 64)
    zero = np.vstack([gamma_ab(0.5, 0.1).segments, [0.2, 0.4, 0.3, 1.0, 0.0]])
    for src_name, src in (("flat_grid", flat), ("zero_mass_segment", SegmentPermuton(zero)),
                          ("segments17", gamma_ab(0.79, 0.05))):
        yield f"sample_points/{src_name}", sample_points(src, 512, 9)
        for lbl, trials, seed in (("12", 20000, 10), ("321", 20000, 11), ("132", 20000, 12)):
            est = density_mc(src, PatternSpec.parse(lbl), trials, seed)
            yield f"density_mc/{src_name}/{lbl}", [est.value, est.stderr, est.trials]
    # estimates whose draws span several 2^16-point lookup blocks and more
    # than one 200,000-trial chunk, on both lookup paths of grids and of
    # segments (64^2 and 17 categories go through the guide, 9 and 6 are
    # counted directly)
    grid64 = GridPermuton(_seeded_grid(64))
    for src_name, src, lbl, trials, seed in (
            ("grid64", grid64, "***2", 400_001, 13), ("grid64", grid64, "123", 400_001, 14),
            ("grid3", GridPermuton(_seeded_grid(3)), "123", 250_000, 15),
            ("gamma_ab", gamma_ab(0.5, 0.1), "123", 250_000, 16),
            ("segments17", gamma_ab(0.79, 0.05), "123", 250_000, 17)):
        est = density_mc(src, PatternSpec.parse(lbl), trials, seed)
        yield f"density_mc/{src_name}/{lbl}/trials={trials}", [est.value, est.stderr, est.trials]
    yield "gamma_ab_sweep", gamma_ab_sweep([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], 2000, 7)

    # the star models
    xs = np.linspace(0.0, 1.0, 5)
    for r in (-2.0, 0.0, 2.0, 5e-4):
        yield f"star12/r={r}/closed_forms", [star12_rho(r), star12_entropy(r)]
        yield f"star12/r={r}/cdf", star12_cdf(r, xs[:, None], xs[None, :])
        yield f"star12/r={r}/density", star12_density(r, xs[:, None], xs[None, :])
        yield f"star12/r={r}/grid", star12_grid(r, 8).w
    yield "star12/r_from_rho", [star12_r_from_rho(0.3), star12_r_from_rho(0.7)]
    sol = evaluate_star([(1, 0), (1, 1)], [-1.5, 0.7])
    yield "evaluate_star", [sol.alpha, sol.densities, sol.free_energy, sol.entropy, sol.hessian]
    for exps, targets in (([(1, 0)], [0.3]), ([(1, 0), (2, 0)], [0.5, 0.3]),
                          ([(1, 0), (2, 0), (1, 1)], [0.53, 0.37, 0.34])):
        sol = solve_star(exps, targets)
        yield (f"solve_star/{exps}", [sol.alpha, sol.densities, sol.free_energy, sol.entropy,
                                      sol.hessian, sol.newton_iterations])
    # targets just above the star23 lower curve, solved on refined nodes, and
    # coefficients that 96 nodes do not resolve
    low = (np.sqrt(2.0) - 1.0) / 2.0
    for d in (2e-4, 5e-5):
        sol = solve_star([(1, 0), (2, 0)], [0.5, low + d])
        yield (f"solve_star/star23-lower+{d}", [sol.alpha, sol.densities, sol.free_energy,
                                                sol.entropy, sol.hessian, sol.newton_iterations])
    sol = evaluate_star([(1, 0), (2, 0)], [2.3e4, -7.7e4])
    yield "evaluate_star/large_alpha", [sol.densities, sol.free_energy, sol.entropy, sol.hessian]
    yield "mahonian_log_gf/12", mahonian_log_gf(12)
    yield "ldp_estimate", [ldp_estimate(n, 0.4, 0.05) for n in (20, 40)]

    # regions and the PDE checks
    t = np.linspace(0.0, 1.0, 11)
    for key, curve in region_123_321(t).items():
        yield f"region_123_321/{key}", curve.points
    for curve in region_star23_boundary(t):
        yield f"region_star23/{curve.label}", curve.points
    yield "dimple", dimple()
    yield "pde_residual_12", pde_residual_12(star)
    yield "pde_residual_123", pde_residual_123(grids["maxent/123=0.4@32"])

    # the stdout bytes of each CLI subcommand
    with tempfile.TemporaryDirectory() as tmp:
        g = Path(tmp) / "g.csv"
        fam = Path(tmp) / "fam.csv"
        g.write_text(grid_to_csv(star12_grid(-2.0, 8)))
        _cli(["insertion", "--in", g, "--out", fam])
        runs = {
            "star12": ["star12", "--r", "-2", "--grid", "8"],
            "solve-star": ["solve-star", "--terms", "1,0;2,0", "--targets", "0.5,0.3"],
            "optimize": ["optimize", "--constraints", "12=0.3", "--grid", "8"],
            "density": ["density", "--in", g, "--tau", "123"],
            "density-mc": ["density", "--in", g, "--tau", "132", "--mc", "--trials", "2000"],
            "density-mc-points": ["density", "--in", g, "--tau", "12", "--mc",
                                  "--trials", "50", "--points", "5", "--seed", "2"],
            "entropy": ["entropy", "--in", g, "--levels", "2,4,8"],
            "heatflow": ["heatflow", "--in", g, "--t", "0.05"],
            "insertion-extract": ["insertion", "--in", g],
            "insertion-reconstruct": ["insertion", "--in", fam, "--grid", "8"],
            "region-123-321": ["region", "--model", "123-321", "--samples", "5"],
            "region-star23": ["region", "--model", "star23", "--samples", "5"],
            "sweep-ab": ["sweep-ab", "--na", "2", "--nb", "2", "--trials", "500", "--seed", "3"],
            "sample": ["sample", "--in", g, "--n", "12", "--seed", "4"],
            "ldp": ["ldp", "--rho", "0.4", "--n", "20,30"],
            "ldp-json": ["ldp", "--rho", "0.4", "--n", "20", "--json"],
            "pde-check-12": ["pde-check", "--in", g, "--model", "12"],
            "pde-check-123": ["pde-check", "--in", g, "--model", "123"],
            "dimple": ["dimple"],
        }
        for key, argv in runs.items():
            yield f"cli/{key}", _cli(argv)

        # the exact bytes of every file the CLI writes with --out and --pgm:
        # grids with their sidecars and heatmaps, the insertion family, and
        # the region, sweep and sample tables
        out = Path(tmp) / "files"
        out.mkdir()
        file_runs = {
            "star12-m8": ["star12", "--r", "-2", "--grid", "8", "--pgm", out / "star12-m8.pgm"],
            "star12-m1": ["star12", "--r", "1.5", "--grid", "1", "--pgm", out / "star12-m1.pgm"],
            "heatflow": ["heatflow", "--in", g, "--t", "0.05"],
            "insertion-extract": ["insertion", "--in", g],
            "insertion-reconstruct": ["insertion", "--in", fam, "--grid", "8"],
            "region-123-321": ["region", "--model", "123-321", "--samples", "7"],
            "region-star23": ["region", "--model", "star23", "--samples", "7"],
            "sweep-ab": ["sweep-ab", "--na", "3", "--nb", "3", "--trials", "500", "--seed", "3"],
            "sample": ["sample", "--in", g, "--n", "30", "--seed", "4"],
        }
        for key, argv in file_runs.items():
            assert _cli(argv + ["--out", out / f"{key}.out"]).startswith("exit 0\n"), key
            for path in sorted(out.glob(f"{key}.*")):
                yield f"cli-file/{path.name}", path.read_bytes().decode("utf-8")


def _encode(value):
    """A string as itself; anything numeric as the float.hex strings of its
    values, flattened in order."""
    if isinstance(value, str):
        return value
    flat = []

    def walk(v):
        if isinstance(v, (list, tuple)):
            for item in v:
                walk(item)
        else:
            flat.extend(np.asarray(v, dtype=np.float64).ravel().tolist())

    walk(value)
    return [float.hex(v) for v in flat]


def _environment() -> dict:
    """The Python and numpy versions, the SIMD dispatch targets numpy enabled
    on this CPU, and the BLAS it was built with: the things that can move
    low bits without a change to the package."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "simd": config["SIMD Extensions"]["found"],
            "blas": f"{blas['name']} {blas.get('version', '')}".strip()}


def _environment_note(recorded: dict) -> str:
    """Which parts of the environment differ from the recorded one."""
    running = _environment()
    moved = [key for key in running if recorded.get(key) != running[key]]
    if not moved:
        return f"the environment is the recorded one, {running}"
    return (f"the environment differs in {', '.join(moved)}: recorded {recorded}, "
            f"running {running}")


def compute() -> dict:
    entries = {}
    for name, value in catalogue():
        assert name not in entries, f"duplicate golden entry {name}"
        entries[name] = _encode(value)
    return entries


def write(path: Path = GOLDEN) -> None:
    """One entry per line, so that a regenerated file diffs entry by entry."""
    entries = compute()
    lines = [f"  {json.dumps(name)}: {json.dumps(value)}" for name, value in entries.items()]
    path.write_text('{"environment": ' + json.dumps(_environment()) + ',\n"entries": {\n'
                    + ",\n".join(lines) + "\n}}\n")


def _ordered(a: np.ndarray) -> np.ndarray:
    """float64 bits as integers that order like the floats, so a difference
    counts the representable values between two floats."""
    i = a.view(np.int64)
    return np.where(i < 0, np.int64(-(2 ** 63)) - i, i)


def describe(name: str, want, got) -> str:
    """One line saying how an entry moved."""
    if isinstance(want, str) or isinstance(got, str):
        if not (isinstance(want, str) and isinstance(got, str)):
            return f"{name}: kind changed"
        a, b = want.splitlines(), got.splitlines()
        line = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        return f"{name}: text differs from line {line + 1}"
    if len(want) != len(got):
        return f"{name}: {len(want)} values became {len(got)}"
    a = np.array([float.fromhex(v) for v in want])
    b = np.array([float.fromhex(v) for v in got])
    moved = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    with np.errstate(invalid="ignore"):
        rel = np.abs(b[moved] - a[moved]) / np.maximum(np.abs(a[moved]), np.finfo(float).tiny)
    # Python integers: the distance between two ordered bit patterns may not fit in int64
    ulp = max(abs(int(x) - int(y)) for x, y in zip(_ordered(b[moved]), _ordered(a[moved])))
    return (f"{name}: {int(moved.sum())} of {a.size} values moved, largest relative "
            f"change {np.nanmax(rel):.3e}, largest {ulp} ulp")


def test_golden_outputs_unchanged():
    golden = json.loads(GOLDEN.read_text())
    want = golden["entries"]
    got = compute()
    report = [describe(name, want[name], got[name])
              for name in want if name in got and want[name] != got[name]]
    report += [f"{name}: missing from the catalogue" for name in want if name not in got]
    report += [f"{name}: not in {GOLDEN.name}" for name in got if name not in want]
    assert not report, (
        f"{len(report)} golden entries moved; {_environment_note(golden['environment'])}:\n"
        + "\n".join(report))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    write()
    print(f"wrote {GOLDEN}")

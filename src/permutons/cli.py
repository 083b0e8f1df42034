"""Command-line entry point exposing every operation with run manifests.

Two launchers call ``main``: the ``permutons`` console script that
pyproject.toml declares, and ``python -m permutons`` (``__main__``).

Subcommands
-----------
star12      closed-form one-parameter grid for a given --r or --rho
solve-star  Newton solution of a star model for given exponents and targets
optimize    grid entropy maximization under pattern-density constraints
density     pattern density of a grid (exact for k <= 3, --mc otherwise)
entropy     entropy of a grid, optionally along a coarsening chain
heatflow    cosine-mode smoothing of a grid
insertion   extract an insertion family from a grid, or reconstruct a grid
            from a family (mode chosen by the input file header)
region      feasible-region boundary curves (--model 123-321 or star23)
sweep-ab    Monte-Carlo (rho_12, rho_123) cloud over the gamma_{a,b} family
sample      sample a permutation from a grid
ldp         finite-n large-deviations estimates next to the closed form
pde-check   Euler-Lagrange residual of a grid (--model 12 or 123)
dimple      crossing point of the 1 2 3/3 2 1 boundary curves

Conventions
-----------
Global flags (given after the subcommand): --seed (default 0), --threads
(at least 1; pins the BLAS/OpenMP thread-count env vars before numpy is
imported, which is why this module imports the library lazily), --out, and
--manifest (JSON run record: command, seed, thread setting, versions, wall
time, and the key scalars of the run).

Exit codes: 0 success; 2 validation or usage error; 3 solver
non-convergence (a ``ConvergenceError``), in which case outputs and the
manifest are still written so the failure can be inspected.  Any other
exception is a bug and ends the run with its traceback.

All floats are serialized with 17 significant digits, so rerunning the same
command with the same seed reproduces every data output byte for byte; the
manifest differs only in its wall_time_s field.

Formats: grid CSV ("m=<int>" header, then m rows of m masses; every grid
written is accompanied by a <path>.json sidecar with its entropy and k <= 3
pattern densities); insertion-family CSV ("mt=<int>,my=<int>" header, then
1-based column-major (x_index, y_index, f) triples); region and sweep CSVs
carry a one-line column header.  PGM heatmaps (--pgm) are plain P2,
max-normalized to 255, with image row k showing y-cell m-1-k so larger y
sits higher.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _json_render(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, 2-space indent, floats at 17 digits.

    Handlers store Python scalars (np.float64 is a float), lists, tuples and
    dicts; anything else is a TypeError."""
    pad = " " * indent
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite value in JSON output")
        return format(obj, ".17g")
    if obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {_json_render(v, indent + 2)}'
                for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_render(v, indent + 2) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: str, obj) -> None:
    _write_text(path, _json_render(obj) + "\n")


def _f(x) -> str:
    return format(float(x), ".17g")


def _count(text: str):
    """A count as an integer, also in exponent form ("1e6").  A value that is
    not an integer stays a float, for the library's count check to reject
    by name (exit 2)."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
        return int(value) if value.is_integer() else value


def _read_grid(path: str):
    from .core import grid_from_csv

    with open(path, "r", encoding="utf-8") as fh:
        return grid_from_csv(fh.read())


def _grid_sidecar(g) -> dict:
    from .entropy import entropy_grid
    from .patterns import PatternSpec, densities

    labels = ("12", "21", "123", "132", "213", "231", "312", "321")
    values, _ = densities(g, [PatternSpec.parse(lbl) for lbl in labels])
    dens = {lbl: float(v) for lbl, v in zip(labels, values)}
    return {"m": g.m, "entropy": entropy_grid(g), "densities": dens}


def _write_pgm(path: str, g) -> None:
    import numpy as np

    from .core import _text_rows

    mx = float(g.w.max())
    img = np.zeros_like(g.w) if mx <= 0 else np.rint(g.w * (255.0 / mx))
    img = img.T[::-1].astype(int)  # image row k = y-cell m-1-k
    _write_text(path, f"P2\n{g.m} {g.m}\n255\n" + _text_rows(" ".join(["%d"] * g.m) + "\n", img))


def _emit_grid(args, g) -> None:
    """Write the grid CSV, its JSON sidecar, and the optional PGM heatmap."""
    from .core import grid_to_csv

    if args.out:
        _write_text(args.out, grid_to_csv(g))
        _write_json(args.out + ".json", _grid_sidecar(g))
    if getattr(args, "pgm", None):
        _write_pgm(args.pgm, g)


def _deliver(args, text: str) -> None:
    if args.out:
        _write_text(args.out, text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------- handlers


def _cmd_star12(args, scalars) -> int:
    from .entropy import entropy_grid
    from .starmodel import (star12_entropy, star12_grid, star12_r_from_rho,
                            star12_rho)

    if (args.r is None) == (args.rho is None):
        raise ValueError("specify exactly one of --r and --rho")
    if args.r is not None:
        r, rho = args.r, star12_rho(args.r)
        if not 0.0 < rho < 1.0:
            raise ValueError(f"rate r = {r:g} gives rho = {rho:g}, not inside (0, 1)")
    else:
        r, rho = star12_r_from_rho(args.rho), args.rho
    g = star12_grid(r, args.grid)
    ent = entropy_grid(g)
    scalars.update({"r": r, "rho": rho, "m": args.grid, "entropy": ent,
                    "entropy_closed_form": star12_entropy(r)})
    _emit_grid(args, g)
    print(f"r = {_f(r)}")
    print(f"rho = {_f(rho)}")
    print(f"entropy = {_f(ent)}")
    return 0


def _parse_terms(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split(";"):
        bits = part.split(",")
        if len(bits) != 2:
            raise ValueError(f"bad exponent pair {part!r}; expected 'r,s'")
        out.append((int(bits[0]), int(bits[1])))
    return out


def _cmd_solve_star(args, scalars) -> int:
    from .starmodel import ConvergenceError, solve_star

    exps = _parse_terms(args.terms)
    targets = [float(v) for v in args.targets.split(",")]
    try:
        sol = solve_star(exps, targets, tol=args.tol, max_iter=args.max_iter)
    except ConvergenceError as exc:
        result = {"converged": False, "message": str(exc),
                  "residual": exc.residual,
                  "alpha": [] if exc.alpha is None else exc.alpha.tolist(),
                  "terms": [list(e) for e in exps], "targets": targets}
        scalars.update(result)
        if args.out:
            _write_json(args.out, result)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    result = {"converged": True, "terms": [list(e) for e in sol.terms],
              "targets": targets, "alpha": sol.alpha.tolist(),
              "densities": sol.densities.tolist(),
              "free_energy": sol.free_energy, "entropy": sol.entropy,
              "newton_iterations": sol.newton_iterations}
    scalars.update(result)
    _deliver(args, _json_render(result))
    return 0


def _cmd_optimize(args, scalars) -> int:
    from .optimizer import ConstraintSet, maximize_entropy

    pairs = []
    for part in args.constraints.split(","):
        if "=" not in part:
            raise ValueError(f"bad constraint {part!r}; expected 'pattern=target'")
        pat, target = part.split("=", 1)
        pairs.append((pat.strip(), float(target)))
    cons = ConstraintSet.of(*pairs)
    res = maximize_entropy(cons, args.grid, tol_constraint=args.tol,
                           tol_grad=args.tol_grad, max_inner=args.max_iter,
                           max_outer=args.max_outer, restarts=args.restarts,
                           seed=args.seed)
    labels = [c.pattern.label for c in cons.constraints]
    scalars.update({
        "converged": bool(res.converged),
        "entropy": res.entropy,
        "achieved": {lbl: float(v) for lbl, v in zip(labels, res.achieved)},
        "max_residual": float(max(abs(v) for v in res.residuals)),
        "multipliers": res.multipliers.tolist(),
        "iterations": int(res.iterations),
        "cg_iterations": sum(e["cg_iterations"] for e in res.history),
    })
    _emit_grid(args, res.grid)
    print(f"converged = {str(res.converged).lower()}")
    print(f"entropy = {_f(res.entropy)}")
    for lbl, v in zip(labels, res.achieved):
        print(f"rho({lbl}) = {_f(v)}")
    print(f"max_residual = {_f(scalars['max_residual'])}")
    if not res.converged:
        print(f"error: {res.stop}", file=sys.stderr)
        return 3
    return 0


def _cmd_density(args, scalars) -> int:
    from .patterns import PatternSpec, density_grid_exact, density_mc

    tau = PatternSpec.parse(args.tau)
    g = _read_grid(args.inp)
    if args.mc:
        est = density_mc(g, tau, args.trials, args.seed, n_points=args.points)
        value, stderr, trials = est.value, est.stderr, est.trials
    else:
        value, stderr, trials = density_grid_exact(g, tau), 0.0, 0
    scalars.update({"pattern": tau.label, "value": float(value),
                    "stderr": float(stderr), "trials": int(trials)})
    _deliver(args, f"rho({tau.label}) = {_f(value)}\n"
                   f"stderr = {_f(stderr)}\ntrials = {trials}")
    return 0


def _cmd_entropy(args, scalars) -> int:
    from .entropy import entropy_grid, riemann_refinement

    g = _read_grid(args.inp)
    ent = entropy_grid(g)
    scalars.update({"m": g.m, "entropy": ent})
    lines = [f"m = {g.m}", f"entropy = {_f(ent)}"]
    if args.levels:
        levels = [int(v) for v in args.levels.split(",")]
        chain = riemann_refinement(g, levels)
        scalars["refinement"] = {str(m2): h for m2, h in chain}
        lines += [f"entropy[m={m2}] = {_f(h)}" for m2, h in chain]
    _deliver(args, "\n".join(lines))
    return 0


def _cmd_heatflow(args, scalars) -> int:
    from .entropy import HeatFlowSpec, entropy_grid, heat_flow

    g = _read_grid(args.inp)
    before = entropy_grid(g)
    out = heat_flow(g, HeatFlowSpec(args.t, args.jmax, args.kmax))
    after = entropy_grid(out)
    scalars.update({"t": args.t, "m": g.m, "entropy_before": before,
                    "entropy_after": after})
    _emit_grid(args, out)
    print(f"entropy_before = {_f(before)}")
    print(f"entropy_after = {_f(after)}")
    return 0


def _cmd_insertion(args, scalars) -> int:
    from .insertion import (family_from_csv, family_to_csv, insertion_entropy,
                            insertion_from_permuton, reconstruct)

    with open(args.inp, "r", encoding="utf-8") as fh:
        text = fh.read()
    head = text.lstrip().split("\n", 1)[0]
    if head.startswith("mt="):
        fam = family_from_csv(text)
        if not args.grid:
            raise ValueError("reconstruction needs --grid <m_out>")
        rr = reconstruct(fam, args.grid, step=args.step)
        scalars.update({"mode": "reconstruct", "mt": fam.mt, "my": fam.my,
                        "m_out": args.grid, "correction": rr.correction,
                        "insertion_entropy": insertion_entropy(fam)})
        _emit_grid(args, rr.grid)
        print(f"correction = {_f(rr.correction)}")
        return 0
    if head.startswith("m="):
        from .core import grid_from_csv

        fam = insertion_from_permuton(grid_from_csv(text))
        ent = insertion_entropy(fam)
        scalars.update({"mode": "extract", "mt": fam.mt, "my": fam.my,
                        "insertion_entropy": ent})
        if args.out:
            _write_text(args.out, family_to_csv(fam))
        print(f"insertion_entropy = {_f(ent)}")
        return 0
    raise ValueError("input header must be 'm=<int>' (grid) or 'mt=<int>,my=<int>' (family)")


def _cmd_region(args, scalars) -> int:
    import numpy as np

    from .core import _text_rows

    t = np.linspace(0.0, 1.0, args.samples)
    if args.model == "123-321":
        from .regions import region_123_321

        curves = [region_123_321(t)[k] for k in ("F1", "F2", "C", "D", "E")]
    else:
        from .regions import region_star23_boundary

        curves = list(region_star23_boundary(t))
    scalars.update({"model": args.model, "samples": args.samples,
                    "curves": [c.label for c in curves]})
    _deliver(args, "label,t,x,y\n" + "".join(
        _text_rows(c.label + ",%.17g,%.17g,%.17g\n", np.column_stack([c.t, c.points]))
        for c in curves))
    return 0


def _cmd_sweep_ab(args, scalars) -> int:
    import numpy as np

    from .core import _text_rows
    from .regions import gamma_ab_sweep

    a = np.linspace(0.0, 1.0, args.na)
    frac = np.linspace(0.0, 1.0, args.nb)
    rows = gamma_ab_sweep(a, frac, args.trials, args.seed)
    scalars.update({"na": args.na, "nb": args.nb, "trials": args.trials,
                    "points": int(rows.shape[0])})
    _deliver(args, "a,b,rho12,rho123\n" + _text_rows("%.17g,%.17g,%.17g,%.17g\n", rows))
    return 0


def _cmd_sample(args, scalars) -> int:
    from .core import sample_permutation

    g = _read_grid(args.inp)
    pi = sample_permutation(g, args.n, args.seed)
    scalars.update({"n": args.n})
    _deliver(args, " ".join(map(str, pi.values.tolist())))
    return 0


def _cmd_ldp(args, scalars) -> int:
    from .oracle import _ldp_estimates
    from .starmodel import star12_entropy, star12_r_from_rho

    ns = [int(v) for v in args.n.split(",")]
    s_rho = star12_entropy(star12_r_from_rho(args.rho))
    estimates = _ldp_estimates(ns, args.rho, args.eps)
    result = {"rho": args.rho, "eps": args.eps, "n": ns, "estimates": estimates,
              "s_rho": s_rho}
    scalars.update(result)
    if args.json:
        _deliver(args, _json_render(result))
    else:
        lines = [f"n={n}: estimate = {_f(est)}   s(rho) = {_f(s_rho)}"
                 for n, est in zip(ns, estimates)]
        _deliver(args, "\n".join(lines))
    return 0


def _cmd_pde_check(args, scalars) -> int:
    from .optimizer import pde_residual_12, pde_residual_123

    g = _read_grid(args.inp)
    fn = pde_residual_12 if args.model == "12" else pde_residual_123
    alpha, rms = fn(g)
    scalars.update({"model": args.model, "alpha_fit": alpha,
                    "rms_residual": rms})
    _deliver(args, f"alpha_fit = {_f(alpha)}\nrms_residual = {_f(rms)}")
    return 0


def _cmd_dimple(args, scalars) -> int:
    from .regions import dimple

    s, r = dimple()
    scalars.update({"s": s, "r": r})
    _deliver(args, f"s = {_f(s)}\nr = {_f(r)}")
    return 0


# ------------------------------------------------------------------ parser


@functools.cache  # built once per process: parse_args leaves the parser as it is
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="RNG seed for stochastic subcommands (default 0)")
    common.add_argument("--threads", type=int, default=None,
                        help="pin BLAS/OpenMP thread count (default: all cores)")
    common.add_argument("--out", default=None, help="primary output path")
    common.add_argument("--manifest", default=None,
                        help="write a JSON run manifest to this path")
    grid_in = argparse.ArgumentParser(add_help=False)
    grid_in.add_argument("--in", dest="inp", required=True, help="grid CSV path")

    p = argparse.ArgumentParser(
        prog="permutons",
        description="Permuton computations: densities, entropy, maximizers, "
                    "regions, and large-deviations checks.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("star12", parents=[common],
                        help="closed-form one-parameter grid")
    group = sp.add_argument_group("model")
    group.add_argument("--r", type=float, default=None, help="rate parameter")
    group.add_argument("--rho", type=float, default=None,
                       help="target 1 2 density (inverted to r)")
    sp.add_argument("--grid", type=int, default=64, help="resolution m")
    sp.add_argument("--pgm", default=None, help="PGM heatmap path")
    sp.set_defaults(handler=_cmd_star12)

    sp = sub.add_parser("solve-star", parents=[common],
                        help="Newton solution of a star model (self-refining quadrature)")
    sp.add_argument("--terms", required=True,
                    help="exponent pairs 'r,s;r,s;...' (k_i = r_i + s_i + 1)")
    sp.add_argument("--targets", required=True,
                    help="comma-separated target densities, one per pair")
    sp.add_argument("--tol", type=float, default=1e-10,
                    help="residual tolerance on the scaled densities")
    sp.add_argument("--max-iter", type=int, default=100, help="Newton cap")
    sp.set_defaults(handler=_cmd_solve_star)

    sp = sub.add_parser("optimize", parents=[common],
                        help="entropy maximization under density constraints")
    sp.add_argument("--constraints", required=True,
                    help="'pattern=target,...', e.g. '12=0.4,123=0.25'")
    sp.add_argument("--grid", type=int, default=32, help="resolution m")
    sp.add_argument("--tol", type=float, default=1e-6,
                    help="constraint residual tolerance")
    sp.add_argument("--tol-grad", type=float, default=1e-6,
                    help="projected-gradient tolerance")
    sp.add_argument("--max-iter", type=int, default=10_000,
                    help="CG iteration cap of the one projected solve of each Newton step")
    sp.add_argument("--max-outer", type=int, default=50,
                    help="Newton step cap")
    sp.add_argument("--restarts", type=int, default=0,
                    help="extra seeded perturbed starts")
    sp.add_argument("--pgm", default=None, help="PGM heatmap path")
    sp.set_defaults(handler=_cmd_optimize)

    sp = sub.add_parser("density", parents=[common, grid_in],
                        help="pattern density of a grid")
    sp.add_argument("--tau", required=True,
                    help="pattern: '12', '132', ... or star class '*2', '**3'")
    sp.add_argument("--mc", action="store_true",
                    help="Monte-Carlo instead of the exact k <= 3 evaluation")
    sp.add_argument("--trials", type=_count, default=1_000_000,
                    help="Monte-Carlo trials (default 1e6)")
    sp.add_argument("--points", type=int, default=None,
                    help="points per trial (default: pattern length)")
    sp.set_defaults(handler=_cmd_density)

    sp = sub.add_parser("entropy", parents=[common, grid_in], help="entropy of a grid")
    sp.add_argument("--levels", default=None,
                    help="comma-separated divisor resolutions to report")
    sp.set_defaults(handler=_cmd_entropy)

    sp = sub.add_parser("heatflow", parents=[common, grid_in],
                        help="cosine-mode smoothing of a grid")
    sp.add_argument("--t", type=float, required=True, help="diffusion time")
    sp.add_argument("--jmax", type=int, default=None, help="x-mode cutoff")
    sp.add_argument("--kmax", type=int, default=None, help="y-mode cutoff")
    sp.add_argument("--pgm", default=None, help="PGM heatmap path")
    sp.set_defaults(handler=_cmd_heatflow)

    sp = sub.add_parser("insertion", parents=[common],
                        help="insertion-family extraction or reconstruction")
    sp.add_argument("--in", dest="inp", required=True,
                    help="grid CSV (extract) or family CSV (reconstruct)")
    sp.add_argument("--grid", type=int, default=None,
                    help="output resolution for reconstruction")
    sp.add_argument("--step", type=float, default=1.0 / 512,
                    help="largest RK4 step of the time grid shared by all "
                         "columns (default 1/512)")
    sp.add_argument("--pgm", default=None, help="PGM heatmap path")
    sp.set_defaults(handler=_cmd_insertion)

    sp = sub.add_parser("region", parents=[common],
                        help="feasible-region boundary curves")
    sp.add_argument("--model", choices=("123-321", "star23"), required=True)
    sp.add_argument("--samples", type=int, default=200,
                    help="parameter samples per curve")
    sp.set_defaults(handler=_cmd_region)

    sp = sub.add_parser("sweep-ab", parents=[common],
                        help="gamma_{a,b} Monte-Carlo density cloud")
    sp.add_argument("--na", type=int, default=10, help="a samples")
    sp.add_argument("--nb", type=int, default=10, help="b samples per a")
    sp.add_argument("--trials", type=_count, default=100_000,
                    help="Monte-Carlo triples per point")
    sp.set_defaults(handler=_cmd_sweep_ab)

    sp = sub.add_parser("sample", parents=[common, grid_in],
                        help="sample a permutation from a grid")
    sp.add_argument("--n", type=int, required=True, help="permutation length")
    sp.set_defaults(handler=_cmd_sample)

    sp = sub.add_parser("ldp", parents=[common],
                        help="finite-n large-deviations estimates")
    sp.add_argument("--rho", type=float, required=True, help="target density")
    sp.add_argument("--eps", type=float, default=0.05, help="window half-width")
    sp.add_argument("--n", default="50,100,200",
                    help="comma-separated permutation sizes, each in 2..500")
    sp.add_argument("--json", action="store_true", help="emit JSON")
    sp.set_defaults(handler=_cmd_ldp)

    sp = sub.add_parser("pde-check", parents=[common, grid_in],
                        help="Euler-Lagrange residual of a grid")
    sp.add_argument("--model", choices=("12", "123"), required=True)
    sp.set_defaults(handler=_cmd_pde_check)

    sp = sub.add_parser("dimple", parents=[common],
                        help="123/321 boundary crossing point")
    sp.set_defaults(handler=_cmd_dimple)

    return p


def _manifest(argv, args, scalars, wall: float, code: int) -> dict:
    import platform

    import numpy

    from . import __version__

    return {
        "command": "permutons " + " ".join(argv),
        "subcommand": args.command,
        "seed": int(getattr(args, "seed", 0) or 0),
        "threads": getattr(args, "threads", None),
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__,
                     "permutons": __version__},
        "wall_time_s": wall,
        "exit_code": code,
        "scalars": scalars,
    }


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads is not None and args.threads < 1:
            parser.error(f"argument --threads: must be >= 1, got {args.threads}")
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error
        return exc.code
    # neither argparse nor the parser imports numpy, so the thread count is
    # pinned before numpy first loads
    if args.threads is not None:
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)
    from .core import ConvergenceError

    t0 = time.perf_counter()
    scalars: dict = {}
    try:
        try:
            code = args.handler(args, scalars)
        except ConvergenceError as exc:
            # a solver gave up inside a handler (e.g. a rebalancing stall)
            print(f"error: {exc}", file=sys.stderr)
            code = 3
        if args.manifest:
            _write_json(args.manifest,
                        _manifest(argv, args, scalars, time.perf_counter() - t0, code))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code

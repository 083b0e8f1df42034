"""Package surface: every exported name resolves, and imports stay lazy.

``permutons`` loads its attributes on first access (PEP 562), so a name
left in the export table after its definition is gone fails only when
someone touches it; the first test touches them all.  The CLI pins the
BLAS thread-count variables for ``--threads`` before numpy initializes,
which works only while importing the package and the CLI module does not
import numpy; the second test checks that in a fresh interpreter.  The
package's only runtime dependency is numpy: ``heat_flow`` runs the cosine
flow through numpy's FFT of the mirrored grid, and the dilogarithm behind
``star12_rho``/``star12_entropy``, the log-sum-exp of ``ldp_estimate`` and
the monotone cubic of ``reconstruct`` are numpy ports of scipy's.  The
third test checks, in a fresh interpreter, through the library and through
the CLI (``heatflow`` and a run with ``--manifest`` included), that no
scipy module loads, and the fourth that no module of the package imports
scipy.  Every value type
holds its arrays read-only through one helper, ``core._frozen``; a test
checks that no other code in the package sets an array flag.  Every
exact density is a sum of the quadrant terms in one table,
``patterns._TERMS``; a test checks that only
``patterns._terms`` reads it.  Two rules have one owner each, and the last
test checks both: only ``rebalance_marginals`` decides that a grid is
balanced (``entropy`` neither imports the tolerance nor sums marginals),
and only ``patterns._trial_hits`` draws k-point Monte Carlo trials
(``regions`` imports neither the sampler nor the matcher).  A solver that
gives up raises ``ConvergenceError``, defined once in ``core``; the last
test checks that no module raises or catches a bare ``RuntimeError`` and
that ``cli.main`` maps exactly that type to exit 3.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import permutons

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in permutons.__all__ if not hasattr(permutons, name)]
    assert missing == []
    assert set(permutons.__all__) <= set(dir(permutons))


def _fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_and_cli_import_without_numpy():
    out = _fresh("import sys, permutons, permutons.cli; print('numpy' in sys.modules)")
    assert out.strip() == "False"


COLD_START = """
import contextlib, io, math, os, sys, tempfile
from permutons import (core, patterns, entropy, insertion, starmodel,
                       optimizer, regions, oracle, cli)

def report(value=0.0):
    assert math.isfinite(value), value
    print(sorted(n for n in sys.modules if n == "scipy" or n.startswith("scipy.")))

with tempfile.TemporaryDirectory() as tmp:
    grid = os.path.join(tmp, "g.csv")
    for argv in (["optimize", "--constraints", "12=0.3", "--grid", "16"],
                 ["star12", "--rho", "0.3", "--grid", "8", "--out", grid,
                  "--manifest", os.path.join(tmp, "m.json")],
                 ["ldp", "--rho", "0.4", "--n", "50"],
                 ["heatflow", "--in", grid, "--t", "0.05"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        report()
report(starmodel.star12_entropy(-2.0))
report(oracle.ldp_estimate(40, 0.4, 0.05))
report(entropy.entropy_grid(
    entropy.heat_flow(starmodel.star12_grid(-2.0, 16), 0.05)))
# 8 output cells take 65 chunk boundaries per column: the monotone cubic branch
report(insertion.reconstruct(insertion.star_family(((1, 0),), (1.0,), 8, 16), 8).correction)
"""


def test_no_scipy_module_loads():
    assert _fresh(COLD_START).splitlines() == ["[]"] * 8


def test_no_module_imports_scipy():
    sites = []
    for path in sorted((ROOT / "src" / "permutons").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            sites += [(path.name, node.lineno) for name in names
                      if name == "scipy" or name.startswith("scipy.")]
    assert sites == []


def test_only_the_core_helper_sets_array_flags():
    src = ROOT / "src" / "permutons"
    helper = next(node for node in ast.walk(ast.parse((src / "core.py").read_text()))
                  if isinstance(node, ast.FunctionDef) and node.name == "_frozen")
    sites = [(path.name, no) for path in sorted(src.glob("*.py"))
             for no, line in enumerate(path.read_text().splitlines(), 1)
             if "setflags(" in line]
    assert sites and all(name == "core.py" and helper.lineno <= no <= helper.end_lineno
                         for name, no in sites), sites


def test_only_the_term_walk_reads_the_term_table():
    path = ROOT / "src" / "permutons" / "patterns.py"
    walk = next(node for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == "_terms")
    sites = [no for no, line in enumerate(path.read_text().splitlines(), 1)
             if "_TERMS[" in line]
    assert sites and all(walk.lineno <= no <= walk.end_lineno for no in sites), sites


def test_balance_and_sampling_each_have_one_owner():
    src = ROOT / "src" / "permutons"
    trees = {name: ast.parse((src / f"{name}.py").read_text())
             for name in ("entropy", "regions", "patterns")}

    def imported(name):
        return {alias.name for node in ast.walk(trees[name])
                if isinstance(node, ast.ImportFrom) for alias in node.names}

    def calls(name):
        return [node for node in ast.walk(trees[name]) if isinstance(node, ast.Call)]

    assert "MARGINAL_TOL" not in imported("entropy")
    marginal_sums = [node.lineno for node in calls("entropy")
                     if isinstance(node.func, ast.Attribute) and node.func.attr == "sum"
                     and any(k.arg == "axis" for k in node.keywords)]
    assert marginal_sums == []
    assert not imported("regions") & {"sample_points", "_matches"}
    draws = [node.lineno for node in calls("patterns")
             if isinstance(node.func, ast.Name) and node.func.id == "sample_points"]
    loop = next(node for node in ast.walk(trees["patterns"])
                if isinstance(node, ast.FunctionDef) and node.name == "_trial_hits")
    assert len(draws) == 1 and loop.lineno <= draws[0] <= loop.end_lineno, draws


def test_convergence_error_is_the_one_failure_type():
    src = ROOT / "src" / "permutons"
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    defined = [(name, node.lineno) for name, tree in trees.items()
               for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == "ConvergenceError"]
    assert [name for name, _ in defined] == ["core"]
    # RuntimeError appears once: as the base of ConvergenceError, raised or
    # caught nowhere
    sites = [(name, node.lineno) for name, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "RuntimeError"]
    assert sites == defined
    main = next(node for node in ast.walk(trees["cli"])
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = [ast.unparse(handler.type) for node in ast.walk(main)
              if isinstance(node, ast.Try) for handler in node.handlers]
    assert "ConvergenceError" in caught and "RuntimeError" not in caught
    from permutons import starmodel
    assert permutons.ConvergenceError is starmodel.ConvergenceError

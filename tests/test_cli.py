"""Command-line behavior: output files, manifests, exit codes, formats.

Runs the entry point in-process (argv -> return code) so file effects and
exit codes can be asserted hermetically.  Two tests go through a real
process: one drives the installed ``permutons`` console script and is
skipped when no such script is on PATH (``pip install -e .`` provides
it); the other runs, from the source tree, both the ``[project.scripts]``
entry point declared in pyproject.toml, the way an installed wrapper
does, so a broken declaration fails without an install, and
``python -m permutons``.  Contract highlights
exercised here: grids emit CSV plus a JSON sidecar with entropy and all
eight k <= 3 densities; every run with --manifest leaves a record whose
only run-to-run difference is wall time; validation problems exit 2
without a manifest write, solver non-convergence exits 3 while still
writing outputs and the manifest.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from permutons import core, starmodel
from permutons.core import ConvergenceError
from permutons.cli import _THREAD_VARS, build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_star12_outputs_and_manifest(tmp_path):
    out = tmp_path / "grid.csv"
    man = tmp_path / "run.json"
    code = main(["star12", "--rho", "0.5", "--grid", "32",
                 "--out", str(out), "--manifest", str(man)])
    assert code == 0
    assert load(out).splitlines()[0] == "m=32"
    side = json.loads(load(str(out) + ".json"))
    assert side["m"] == 32
    # rho = 1/2 is the uniform permuton: entropy exactly zero, not -0.0
    assert side["entropy"] == 0 and str(side["entropy"]) == "0"
    assert set(side["densities"]) == {"12", "21", "123", "132", "213",
                                      "231", "312", "321"}
    assert side["densities"]["12"] == 0.5
    record = json.loads(load(man))
    assert record["exit_code"] == 0
    assert record["subcommand"] == "star12"
    assert record["scalars"]["r"] == 0
    assert set(record["versions"]) == {"python", "numpy", "permutons"}


def test_manifest_identical_modulo_wall_time(tmp_path):
    out = tmp_path / "sweep.csv"
    man = tmp_path / "run.json"
    outs, mans = [], []
    for _ in (1, 2):
        code = main(["sweep-ab", "--na", "3", "--nb", "2", "--trials", "500",
                     "--seed", "11", "--out", str(out), "--manifest", str(man)])
        assert code == 0
        outs.append(load(out))
        mans.append(json.loads(load(man)))
    assert outs[0] == outs[1]
    for m in mans:
        assert m.pop("wall_time_s") >= 0.0
    assert mans[0] == mans[1]


@pytest.mark.parametrize("argv", [
    # each of these once exited 0: a NaN tolerance or target reported
    # "converged" with density 0.5, and --trials 2.5 ran 2 trials
    ["solve-star", "--terms", "1,0", "--targets", "0.3", "--tol", "nan"],
    ["solve-star", "--terms", "1,0", "--targets", "nan"],
    ["solve-star", "--terms", "1,0", "--targets", "0.3", "--max-iter", "-1"],
    ["sweep-ab", "--na", "2", "--nb", "2", "--trials", "2.5"],
    ["sweep-ab", "--na", "2", "--nb", "2", "--trials", "inf"],
    ["density", "--in", "{grid}", "--tau", "12", "--mc", "--trials", "2.5"],
])
def test_bad_settings_exit_2_by_name(tmp_path, capsys, argv):
    grid = tmp_path / "g.csv"
    assert main(["star12", "--rho", "0.4", "--grid", "8", "--out", str(grid)]) == 0
    capsys.readouterr()
    assert main([a.format(grid=grid) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and ("must" in err)


def test_trials_accept_exponent_form(capsys):
    assert main(["sweep-ab", "--na", "2", "--nb", "2", "--trials", "1e3"]) == 0
    assert main(["sweep-ab", "--na", "2", "--nb", "2", "--trials", "1000"]) == 0
    first, second = capsys.readouterr().out.split("a,b,rho12,rho123")[1:]
    assert first == second


def test_unwritable_manifest_exits_2(tmp_path, capsys):
    # a manifest path in a missing directory fails like such an --out path
    missing = tmp_path / "missing"
    for argv in (["dimple", "--out", missing / "x.txt"],
                 ["star12", "--rho", "0.4", "--grid", "8", "--manifest", missing / "m.json"]):
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(missing) in err[0]
    assert not missing.exists()


def test_argument_errors_exit_2(tmp_path, capsys):
    man = tmp_path / "m.json"
    g = tmp_path / "g.csv"
    # a NaN rate and one whose square overflows are rejected where they enter
    for rate in ("nan", "1e300"):
        assert main(["star12", "--r", rate, "--grid", "8", "--out", str(g),
                     "--manifest", str(man)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not g.exists() and not man.exists()
    main(["star12", "--rho", "0.4", "--grid", "8", "--out", str(g)])
    assert main(["density", "--in", str(g), "--tau", "99",
                 "--manifest", str(man)]) == 2
    assert not man.exists()  # validation failures leave no manifest
    assert main(["star12", "--r", "1.0", "--rho", "0.5"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["ldp", "--rho", "0.4", "--eps", "0.05", "--n", "9999"]) == 2
    for trials in ("0", "-5"):
        assert main(["sweep-ab", "--na", "2", "--nb", "2", "--trials", trials]) == 2
    # optimizer budgets and tolerances are checked before any work
    capsys.readouterr()
    for flag, value in (("--restarts", "-1"), ("--max-outer", "0"), ("--tol", "nan")):
        assert main(["optimize", "--constraints", "12=0.3", "--grid", "8",
                     flag, value, "--manifest", str(man)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not man.exists()
    # a non-finite cell mass is invalid input, not an entropy of 0
    rows = load(g).splitlines()
    rows[1] = "nan" + rows[1][rows[1].index(","):]
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join(rows) + "\n")
    assert main(["entropy", "--in", str(bad), "--manifest", str(man)]) == 2
    assert not man.exists()


def test_threads_pins_the_blas_variables(monkeypatch, capsys):
    # setenv first, so that the variables are restored after the test
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "7")
    assert main(["dimple", "--threads", "2"]) == 0
    assert [os.environ[var] for var in _THREAD_VARS] == ["2"] * len(_THREAD_VARS)
    for bad in ("0", "-1"):
        assert main(["dimple", "--threads", bad]) == 2
        assert "--threads: must be >= 1" in capsys.readouterr().err
    assert [os.environ[var] for var in _THREAD_VARS] == ["2"] * len(_THREAD_VARS)


def test_missing_input_file_exits_2(tmp_path):
    assert main(["entropy", "--in", str(tmp_path / "absent.csv")]) == 2


def test_malformed_grid_entry_exits_2_naming_the_row(tmp_path, capsys):
    # '#' starts no comment in a grid CSV: the entry is refused, by row
    bad = tmp_path / "bad.csv"
    bad.write_text("m=2\n0.5,0\n0,0.5 # x\n")
    man = tmp_path / "m.json"
    assert main(["entropy", "--in", str(bad), "--manifest", str(man)]) == 2
    assert capsys.readouterr().err == (
        "error: data row 2: could not convert string to float: '0.5 # x'\n")
    assert not man.exists()


def test_fractional_header_count_exits_2_naming_the_field(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text("m=2.5\n0.5,0\n0,0.5\n")
    fam = tmp_path / "fam.csv"
    fam.write_text("mt=8,my=2.5\n" + "1,1,1\n" * 8)
    man = tmp_path / "m.json"
    assert main(["entropy", "--in", str(grid), "--manifest", str(man)]) == 2
    assert capsys.readouterr().err == (
        "error: grid CSV header 'm=2.5': m must be an integer, got '2.5'\n")
    assert main(["insertion", "--in", str(fam), "--grid", "8", "--manifest", str(man)]) == 2
    assert capsys.readouterr().err == (
        "error: family CSV header 'mt=8,my=2.5': my must be an integer, got '2.5'\n")
    assert not man.exists()


def test_parser_is_built_once_and_calls_share_nothing(tmp_path, capsys):
    assert build_parser() is build_parser()
    g, pgm, man = tmp_path / "g.csv", tmp_path / "g.pgm", tmp_path / "m.json"
    star = ["star12", "--rho", "0.4", "--grid", "8", "--out", str(g)]
    # a --pgm run, then one without: the second writes no heatmap
    assert main(star + ["--pgm", str(pgm)]) == 0 and pgm.exists()
    pgm.unlink()
    assert main(star) == 0 and not pgm.exists()
    # --seed 5, then the default seed: the second run is the default run
    sample = ["sample", "--in", str(g), "--n", "40"]
    capsys.readouterr()
    assert main(sample) == 0
    default = capsys.readouterr().out
    assert main(sample + ["--seed", "5", "--manifest", str(man)]) == 0
    assert capsys.readouterr().out != default and json.loads(load(man))["seed"] == 5
    assert main(sample + ["--manifest", str(man)]) == 0
    assert capsys.readouterr().out == default and json.loads(load(man))["seed"] == 0
    # an argument error (exit 2), then a good run
    assert main(["star12", "--grid", "oops"]) == 2
    assert "invalid int value: 'oops'" in capsys.readouterr().err
    assert main(sample) == 0 and capsys.readouterr().out == default
    # --help still exits 0, before and after the runs above
    assert main(["--help"]) == 0 and main(["sample", "--help"]) == 0
    assert "--in INP" in capsys.readouterr().out


def test_solver_divergence_exits_3_with_diagnostics(tmp_path, monkeypatch):
    out = tmp_path / "sol.json"
    man = tmp_path / "m.json"
    code = main(["solve-star", "--terms", "1,0;2,0", "--targets", "0.5,0.2",
                 "--out", str(out), "--manifest", str(man)])
    assert code == 3
    diag = json.loads(load(out))
    assert diag["converged"] is False
    assert diag["residual"] > 0.0
    assert len(diag["alpha"]) == 2
    record = json.loads(load(man))
    assert record["exit_code"] == 3
    assert record["scalars"]["converged"] is False
    # feasible, but 2e-4 above the lower curve 96 nodes cannot resolve the
    # solution; with the node cap there the quadrature failure still writes
    # its diagnostics
    monkeypatch.setattr(starmodel, "_MAX_QUAD", 96)
    target = (2.0 ** 0.5 - 1.0) / 2.0 + 2e-4
    code = main(["solve-star", "--terms", "1,0;2,0", "--targets", f"0.5,{target!r}",
                 "--out", str(out), "--manifest", str(man)])
    assert code == 3
    diag = json.loads(load(out))
    assert diag["converged"] is False
    assert "quadrature" in diag["message"] and "quad = 96" in diag["message"]
    assert diag["residual"] > 0.0
    assert len(diag["alpha"]) == 2
    assert json.loads(load(man))["exit_code"] == 3


def test_solve_star_has_no_quadrature_option(capsys):
    # the node count follows from the solver's own refinement check
    assert main(["solve-star", "--terms", "1,0;2,0", "--targets", "0.5,0.3",
                 "--quad", "96"]) == 2
    assert "--quad" in capsys.readouterr().err


def test_solver_success_json(tmp_path):
    out = tmp_path / "sol.json"
    code = main(["solve-star", "--terms", "1,0;2,0",
                 "--targets", "0.5,0.53", "--out", str(out)])
    assert code == 0
    sol = json.loads(load(out))
    assert sol["converged"] is True
    assert np.abs(np.array(sol["densities"]) - (0.5, 0.53)).max() <= 1e-9
    assert sol["entropy"] == pytest.approx(-0.85295297934253811, abs=1e-8)


def test_optimize_writes_grid_and_sidecar(tmp_path, capsys):
    out = tmp_path / "opt.csv"
    pgm = tmp_path / "opt.pgm"
    man = tmp_path / "run.json"
    code = main(["optimize", "--constraints", "12=0.4", "--grid", "16",
                 "--out", str(out), "--pgm", str(pgm), "--manifest", str(man)])
    assert code == 0
    side = json.loads(load(str(out) + ".json"))
    assert side["densities"]["12"] == pytest.approx(0.4, abs=1e-4)
    # stdout, manifest and sidecar report one entropy of the returned grid
    printed = capsys.readouterr().out.splitlines()[1]
    assert printed == f"entropy = {side['entropy']:.17g}"
    assert json.loads(load(man))["scalars"]["entropy"] == side["entropy"]
    header = load(pgm).splitlines()
    assert header[0] == "P2"
    assert header[1] == "16 16"
    assert header[2] == "255"
    body = [int(v) for row in header[3:] for v in row.split()]
    assert len(body) == 256 and max(body) == 255


def test_optimize_manifest_counts_newton_and_cg_work(tmp_path):
    out = tmp_path / "opt.csv"
    man = tmp_path / "run.json"
    mans = []
    for _ in (1, 2):
        code = main(["optimize", "--constraints", "12=0.55,123=0.2", "--grid", "16",
                     "--out", str(out), "--manifest", str(man)])
        assert code == 0
        mans.append(json.loads(load(man)))
        assert mans[-1].pop("wall_time_s") >= 0.0
    assert mans[0] == mans[1]
    scalars = mans[0]["scalars"]
    assert 0 < scalars["iterations"] <= 10
    assert scalars["cg_iterations"] >= scalars["iterations"]


def test_optimize_stalled_projection_exits_3_with_grid(tmp_path, capsys, monkeypatch):
    import permutons.optimizer as opt

    real, calls = opt.rebalance_marginals, []

    def stalls_on_second_call(w, *args, **kwargs):
        # the run needs three Newton steps, one projection each
        calls.append(1)
        if len(calls) == 2:
            raise ConvergenceError("marginal rebalancing did not reach 1.0e-13", 1.0)
        return real(w, *args, **kwargs)

    monkeypatch.setattr(opt, "rebalance_marginals", stalls_on_second_call)
    out = tmp_path / "opt.csv"
    man = tmp_path / "m.json"
    code = main(["optimize", "--constraints", "12=0.4", "--grid", "16",
                 "--out", str(out), "--manifest", str(man)])
    assert code == 3
    err = capsys.readouterr().err
    assert "error: projection stalled: marginal rebalancing did not reach" in err
    assert load(out).splitlines()[0] == "m=16"
    record = json.loads(load(man))
    assert record["exit_code"] == 3
    assert record["scalars"]["converged"] is False
    assert record["scalars"]["iterations"] == 2 == len(calls)


def test_rebalancing_stall_in_a_handler_exits_3(tmp_path, capsys, monkeypatch):
    # the reconstruction's projection gives up after two sweeps: main maps the
    # ConvergenceError to exit 3 and still writes the manifest
    g, fam, man = tmp_path / "g.csv", tmp_path / "fam.csv", tmp_path / "m.json"
    assert main(["star12", "--r", "-2.0", "--grid", "32", "--out", str(g)]) == 0
    assert main(["insertion", "--in", str(g), "--out", str(fam)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(core, "_REBALANCE_MAX_ITER", 2)
    assert main(["insertion", "--in", str(fam), "--grid", "16",
                 "--out", str(tmp_path / "rec.csv"), "--manifest", str(man)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error: marginal rebalancing did not reach 1.0e-13 in 2 iterations "
        "(last deviation ")
    assert json.loads(load(man))["exit_code"] == 3


def test_a_bug_in_a_handler_is_not_non_convergence(monkeypatch):
    # only ConvergenceError means "gave up"; any other RuntimeError propagates
    import permutons.regions as regions

    def broken():
        raise RuntimeError("a bug")

    monkeypatch.setattr(regions, "dimple", broken)
    with pytest.raises(RuntimeError, match="a bug"):
        main(["dimple"])


def test_optimize_beyond_resolution_exits_3(tmp_path, capsys):
    # no 16 x 16 grid has rho_123 = 0.95: the run says so before any step
    man = tmp_path / "m.json"
    code = main(["optimize", "--constraints", "123=0.95", "--grid", "16",
                 "--out", str(tmp_path / "opt.csv"), "--manifest", str(man)])
    assert code == 3
    err = capsys.readouterr().err
    assert "error: infeasible at resolution m = 16: rho_123 <= 0.910156" in err
    record = json.loads(load(man))
    assert record["exit_code"] == 3
    assert record["scalars"]["iterations"] == 0 == record["scalars"]["cg_iterations"]


def test_density_exact_and_mc(tmp_path, capsys):
    g = tmp_path / "g.csv"
    main(["star12", "--r", "-2.0", "--grid", "16", "--out", str(g)])
    capsys.readouterr()
    assert main(["density", "--in", str(g), "--tau", "12"]) == 0
    exact = capsys.readouterr().out.splitlines()
    assert exact[1] == "stderr = 0" and exact[2] == "trials = 0"
    value = float(exact[0].split("=")[1])
    assert main(["density", "--in", str(g), "--tau", "12", "--mc",
                 "--trials", "2e4", "--seed", "3"]) == 0
    mc = capsys.readouterr().out.splitlines()
    mc_value = float(mc[0].split("=")[1])
    mc_err = float(mc[1].split("=")[1])
    assert mc[2] == "trials = 20000"
    assert abs(mc_value - value) <= 4 * mc_err


def test_entropy_refinement_lines(tmp_path, capsys):
    g = tmp_path / "g.csv"
    main(["star12", "--r", "-3.0", "--grid", "32", "--out", str(g)])
    capsys.readouterr()
    assert main(["entropy", "--in", str(g), "--levels", "8,16,32"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m = 32"
    vals = [float(l.split("=")[-1]) for l in lines[2:]]
    assert len(vals) == 3 and vals[0] >= vals[1] >= vals[2]


def test_heatflow_reports_entropy_gain(tmp_path, capsys):
    g = tmp_path / "g.csv"
    main(["star12", "--r", "-4.0", "--grid", "32", "--out", str(g)])
    capsys.readouterr()
    out = tmp_path / "flow.csv"
    assert main(["heatflow", "--in", str(g), "--t", "0.1",
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    before = float(lines[0].split("=")[1])
    after = float(lines[1].split("=")[1])
    assert after > before
    assert json.loads(load(str(out) + ".json"))["entropy"] == \
        pytest.approx(after, abs=1e-12)


def test_heatflow_rejects_non_finite_time(tmp_path, capsys):
    g = tmp_path / "g.csv"
    main(["star12", "--r", "-4.0", "--grid", "8", "--out", str(g)])
    capsys.readouterr()
    for t in ("nan", "inf"):
        assert main(["heatflow", "--in", str(g), "--t", t]) == 2
        err = capsys.readouterr().err
        assert "diffusion time must be finite and nonnegative" in err


def test_malformed_grid_csv_exits_2_naming_the_row(tmp_path, capsys):
    bad = tmp_path / "ragged.csv"
    bad.write_text("m=2\n0.5,0\n0,0.5,0\n")
    assert main(["entropy", "--in", str(bad)]) == 2
    assert "data row 2 has 3 entries, expected m=2" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("mt=3\n1,1,1\n", "family CSV header 'mt=3' has no 'my=<int>' entry"),
    ("mt=1,my=8\n1,1\n", "data line 1 has 2 fields, expected 3"),
])
def test_malformed_family_csv_exits_2_naming_the_problem(tmp_path, capsys, text, message):
    bad = tmp_path / "fam.csv"
    bad.write_text(text)
    assert main(["insertion", "--in", str(bad), "--grid", "8"]) == 2
    assert message in capsys.readouterr().err


def test_insertion_extract_then_reconstruct(tmp_path, capsys):
    g = tmp_path / "g.csv"
    main(["star12", "--r", "-2.0", "--grid", "32", "--out", str(g)])
    capsys.readouterr()
    fam = tmp_path / "fam.csv"
    assert main(["insertion", "--in", str(g), "--out", str(fam)]) == 0
    ent_line = capsys.readouterr().out.splitlines()[0]
    assert ent_line.startswith("insertion_entropy = ")
    assert load(fam).splitlines()[0] == "mt=32,my=32"
    rec = tmp_path / "rec.csv"
    assert main(["insertion", "--in", str(fam), "--grid", "16",
                 "--out", str(rec)]) == 0
    corr = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
    assert corr < 1e-2
    assert load(rec).splitlines()[0] == "m=16"
    # reconstruction without a target resolution is a usage error
    assert main(["insertion", "--in", str(fam)]) == 2


def test_region_csv(tmp_path):
    out = tmp_path / "region.csv"
    assert main(["region", "--model", "123-321", "--samples", "5",
                 "--out", str(out)]) == 0
    lines = load(out).splitlines()
    assert lines[0] == "label,t,x,y"
    assert lines[1] == "F1,0,0,1"
    labels = {l.split(",")[0] for l in lines[1:]}
    assert labels == {"F1", "F2", "C", "D", "E"}
    out2 = tmp_path / "star.csv"
    assert main(["region", "--model", "star23", "--samples", "3",
                 "--out", str(out2)]) == 0
    assert {l.split(",")[0] for l in load(out2).splitlines()[1:]} == {
        "star23-lower", "star23-upper"}


def test_sweep_csv_header_and_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-ab", "--na", "4", "--nb", "3", "--trials", "200",
                 "--seed", "5", "--out", str(out)]) == 0
    lines = load(out).splitlines()
    assert lines[0] == "a,b,rho12,rho123"
    assert len(lines) == 1 + 12


def test_sample_is_seeded(tmp_path, capsys):
    g = tmp_path / "g.csv"
    main(["star12", "--r", "2.0", "--grid", "16", "--out", str(g)])
    capsys.readouterr()
    assert main(["sample", "--in", str(g), "--n", "30", "--seed", "9"]) == 0
    first = capsys.readouterr().out.strip()
    assert main(["sample", "--in", str(g), "--n", "30", "--seed", "9"]) == 0
    second = capsys.readouterr().out.strip()
    assert first == second
    vals = sorted(int(v) for v in first.split())
    assert vals == list(range(1, 31))


def test_ldp_text_and_json(tmp_path, capsys):
    assert main(["ldp", "--rho", "0.4", "--eps", "0.05", "--n", "50,100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("n=50: estimate = ")
    out = tmp_path / "ldp.json"
    assert main(["ldp", "--rho", "0.4", "--eps", "0.05", "--n", "50",
                 "--json", "--out", str(out)]) == 0
    data = json.loads(load(out))
    assert data["estimates"][0] == pytest.approx(-0.037457156522116293,
                                                 abs=1e-12)


def test_ldp_help_states_the_size_range(capsys):
    assert main(["ldp", "--help"]) == 0
    assert "2..500" in capsys.readouterr().out


def test_pde_check(tmp_path, capsys):
    g = tmp_path / "g.csv"
    main(["star12", "--r", "-2.0", "--grid", "64", "--out", str(g)])
    capsys.readouterr()
    assert main(["pde-check", "--in", str(g), "--model", "12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    alpha = float(lines[0].split("=")[1])
    rms = float(lines[1].split("=")[1])
    assert alpha == pytest.approx(-2.0, abs=1e-2)
    assert rms <= 1e-3


def test_dimple_output(capsys):
    assert main(["dimple"]) == 0
    lines = capsys.readouterr().out.splitlines()
    s = float(lines[0].split("=")[1])
    r = float(lines[1].split("=")[1])
    assert (s, r) == pytest.approx((0.653, 0.278), abs=1e-3)


@pytest.mark.skipif(
    shutil.which("permutons") is None,
    reason="no 'permutons' console script on PATH; install the package "
           "with 'pip install -e .' to run this test")
def test_console_script_round_trip(tmp_path):
    exe = shutil.which("permutons")
    assert exe, "console script should be on PATH after installation"
    out = tmp_path / "g.csv"
    proc = subprocess.run(
        [exe, "star12", "--rho", "0.3", "--grid", "16", "--out", str(out),
         "--threads", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "entropy = " in proc.stdout
    assert load(out).splitlines()[0] == "m=16"


def test_declared_entry_point_round_trip(tmp_path):
    # the two ways to launch the CLI from the source tree, as the tier-1
    # suite runs, with no install: the declared entry point, the way an
    # installed wrapper calls it, and python -m permutons
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["permutons"]
    module, func = target.split(":")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    launchers = ([sys.executable, "-c", "import sys; from %s import %s; sys.exit(%s())"
                  % (module, func, func)],
                 [sys.executable, "-m", "permutons"])
    for launcher in launchers:
        out = tmp_path / "g.csv"
        proc = subprocess.run(
            launcher + ["star12", "--rho", "0.3", "--grid", "16", "--out", str(out),
                        "--threads", "1"],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "entropy = " in proc.stdout
        assert load(out).splitlines()[0] == "m=16"
        out.unlink()
        proc = subprocess.run(launcher + ["no-such-command"],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 2

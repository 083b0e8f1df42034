import shutil
import subprocess
import sys

import pytest

import calibration
import run
import tracing
import workloads


def _subset(wl, keep):
    wl.jobs = [job for job in wl.jobs if keep(job.id)]
    assert wl.jobs
    return wl


def _assert_all_ok(result):
    bad = [(j["id"], j["status"], j["detail"]) for j in result["jobs"] if j["status"] != "ok"]
    assert not bad


def test_maxent_smoke(P):
    wl = workloads.build("maxent", 3, P, run.WORK)
    assert len(wl.jobs) * 2 >= run.MIN_JOB_SAMPLES
    assert len({j.id for j in wl.jobs}) == len(wl.jobs)
    assert sorted(j.id for j in wl.jobs if j.may_fail) == ["123=0.6@m16", "123=0.95@m16"]
    wl = _subset(wl, lambda i: i in ("12=0.25@m16", "*2=0.675@m16", "123=0.2@m16",
                                     "321=0.25@m16", "**3=0.3@m16"))
    first, second = run.run_pass(wl), run.run_pass(wl)
    _assert_all_ok(first)
    run.flag_nondeterminism([first, second])
    _assert_all_ok(second)
    assert all(j["counters"]["optimizer.inner_iters"] > 0 for j in first["jobs"])


def test_montecarlo_smoke(P):
    wl = workloads.build("montecarlo", 3, P, run.WORK)
    assert len(wl.jobs) >= 100
    kinds = ("staircase", "mc:", "subset10:123@staircase", "gamma_ab_sweep")
    picked = {}
    for job in wl.jobs:
        for kind in kinds:
            if kind in job.id and "m=512" not in job.id and kind not in picked:
                picked[kind] = job
    wl.jobs = list(picked.values())
    assert len(wl.jobs) == len(kinds)
    _assert_all_ok(run.run_pass(wl))


def test_cli_session_smoke_traced(P):
    wl = workloads.build("cli_session", 3, P, run.WORK)
    try:
        wl.warmup.run()
        result = run.run_pass(wl, tracing.Tracer())
    finally:
        wl.close()
    _assert_all_ok(result)
    assert result["layers"]["cli.calls"] == len(wl.jobs)
    assert result["layers"]["insertion.reconstruct.calls"] == 1
    assert all(j["hashes"] for j in result["jobs"])
    assert not wl.workdir.exists()


def test_known_failure_counts_as_unsolved_not_failed():
    def boom():
        raise RuntimeError("stalled")

    ok = lambda out: ("ok", "")
    wl = workloads.Workload("synthetic", 0, [
        workloads.Job("hard", boom, ok, lambda out: {}, may_fail=True),
        workloads.Job("plain", boom, ok, lambda out: {}),
        workloads.Job("claims-unsolved", lambda: 1, lambda out: ("unsolved", "no"), lambda out: {}),
    ], warmup=None)
    status = {j["id"]: j["status"] for j in run.run_pass(wl)["jobs"]}
    assert status == {"hard": "unsolved", "plain": "failed", "claims-unsolved": "failed"}


def test_hard_problems_are_unsolved_within_their_budget(P):
    wl = _subset(workloads.build("maxent", 3, P, run.WORK),
                 lambda i: i in ("123=0.6@m16", "123=0.95@m16"))
    first, second = run.run_pass(wl), run.run_pass(wl)
    assert [j["status"] for j in first["jobs"]] == ["unsolved", "unsolved"]
    assert all("not converged" in j["detail"] for j in first["jobs"])
    assert run.counters_of(first) == run.counters_of(second)


def test_maxent_recheck_rejects_a_wrong_grid(P):
    opt = P.optimizer
    w = opt.maximize_entropy(opt.ConstraintSet.of(("12", 0.3)), 16).grid.w
    assert workloads._check_solution(w, (("12", 0.3),)) == ""
    assert "recomputed rho_12" in workloads._check_solution(w, (("12", 0.31),))
    assert "recomputed rho_123" in workloads._check_solution(w, (("123", 0.3),))
    skewed = w.copy()
    skewed[0, 0] += 1e-6
    assert "marginals" in workloads._check_solution(skewed, (("12", 0.3),))


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "maxent",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_setup_is_timed_in_fresh_processes():
    times = run.measure_setup("maxent", 1)
    assert len(times) == run.SETUP_PROBES and min(times) > 0


def test_end_to_end_reports_scaled_times():
    def job(scaled):
        return {"latency_s": 1.0, "scaled_s": scaled, "status": "ok"}

    passes = [{"scaled_wall_s": 1.0, "probe_s": 2 * calibration.REFERENCE_S,
               "jobs": [job(0.5), job(0.5)]},
              {"scaled_wall_s": 3.0, "probe_s": 4 * calibration.REFERENCE_S,
               "jobs": [job(1.5), job(1.5)]}]
    m = run.end_to_end(passes, [1.0, 1.0, 1.0])
    assert m["wall_s"][0] == 2.0
    assert m["job_p50_s"][0] == 1.0
    assert m["job_p90_s"][0] == 1.0
    assert m["setup_s"][0] == pytest.approx(1.0 / 3.0)
    assert m["ok_frac"][0] == 1.0


def test_a_job_is_scaled_by_the_probes_around_it(monkeypatch):
    times = iter([1.0, 2.0, 4.0])
    monkeypatch.setattr(calibration, "probe", lambda: calibration.REFERENCE_S * next(times))
    ok = lambda out: ("ok", "")
    wl = workloads.Workload("synthetic", 0, [
        workloads.Job("a", lambda: 1, ok, lambda out: {}),
        workloads.Job("b", lambda: 2, ok, lambda out: {}),
    ], warmup=None)
    a, b = run.run_pass(wl)["jobs"]
    assert a["scaled_s"] == pytest.approx(a["latency_s"] / 1.5)
    assert b["scaled_s"] == pytest.approx(b["latency_s"] / 3.0)


def test_calibration_factor_is_reference_over_mean_probe():
    ref = calibration.REFERENCE_S
    assert calibration.factor([ref, ref]) == 1.0
    assert calibration.factor([ref, 3 * ref]) == 0.5
    assert 0 < calibration.probe() < 1.0

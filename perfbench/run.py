"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload maxent --seed 1 --seconds 25 --trace 0

The run is a closed loop: one caller in this process starts each job only
after the previous one has finished.  It repeats the workload's fixed job
list in passes until ``--seconds`` is used up (at least one pass, and
untraced at least ``MIN_JOB_SAMPLES`` job samples), checks
every job's output against its reference after the pass, outside the timed
region, and prints ``{"correct", "attempted", "failed", "metrics"}`` as the
last line of standard output.

A calibration probe (``calibration.py``) runs before the first job of a
pass and after every job, outside the job's and the pass's time.  Each
job's time is reported scaled by the factor of the probes on either side of
it, and each pass's time by the factor of all its probes, as seconds at the
probe's reference speed, so that a machine that slows down does not read as
a slower program; the record written by ``--out`` keeps the raw times and
the probe times.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the traced
passes, plus ``trace.overhead_frac`` (median traced pass time over median
untraced pass time, minus 1).  ``--out PATH`` also writes the full record:
every sample count, quartiles, counters, output hashes, failures and the
environment.

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import stats

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:       # before numpy is first imported, here or in a child
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_PROBES = 5
# An untraced run makes passes until it has at least this many job samples,
# so that job_p90_s has ten samples beyond it, even past --seconds.
MIN_JOB_SAMPLES = 100
MODULES = ("cli", "core", "patterns", "entropy", "insertion", "starmodel",
           "optimizer", "regions", "oracle")


class BenchError(Exception):
    """The benchmark cannot run here (no sources, bad arguments)."""


def import_package():
    """Import ``permutons`` and all its modules from this checkout's ``src/``."""
    if not (SRC / "permutons" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib

    P = importlib.import_module("permutons")
    if Path(P.__file__).resolve().parent != (SRC / "permutons").resolve():
        raise BenchError(f"imported permutons from {P.__file__}, not from {SRC}")
    for mod in MODULES:
        importlib.import_module(f"permutons.{mod}")
    return P


def setup_probe(workload: str, seed: int) -> None:
    """What set-up costs a fresh process: import, generate inputs, one warm-up job."""
    P = import_package()
    import workloads

    wl = workloads.build(workload, seed, P, WORK)
    try:
        wl.warmup.run()
    finally:
        wl.close()


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of ``SETUP_PROBES`` fresh processes that each set up the workload."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return times


def run_pass(wl, tracer=None) -> dict:
    """One closed-loop pass over the job list; checks run after the timing."""
    wl.before_pass()
    outputs, latencies = [], []
    probes = [calibration.probe()]
    if tracer is not None:
        tracer.reset()
        tracer.install()
    start = time.perf_counter()
    try:
        for job in wl.jobs:
            if tracer is not None:
                tracer.job = job.id
            t0 = time.perf_counter()
            try:
                out, err = job.run(), None
            except Exception as exc:  # a job's failure is a result, not a crash
                out, err = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            outputs.append((out, err))
            probes.append(calibration.probe())
        wall = time.perf_counter() - start - sum(probes[1:])
    finally:
        if tracer is not None:
            tracer.uninstall()
    jobs = []
    for n, (job, lat, (out, err)) in enumerate(zip(wl.jobs, latencies, outputs)):
        rec = {"id": job.id, "latency_s": lat, "probe_s": probes[n + 1],
               "scaled_s": lat * calibration.factor(probes[n:n + 2]), "may_fail": job.may_fail}
        if err is not None:
            status, detail = ("unsolved" if job.may_fail else "failed"), err
        else:
            try:
                verdict, detail = job.check(out)
                rec["hashes"] = job.digest(out)
                rec["counters"] = job.counters(out)
            except Exception as exc:
                verdict, detail = "wrong", f"check raised {type(exc).__name__}: {exc}"
            status = {"ok": "ok", "unsolved": "unsolved" if job.may_fail else "failed"}.get(
                verdict, "failed")
        rec["status"], rec["detail"] = status, detail
        jobs.append(rec)
    result = {"wall_s": wall, "scaled_wall_s": wall * calibration.factor(probes), "jobs": jobs,
              "probe_s": statistics.fmean(probes)}
    if tracer is not None:
        import tracing

        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["groups"] = tracing.group_totals(tracer.spans)
        tracer.reset()
    return result


def flag_nondeterminism(passes: list[dict]) -> None:
    """Mark a job failed when its output hashes differ from the first pass's."""
    first = {j["id"]: j.get("hashes") for j in passes[0]["jobs"]}
    for p in passes[1:]:
        for j in p["jobs"]:
            if j.get("hashes") != first[j["id"]] and j["status"] != "failed":
                j["status"], j["detail"] = "failed", "output differs from the run's first pass"


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    """Every end-to-end metric; times at the calibration probe's reference speed."""
    lat = [j["scaled_s"] for p in passes for j in p["jobs"]]
    attempted = len(lat)
    ok = sum(1 for p in passes for j in p["jobs"] if j["status"] == "ok")
    walls = [p["scaled_wall_s"] for p in passes]
    setup_scale = calibration.REFERENCE_S / statistics.median(p["probe_s"] for p in passes)
    return {
        "setup_s": (statistics.median(setup) * setup_scale, "s", len(setup)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "job_p50_s": (statistics.median(lat), "s", attempted),
        # per pass, then the median over passes: one slow phase of the
        # machine then moves it no more than it moves wall_s
        "job_p90_s": (statistics.median(stats.p90(j["scaled_s"] for j in p["jobs"])
                                        for p in passes), "s", attempted),
        "ok_frac": (ok / attempted, "frac", attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def per_layer(traced: list[dict], untraced: list[dict], units: dict[str, str]) -> dict:
    out = {}
    for name in traced[0]["layers"]:
        vals = [p["layers"][name] for p in traced]
        out[name] = (statistics.median(vals), units.get(name, ""), len(vals))
    ref_iters = [j["counters"].get("optimizer.inner_iters", 0) for j in traced[0]["jobs"]
                 if j["id"] == _reference_id() and "counters" in j]
    out["optimizer.ref_inner_iters"] = (ref_iters[0] if ref_iters else 0, "count", 1)
    overhead = (statistics.median(p["scaled_wall_s"] for p in traced)
                / statistics.median(p["scaled_wall_s"] for p in untraced) - 1.0)
    out["trace.overhead_frac"] = (overhead, "frac", min(len(traced), len(untraced)))
    out["machine.calibration_s"] = (statistics.median(p["probe_s"] for p in traced + untraced),
                                     "s", len(traced) + len(untraced))
    return out


def _reference_id() -> str:
    import workloads

    return workloads.maxent_job_id(*workloads.REFERENCE_PROBLEM)


def counters_of(p: dict) -> dict[str, int]:
    """Hardware-independent counts of one pass: job counters plus traced call counts."""
    total: dict[str, int] = {"jobs": len(p["jobs"])}
    for j in p["jobs"]:
        for key, val in j.get("counters", {}).items():
            total[key] = total.get(key, 0) + val
    for group, vals in p.get("groups", {}).items():
        total[f"{group}.calls"] = vals["calls"]
        for key, val in vals.items():
            if key not in ("calls", "self_s"):
                total[f"{group}.{key}"] = val
    return dict(sorted(total.items()))


def environment(seed: int) -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}, "seed": seed,
            "commit": commit, "machine": platform.machine()}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write the full run record here")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}")
    spec = load_spec()
    P = import_package()
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    wl = workloads.build(args.workload, args.seed, P, WORK)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    try:
        wl.warmup.run()
        for job in wl.jobs:
            job.prepare()
        untraced, traced = [], []
        begin = time.perf_counter()
        durations = []
        while True:
            t0 = time.perf_counter()
            untraced.append(run_pass(wl))
            if tracer is not None:
                traced.append(run_pass(wl, tracer))
            durations.append(time.perf_counter() - t0)
            used = time.perf_counter() - begin
            enough = tracer is not None or len(untraced) * len(wl.jobs) >= MIN_JOB_SAMPLES
            if enough and used + statistics.median(durations) > args.seconds:
                break
    finally:
        wl.close()
    flag_nondeterminism(untraced + traced)
    passes = untraced + traced
    failures = [{"pass": i, "id": j["id"], "detail": j["detail"]}
                for i, p in enumerate(passes) for j in p["jobs"] if j["status"] == "failed"]
    unsolved = sorted({(j["id"], j["detail"]) for p in passes for j in p["jobs"]
                       if j["status"] == "unsolved"})
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for j in p["jobs"] if j["status"] == "failed")
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(traced, untraced, units)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = end_to_end(untraced, setup)
        wanted = [m["name"] for m in spec["end_to_end"]]
    missing = set(wanted) - set(metrics)
    if missing:
        raise BenchError(f"metrics not produced: {sorted(missing)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in wanted}}
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "result": result,
            "samples": {n: metrics[n][2] for n in wanted},
            "quartiles": {"wall_s": stats.quartiles(p["wall_s"] for p in untraced),
                          "job_latency_s": stats.quartiles(j["latency_s"] for p in untraced
                                                           for j in p["jobs"]),
                          "setup_s": stats.quartiles(setup) if setup else None},
            "pass_wall_s": {"untraced": [p["wall_s"] for p in untraced],
                            "traced": [p["wall_s"] for p in traced]},
            "pass_scaled_wall_s": {"untraced": [p["scaled_wall_s"] for p in untraced],
                                   "traced": [p["scaled_wall_s"] for p in traced]},
            "pass_probe_s": {"untraced": [p["probe_s"] for p in untraced],
                             "traced": [p["probe_s"] for p in traced]},
            "counters": counters_of(traced[0] if traced else untraced[0]),
            "hashes": {j["id"]: j.get("hashes") for j in untraced[0]["jobs"]},
            "job_latency_s": {j["id"]: [p["jobs"][i]["latency_s"] for p in untraced]
                              for i, j in enumerate(untraced[0]["jobs"])},
            "job_probe_s": {j["id"]: [p["jobs"][i]["probe_s"] for p in untraced]
                            for i, j in enumerate(untraced[0]["jobs"])},
            "failures": failures, "unsolved": [list(u) for u in unsolved],
            "groups": traced[0]["groups"] if traced else None,
            "notes": wl.notes, "env": environment(args.seed),
        }
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

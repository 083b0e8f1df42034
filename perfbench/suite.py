"""Run every workload over several seeds, check outputs, print every metric.

    python3 perfbench/suite.py                      # untraced: end-to-end metrics
    python3 perfbench/suite.py --trace 1            # traced: per-layer metrics
    python3 perfbench/suite.py --selfcheck          # determinism self-check

Each run is a fresh ``run.py`` process.  The suite writes every run record
to one JSON file (``--out``, default ``perfbench/results/suite-trace<N>.json``)
and prints, per workload and metric, the median and quartiles over runs,
their spread as a share of the median, and the sample count behind each
run's value.  It exits 1 if any run reports a failed job.

``--selfcheck`` runs each workload twice with the same seed, traced and
one pass each, writes both records, and exits 1 if the two runs differ in
any hardware-independent counter or in any output hash.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        out = Path(tmp) / "record.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(out.read_text())


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spec_of(trace: int) -> list[dict]:
    return load_spec()["per_layer" if trace else "end_to_end"]


def table(records: list[dict], trace: int) -> list[str]:
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == workload and r["trace"] == trace]
        if not runs:
            continue
        failed = sum(r["result"]["failed"] for r in runs)
        lines.append(f"== {workload}: {len(runs)} runs, seeds {[r['seed'] for r in runs]}, "
                     f"failed jobs {failed}")
        lines.append(f"  {'metric':32s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                     f"{'spread':>7s} {'bound':>6s} {'n/run':>6s}")
        for m in spec_of(trace):
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = stats.quartiles(vals)
            n = sorted({r["samples"][m["name"]] for r in runs})
            bound = f"{m['bound']:.3f}" if "bound" in m else "-"
            lines.append(f"  {m['name']:32s} {m['unit']:6s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                         f"{stats.spread(vals):7.3f} {bound:>6s} {'/'.join(map(str, n)):>6s}")
        if trace:
            lines.append("  self-time share of the traced pass, by module: "
                         + ", ".join(f"{mod} {share:.1%}" for mod, share in module_shares(runs[0])))
        for r in runs:
            for u in r["unsolved"]:
                lines.append(f"  unsolved (seed {r['seed']}): {u[0]}: {u[1]}")
            for f in r["failures"]:
                lines.append(f"  FAILED (seed {r['seed']}, pass {f['pass']}): {f['id']}: {f['detail']}")
    return lines


def module_shares(record: dict) -> list[tuple[str, float]]:
    """Each module's summed self time over the first traced pass's wall time.

    What no wrapped function covers (the job loop, argument building, time
    spent in classes' own methods called from here) is listed as ``unwrapped``.
    """
    wall = record["pass_wall_s"]["traced"][0]
    by_module: dict[str, float] = {}
    for group, vals in record["groups"].items():
        mod = group.split(".")[0]
        by_module[mod] = by_module.get(mod, 0.0) + vals["self_s"]
    by_module["unwrapped"] = wall - sum(by_module.values())
    return sorted(((m, t / wall) for m, t in by_module.items()), key=lambda mt: -mt[1])


def determinism_diffs(a: dict, b: dict) -> list[str]:
    """Counters and output hashes that differ between two records of one seed."""
    diffs = []
    for key in sorted(set(a["counters"]) | set(b["counters"])):
        if a["counters"].get(key) != b["counters"].get(key):
            diffs.append(f"counter {key}: {a['counters'].get(key)} != {b['counters'].get(key)}")
    for job in sorted(set(a["hashes"]) | set(b["hashes"])):
        if a["hashes"].get(job) != b["hashes"].get(job):
            diffs.append(f"output hash of {job} differs")
    return diffs


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    (HERE / "_work").mkdir(exist_ok=True)

    name = "selfcheck" if args.selfcheck else f"trace{args.trace}"
    out = Path(args.out) if args.out else HERE / "results" / f"suite-{name}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    records, bad = [], 0
    if args.selfcheck:
        for w in workloads:
            a, b = (run_once(w, seeds[0], 1.0, 1) for _ in range(2))
            records += [a, b]
            diffs = determinism_diffs(a, b)
            bad += bool(diffs)
            print(f"{w} seed {seeds[0]}: {len(a['counters'])} counters, {len(a['hashes'])} "
                  f"hashed outputs: {'NONDETERMINISTIC' if diffs else 'identical'}")
            for d in diffs:
                print(f"  {d}")
    else:
        for w in workloads:
            for s in seeds:
                rec = run_once(w, s, args.seconds, args.trace)
                print(f"{w} seed {s}: {json.dumps(rec['result'])}", file=sys.stderr)
                records.append(rec)
        print("\n".join(table(records, args.trace)))
        bad = sum(r["result"]["failed"] for r in records)
    out.write_text(json.dumps({"runs": records}, indent=1, sort_keys=True) + "\n")
    print(f"records written to {out}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

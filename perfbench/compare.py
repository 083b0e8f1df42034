"""Compare two result files metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Each file is a suite file written by ``suite.py`` (or a single run record
written by ``run.py --out``).  Runs are grouped by workload and by traced or
untraced, and paired by seed.  For every metric both sides have, the table
gives each side's median and quartiles, the ratio of the medians with its
base, the verdict (better, worse or unresolved: the new side must win nine
tenths of the pairs, ties counting for neither, and the medians must differ
by more than the base's quartile distance), and for end-to-end metrics
whether the new median stays within the bound of BENCHMARK.json.  Counters
and output hashes that differ between runs of the same seed are listed
after the table.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import stats
from suite import determinism_diffs

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: str) -> list[dict]:
    data = json.loads(Path(path).read_text())
    return data["runs"] if "runs" in data else [data]


def metric_specs() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def paired(base: list[dict], new: list[dict]):
    """Runs grouped by (workload, trace), paired by seed where both have it."""
    groups = {}
    for side, runs in (("base", base), ("new", new)):
        for r in runs:
            groups.setdefault((r["workload"], r["trace"]), {"base": {}, "new": {}})[side][r["seed"]] = r
    for key, sides in groups.items():
        seeds = sorted(set(sides["base"]) & set(sides["new"]))
        if seeds:
            yield key, [sides["base"][s] for s in seeds], [sides["new"][s] for s in seeds]


def compare(base: list[dict], new: list[dict], specs: dict[str, dict]) -> list[str]:
    lines = []
    for (workload, trace), b_runs, n_runs in paired(base, new):
        lines.append(f"== {workload} ({'traced' if trace else 'untraced'}), "
                     f"{len(b_runs)} pairs")
        lines.append(f"  {'metric':32s} {'base median [q1, q3]':>36s} {'new median [q1, q3]':>36s} "
                     f"{'new/base':>9s} {'verdict':>10s} {'bound':>6s}")
        names = [n for n in b_runs[0]["result"]["metrics"] if n in n_runs[0]["result"]["metrics"]]
        for name in names:
            spec = specs.get(name, {"better": "lower"})
            bv = [r["result"]["metrics"][name]["value"] for r in b_runs]
            nv = [r["result"]["metrics"][name]["value"] for r in n_runs]
            bq, nq = stats.quartiles(bv), stats.quartiles(nv)
            ratio = f"{nq[1] / bq[1]:.3f}" if bq[1] else "-"
            verdict, _ = stats.verdict(bv, nv, spec["better"])
            bound = "-"
            if "bound" in spec:
                ok = stats.within_bound(bq[1], nq[1], spec["better"], spec["bound"])
                bound = "ok" if ok else "OVER"
            lines.append(f"  {name:32s} {_fmt(bq):>36s} {_fmt(nq):>36s} {ratio:>9s} "
                         f"{verdict:>10s} {bound:>6s}")
        for b, n in zip(b_runs, n_runs):
            diffs = determinism_diffs(b, n)
            if diffs:
                lines.append(f"  seed {b['seed']}: {len(diffs)} counters or output hashes differ")
                lines += [f"    {d}" for d in diffs[:20]]
    return lines


def _fmt(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    lines = compare(load_runs(args.base), load_runs(args.new), metric_specs())
    if not lines:
        print("no workload and seed appears in both files", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

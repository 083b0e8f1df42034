"""Spans at the permutons module boundaries, and the per-layer metrics they give.

``Tracer.install`` replaces every public function of every loaded
``permutons`` module with a wrapper, on the module attributes that callers
resolve at call time (``permutons.optimizer.density_grid_exact_with_grad``,
``permutons.regions.sample_points``, ...).  Each call appends one span to an
in-memory list: function name, job id, parent span, start, end, and a few
counters read from the call's arguments or result.  ``uninstall`` puts the
original functions back.  No file of the package changes.

Self time is a span's duration minus the part of it covered by its child
spans.  Spans are grouped into the layers named in ``GROUPS``; a public
function not listed there falls into ``<module>.other``.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

# Function name -> layer group.  Groups are keyed by function name, not by
# defining module, so a function that moves between modules keeps its metric.
GROUPS = {
    "maximize_entropy": "optimizer",
    "density_grid_exact": "patterns.exact",
    "density_grid_exact_with_grad": "patterns.exact",
    "density_mc": "patterns.mc",
    "pattern_count": "patterns.count",
    "rebalance_marginals": "core.rebalance",
    "sample_points": "core.sample",
    "sample_permutation": "core.sample",
    "grid_to_csv": "core.io",
    "grid_from_csv": "core.io",
    "main": "cli",
    "build_parser": "cli",
    "entropy_grid": "entropy",
    "riemann_refinement": "entropy",
    "heat_flow": "entropy",
    "insertion_from_permuton": "insertion.extract",
    "reconstruct": "insertion.reconstruct",
    "solve_star": "starmodel.solve",
    "star12_rho": "starmodel.closed_form",
    "star12_entropy": "starmodel.closed_form",
    "star12_r_from_rho": "starmodel.closed_form",
    "star12_cdf": "starmodel.closed_form",
    "star12_density": "starmodel.closed_form",
    "star12_grid": "starmodel.closed_form",
    "mahonian_log_gf": "starmodel.mahonian",
    "ldp_estimate": "oracle.ldp",
    "gamma_ab_sweep": "regions.sweep",
    "region_123_321": "regions.curves",
    "region_star23_boundary": "regions.curves",
    "dimple": "regions.curves",
}

# Spans of these functions are Monte Carlo work; the outermost of them give
# the Monte Carlo job time behind ``mc.points_per_s``.
MC_FUNCTIONS = ("density_mc", "gamma_ab_sweep", "sample_permutation", "sample_points")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _optimizer_counters(args, kwargs, res):
    cons = _arg(args, kwargs, 0, "cons")
    n_cons = len(getattr(cons, "constraints", cons))
    return {"inner_iters": int(res.iterations), "outer_iters": len(res.history),
            "converged": int(bool(res.converged)), "constraints": n_cons}


def _subsets(args, kwargs, res):
    pi, tau = _arg(args, kwargs, 0, "pi"), _arg(args, kwargs, 1, "tau")
    return {"subsets": math.comb(pi.n, tau.k)}


# Function name -> counters read from (args, kwargs, result) after the call.
HOOKS = {
    "maximize_entropy": _optimizer_counters,
    "density_grid_exact": lambda a, k, r: {"cells": _arg(a, k, 0, "g").m ** 2},
    "density_grid_exact_with_grad": lambda a, k, r: {"cells": _arg(a, k, 0, "g").m ** 2},
    "density_mc": lambda a, k, r: {"trials": int(r.trials)},
    "pattern_count": _subsets,
    "sample_points": lambda a, k, r: {"points": int(_arg(a, k, 1, "n"))},
    "grid_to_csv": lambda a, k, r: {"bytes": len(r)},
    "grid_from_csv": lambda a, k, r: {"bytes": len(_arg(a, k, 0, "text"))},
    "solve_star": lambda a, k, r: {"newton_iters": int(r.newton_iterations)},
}

# Span record fields.
NAME, GROUP, JOB, PARENT, T0, T1, LAST, COUNTERS = range(8)


PACKAGE = "permutons"


class Tracer:
    """Wraps the package's public functions and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._current = -1
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[object, object] = {}

    @staticmethod
    def _modules():
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _wrap(self, fn):
        wrapper = self._wrappers.get(fn)
        if wrapper is not None:
            return wrapper
        name = fn.__name__
        group = group_of(name, fn.__module__)
        hook = HOOKS.get(name)
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, group, self.job, self._current, clock(), 0.0, idx, None]
            spans.append(rec)
            self._current = idx
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[T1] = clock()
                rec[LAST] = len(spans) - 1
                self._current = rec[PARENT]
            if hook is not None:
                rec[COUNTERS] = hook(args, kwargs, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        self._wrappers[fn] = wrapper
        return wrapper

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or getattr(value, "__wrapped_by_tracer__", False)
                        or not value.__module__.startswith(PACKAGE)):
                    continue
                self._saved.append((mod, attr, value))
                setattr(mod, attr, self._wrap(value))
        return self

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._current = -1


def group_of(name: str, module: str) -> str:
    """Layer group of a function: ``GROUPS`` or else ``<module>.other``."""
    return GROUPS.get(name) or f"{module.rsplit('.', 1)[-1]}.other"


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its children.

    ``spans`` is a sequence of (start, end, parent_index) with parent -1 for
    a root.  Child intervals are clipped to the parent and merged before
    subtracting, so overlapping or overhanging children are not counted
    twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0.0
        lo_prev = hi_prev = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if hi_prev is None or lo > hi_prev:
                if hi_prev is not None:
                    covered += hi_prev - lo_prev
                lo_prev, hi_prev = lo, hi
            else:
                hi_prev = max(hi_prev, hi)
        if hi_prev is not None:
            covered += hi_prev - lo_prev
        out.append((end - start) - covered)
    return out


def group_totals(spans) -> dict[str, dict[str, float]]:
    """Per group: calls into it, self time, and summed counters.

    A call counts only where the caller is outside the group, so
    ``sample_permutation`` calling ``sample_points`` is one call into
    ``core.sample`` and ``main`` building its parser is one call into ``cli``.
    """
    selfs = self_times([(s[T0], s[T1], s[PARENT]) for s in spans])
    totals: dict[str, dict[str, float]] = {}
    for rec, self_s in zip(spans, selfs):
        g = totals.setdefault(rec[GROUP], {"calls": 0, "self_s": 0.0})
        parent = rec[PARENT]
        g["calls"] += parent < 0 or spans[parent][GROUP] != rec[GROUP]
        g["self_s"] += self_s
        for key, val in (rec[COUNTERS] or {}).items():
            g[key] = g.get(key, 0) + val
    return totals


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    t = group_totals(spans)

    def get(group, key):
        return t.get(group, {}).get(key, 0)

    out = {}
    for group in ("optimizer", "patterns.exact", "core.rebalance", "core.sample",
                  "patterns.mc", "patterns.count", "cli", "insertion.reconstruct",
                  "starmodel.solve", "starmodel.mahonian", "oracle.ldp", "entropy"):
        out[f"{group}.calls"] = get(group, "calls")
        out[f"{group}.self_s"] = get(group, "self_s")
    for group in ("core.io", "insertion.extract", "starmodel.closed_form",
                  "regions.sweep", "regions.curves"):
        out[f"{group}.self_s"] = get(group, "self_s")
    out["optimizer.inner_iters"] = get("optimizer", "inner_iters")
    out["optimizer.outer_iters"] = get("optimizer", "outer_iters")
    calls = get("optimizer", "calls")
    out["optimizer.converged_frac"] = get("optimizer", "converged") / calls if calls else 0.0
    out["optimizer.evals_per_iter"] = _evals_per_iter(spans)
    out["patterns.exact.cells"] = get("patterns.exact", "cells")
    out["core.sample.points"] = get("core.sample", "points")
    out["patterns.mc.trials"] = get("patterns.mc", "trials")
    out["patterns.count.subsets"] = get("patterns.count", "subsets")
    out["core.io.bytes"] = get("core.io", "bytes")
    out["starmodel.solve.newton_iters"] = get("starmodel.solve", "newton_iters")
    mc_time = _outermost_time(spans, MC_FUNCTIONS)
    out["mc.points_per_s"] = out["core.sample.points"] / mc_time if mc_time > 0 else 0.0
    return out


def _evals_per_iter(spans) -> float:
    """Density-gradient calls per (inner iteration x constraint).

    Counted over optimizer calls that returned; a call that raised has no
    iteration count, so its gradient calls are left out too.
    """
    grads = work = 0
    for i, rec in enumerate(spans):
        if rec[NAME] != "maximize_entropy" or rec[COUNTERS] is None:
            continue
        c = rec[COUNTERS]
        work += c["inner_iters"] * c["constraints"]
        grads += sum(1 for s in spans[i + 1:rec[LAST] + 1]
                     if s[NAME] == "density_grid_exact_with_grad")
    return grads / work if work else 0.0


def _outermost_time(spans, names) -> float:
    """Summed duration of spans named in ``names`` with no such ancestor."""
    total = 0.0
    for rec in spans:
        if rec[NAME] not in names:
            continue
        parent = rec[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            total += rec[T1] - rec[T0]
    return total

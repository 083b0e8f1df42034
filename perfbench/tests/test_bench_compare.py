import json

import compare
import stats


def test_consistent_gain_beyond_the_spread_is_better():
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    new = [v * 0.8 for v in base]
    assert stats.verdict(base, new, "lower")[0] == "better"
    assert stats.verdict(new, base, "lower")[0] == "worse"
    assert stats.verdict(base, new, "higher")[0] == "worse"


def test_nine_of_ten_pairs_suffice_but_eight_do_not():
    base = [1.0] * 10
    nine = [0.8] * 9 + [1.2]
    eight = [0.8] * 8 + [1.2, 1.2]
    assert stats.verdict(base, nine, "lower")[0] == "better"
    assert stats.verdict(base, eight, "lower")[0] == "unresolved"


def test_ties_count_for_neither_side():
    base = [1.0] * 10
    new = [0.8] * 8 + [1.0, 1.0]
    assert stats.verdict(base, new, "lower")[0] == "unresolved"


def test_gap_within_the_base_spread_is_unresolved():
    base = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]
    new = [v - 0.05 for v in base]
    assert stats.verdict(base, new, "lower")[0] == "unresolved"


def test_fewer_than_ten_pairs_resolve_nothing():
    assert stats.verdict([1.0] * 9, [0.5] * 9, "lower")[0] == "unresolved"


def test_within_bound_respects_direction():
    assert stats.within_bound(1.0, 1.1, "lower", 0.15)
    assert not stats.within_bound(1.0, 1.2, "lower", 0.15)
    assert stats.within_bound(1.0, 0.9, "higher", 0.15)
    assert not stats.within_bound(1.0, 0.8, "higher", 0.15)


def _record(seed, wall, inner_iters=100, digest="h"):
    return {"workload": "maxent", "trace": 0, "seed": seed,
            "result": {"metrics": {"wall_s": {"value": wall, "unit": "s"}}},
            "counters": {"optimizer.inner_iters": inner_iters},
            "hashes": {"job": {"grid": digest}}}


def test_compare_files_pairs_by_seed_and_reports_verdicts(tmp_path):
    base = {"runs": [_record(s, 10.0 + 0.1 * (s % 3)) for s in range(10)]}
    new = {"runs": [_record(s, 7.0 + 0.1 * (s % 3), inner_iters=50, digest="g")
                    for s in reversed(range(10))]}
    (tmp_path / "base.json").write_text(json.dumps(base))
    (tmp_path / "new.json").write_text(json.dumps(new))
    lines = compare.compare(compare.load_runs(str(tmp_path / "base.json")),
                            compare.load_runs(str(tmp_path / "new.json")),
                            compare.metric_specs())
    row = next(line for line in lines if line.strip().startswith("wall_s"))
    assert "better" in row and "0.703" in row and row.rstrip().endswith("ok")
    assert any("optimizer.inner_iters: 100 != 50" in line for line in lines)
    assert any("output hash of job differs" in line for line in lines)

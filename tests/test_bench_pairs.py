"""tools/bench_pairs.py's summarizer on canned runs (no benchmark runs)."""
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"points_per_s": "higher", "job_ms_p50": "lower"}
BOUNDS = {"points_per_s": 0.25, "job_ms_p50": 0.25, "peak_rss_mb": 0.15}


def _run(side, pair, pps, p50, workload="thin-growth", failed=0.0):
    return {
        "side": side, "workload": workload, "pair": pair, "correct": True, "failed_frac": failed,
        "attempted": 100, "metrics": {"points_per_s": pps, "job_ms_p50": p50},
    }


def test_summary_medians_iqr_ratio_and_wins():
    base = [100.0, 110.0, 90.0, 105.0, 95.0]
    head = [130.0, 120.0, 125.0, 104.0, 140.0]  # loses pair 3
    runs = [_run("base", p, v, 1000.0 / v) for p, v in enumerate(base)]
    runs += [_run("head", p, v, 1000.0 / v, failed=0.01 * p) for p, v in enumerate(head)]
    summary = bench_pairs.summarize(runs, BETTER, BOUNDS)["thin-growth"]
    pps = summary["metrics"]["points_per_s"]
    assert pps["base"]["median"] == 100.0 and pps["head"]["median"] == 125.0
    assert (pps["base"]["q1"], pps["base"]["q3"]) == (95.0, 105.0)
    assert pps["base_iqr"] == 10.0
    assert pps["ratio"] == pytest.approx(1.25)
    assert (pps["pairs"], pps["head_wins"], pps["base_wins"]) == (5, 4, 1)
    assert pps["beyond_base_iqr"] is True
    # lower is better for latency: the same pairs won, by the same side
    p50 = summary["metrics"]["job_ms_p50"]
    assert (p50["head_wins"], p50["base_wins"]) == (4, 1)
    assert p50["beyond_base_iqr"] is True
    assert summary["max_failed_frac"] == {"base": 0.0, "head": 0.04}
    assert summary["all_correct"] is True


def test_summary_ties_incomplete_pairs_and_workloads():
    runs = [
        _run("base", 0, 100.0, 10.0), _run("head", 0, 100.0, 10.0),  # a tie
        _run("base", 1, 100.0, 10.0), _run("head", 1, 99.0, 10.5),
        _run("base", 2, 100.0, 10.0),  # head run missing: not a pair
        _run("base", 0, 50.0, 20.0, workload="tip-verify"),
        _run("head", 0, 51.0, 19.0, workload="tip-verify"),
    ]
    summary = bench_pairs.summarize(runs, BETTER, BOUNDS)
    assert sorted(summary) == ["thin-growth", "tip-verify"]
    pps = summary["thin-growth"]["metrics"]["points_per_s"]
    assert (pps["pairs"], pps["head_wins"], pps["base_wins"]) == (2, 0, 1)
    assert pps["beyond_base_iqr"] is False
    tip = summary["tip-verify"]["metrics"]["points_per_s"]
    assert tip["base_iqr"] == 0.0 and tip["head_wins"] == 1 and tip["beyond_base_iqr"] is True


def _rss_runs(base_rss, head_rss, base_pps=100.0, head_pps=100.0, base_jobs=1000, head_jobs=1000):
    runs = []
    for p in range(3):
        runs.append({"side": "base", "workload": "tip-verify", "pair": p, "correct": True, "failed_frac": 0.0,
                     "attempted": base_jobs, "metrics": {"points_per_s": base_pps, "peak_rss_mb": base_rss}})
        runs.append({"side": "head", "workload": "tip-verify", "pair": p, "correct": True, "failed_frac": 0.0,
                     "attempted": head_jobs, "metrics": {"points_per_s": head_pps, "peak_rss_mb": head_rss}})
    return runs


def test_summary_flags_a_median_worse_beyond_its_bound():
    better = {"points_per_s": "higher", "peak_rss_mb": "lower"}
    # the RSS rose 16% against a 0.15 bound: flagged, though the head is
    # faster; a 14% rise is not
    flagged = bench_pairs.summarize(_rss_runs(50.0, 58.0, head_pps=130.0), better, BOUNDS)["tip-verify"]
    assert flagged["metrics"]["peak_rss_mb"]["worse_beyond_bound"] is True
    assert flagged["metrics"]["points_per_s"]["worse_beyond_bound"] is False
    within = bench_pairs.summarize(_rss_runs(50.0, 57.0), better, BOUNDS)["tip-verify"]["metrics"]
    assert within["peak_rss_mb"]["worse_beyond_bound"] is False
    # higher is better for throughput: a 26% fall breaks its 0.25 bound, a 24% one does not
    slow = bench_pairs.summarize(_rss_runs(50.0, 50.0, head_pps=74.0), better, BOUNDS)["tip-verify"]["metrics"]
    assert slow["points_per_s"]["worse_beyond_bound"] is True
    slow = bench_pairs.summarize(_rss_runs(50.0, 50.0, head_pps=76.0), better, BOUNDS)["tip-verify"]["metrics"]
    assert slow["points_per_s"]["worse_beyond_bound"] is False


def test_summary_reports_job_counts_and_rss_per_job():
    better = {"points_per_s": "higher", "peak_rss_mb": "lower"}
    runs = _rss_runs(50.0, 56.0, head_pps=130.0, base_jobs=2000, head_jobs=2600)
    runs[-1]["attempted"] = 2700  # the head's median stays 2600
    tip = bench_pairs.summarize(runs, better, BOUNDS)["tip-verify"]
    assert tip["median_attempted"] == {"base": 2000, "head": 2600}
    assert tip["rss_mb_per_job"] == pytest.approx(6.0 / 600)
    # equal job counts leave the cost undefined; so does a side with no runs
    same = bench_pairs.summarize(_rss_runs(50.0, 51.0), better, BOUNDS)["tip-verify"]
    assert same["median_attempted"] == {"base": 1000, "head": 1000}
    assert same["rss_mb_per_job"] is None
    base_only = [r for r in runs if r["side"] == "base"]
    alone = bench_pairs.summarize(base_only, better, BOUNDS)["tip-verify"]
    assert alone["median_attempted"] == {"base": 2000, "head": None}
    assert alone["rss_mb_per_job"] is None


def test_summary_reports_rss_headroom_ratio():
    better = {"points_per_s": "higher", "peak_rss_mb": "lower"}
    # 0.01 MB per job: the 0.15 bound on a 50 MB base allows 7.5 MB, that
    # is 750 more jobs than the base's 2000, a throughput ratio of 1.375
    runs = _rss_runs(50.0, 56.0, head_pps=130.0, base_jobs=2000, head_jobs=2600)
    tip = bench_pairs.summarize(runs, better, BOUNDS)["tip-verify"]
    assert tip["rss_headroom_ratio"] == pytest.approx(1.375)
    # no per-job cost, or RSS falling as jobs rise: no ratio
    same = bench_pairs.summarize(_rss_runs(50.0, 51.0), better, BOUNDS)["tip-verify"]
    assert same["rss_mb_per_job"] is None and same["rss_headroom_ratio"] is None
    falling = _rss_runs(50.0, 49.0, base_jobs=2000, head_jobs=2600)
    assert bench_pairs.summarize(falling, better, BOUNDS)["tip-verify"]["rss_headroom_ratio"] is None

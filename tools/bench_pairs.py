"""Alternated benchmark pairs of two checkouts, summarized into one JSON file.

    python3 tools/bench_pairs.py --base ../parent --head . --seed0 1101 --out BENCH_11.json

Each of ``--pairs`` (default 10) pairs runs ``perfbench/run.py`` once in
the base checkout and once in the head checkout, on the same fresh seed
(``--seed0`` plus the pair index), for every workload of the head's
``BENCHMARK.json`` and for its ``run_seconds``; which side runs first
alternates from pair to pair.  The output holds every run's end-to-end
metrics, and per workload and metric the median and quartiles of each
side, the parent's IQR, the head/base ratio of the medians, the pairs the
head won and whether the head's median is worse than the base's by more
than the metric's bound.  Per workload it also holds each side's median
job count (``attempted``) and the RSS cost per job: the difference of the
``peak_rss_mb`` medians over the difference of the job-count medians
(null when the counts are equal), which sizes how far a throughput gain
can go before ``peak_rss_mb`` breaks its bound.  Provenance records
nproc, Python, NumPy, platform and both commits.  Which way is better,
and each bound, also come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run: its metrics, correctness, failed share,
    job count, the untimed check's seconds and NumPy version."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "failed_frac": detail["failed_frac"],
        "attempted": detail["attempted"],
        "check_s": detail["check_s"],
        "numpy": detail["provenance"].get("numpy"),
    }


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list, better: dict, bounds: dict) -> dict:
    """Per workload and metric: each side's median and quartiles, the
    parent's IQR, the head/base median ratio, the pairs the head won
    (ties count for neither side) and whether the medians differ by more
    than the parent's IQR in the better direction.  runs are records with
    side ("base" or "head"), workload, pair and metrics; better maps a
    metric to "lower" or "higher" and bounds to its relative bound:
    worse_beyond_bound says whether the head's median is worse than the
    base's by more than the bound, as a fraction of the base's median.
    Per workload, median_attempted is each side's median job count (None
    for a side with no runs) and rss_mb_per_job the difference of the
    peak_rss_mb medians over that of the job-count medians (None when
    either is missing or the counts are equal)."""
    out: dict = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        by = {(r["side"], r["pair"]): r for r in mine}
        metrics = {}
        for name, direction in better.items():
            sign = 1.0 if direction == "higher" else -1.0
            sides = {}
            for side in ("base", "head"):
                values = [r["metrics"][name] for r in mine if r["side"] == side and name in r["metrics"]]
                if values:
                    q1, q2, q3 = _quartiles(values)
                    sides[side] = {"median": q2, "q1": q1, "q3": q3, "values": values}
            if len(sides) < 2:
                continue
            base, head = sides["base"], sides["head"]
            complete = [p for p in pairs if ("base", p) in by and ("head", p) in by]
            diffs = [sign * (by["head", p]["metrics"][name] - by["base", p]["metrics"][name])
                     for p in complete]
            iqr = base["q3"] - base["q1"]
            metrics[name] = {
                "better": direction,
                "base": base,
                "head": head,
                "base_iqr": iqr,
                "ratio": head["median"] / base["median"] if base["median"] else None,
                "pairs": len(complete),
                "head_wins": sum(1 for v in diffs if v > 0),
                "base_wins": sum(1 for v in diffs if v < 0),
                "beyond_base_iqr": sign * (head["median"] - base["median"]) > iqr,
                "worse_beyond_bound": sign * (head["median"] - base["median"])
                < -bounds[name] * abs(base["median"]),
            }
        failed = {side: max((r["failed_frac"] for r in mine if r["side"] == side), default=None)
                  for side in ("base", "head")}
        attempted = {}
        for side in ("base", "head"):
            counts = [r["attempted"] for r in mine if r["side"] == side]
            attempted[side] = statistics.median(counts) if counts else None
        rss = metrics.get("peak_rss_mb")
        per_job = None
        if rss and attempted["head"] != attempted["base"]:  # rss: both sides have runs
            per_job = (rss["head"]["median"] - rss["base"]["median"]) / (attempted["head"] - attempted["base"])
        out[workload] = {"metrics": metrics, "max_failed_frac": failed,
                         "all_correct": all(r["correct"] for r in mine),
                         "median_attempted": attempted, "rss_mb_per_job": per_job}
    return out


def _commit(checkout: str):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="checkout of the parent commit")
    parser.add_argument("--head", required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--out", required=True)
    ns = parser.parse_args(argv)

    with open(os.path.join(ns.head, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    checkouts = {"base": os.path.abspath(ns.base), "head": os.path.abspath(ns.head)}
    provenance = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "base_commit": _commit(checkouts["base"]),
        "head_commit": _commit(checkouts["head"]),
        "seconds": seconds,
        "seeds": [ns.seed0 + p for p in range(ns.pairs)],
    }
    runs = []
    for pair in range(ns.pairs):
        seed = ns.seed0 + pair
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for workload in workloads:
            for side in order:
                record = run_once(checkouts[side], workload, seed, seconds)
                record.update(side=side, workload=workload, pair=pair, seed=seed, first=order[0])
                runs.append(record)
                provenance["numpy"] = record["numpy"]
                print(json.dumps({k: record[k] for k in ("side", "workload", "pair", "metrics")}), flush=True)
                # rewritten after every run, so an interrupted series keeps what it measured
                report = {"provenance": provenance, "summary": summarize(runs, better, bounds), "runs": runs}
                with open(ns.out, "w", encoding="utf-8") as handle:
                    json.dump(report, handle, indent=1)
                    handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

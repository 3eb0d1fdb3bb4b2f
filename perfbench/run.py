"""conekernel benchmark.

    python3 perfbench/run.py --workload thin-growth --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed or built.  Every measurement happens in a
fresh child process of this script, so the pairing cache and any lazy
tables never carry over from one repeat to the next:

* ``--trace 0``: seven children each time ``import conekernel`` plus one
  first evaluation (``setup_s`` is their median); then one child runs whole
  rounds of the workload's job stream until ``--seconds`` have passed,
  checks the outputs (untimed) and reports the end-to-end metrics.
* ``--trace 1``: the same fixed prefix of the stream (a few whole rounds)
  runs in one untraced child and in one traced child; the per-layer
  metrics come from the traced child's spans and ``trace.overhead_s`` is
  the difference of the two wall times (a difference of two runs, so it
  carries their run-to-run noise).

The last line of standard output is the JSON result; the line before it
carries provenance, sample counts, the failed fraction with its base and
the check notes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 7
CHILD_TIMEOUT = 150.0
# Rounds run by each child of a traced run (a fixed prefix of the stream,
# so counts repeat exactly): 10-20 s per child on a 2-vCPU x86 box.
TRACE_ROUNDS = {"thin-growth": 2, "wide-multiangle": 6, "tip-verify": 40}

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# (metric, layer, field) for the traced run; units follow the field.
PER_LAYER = (
    ("specfun.bessel_quad.self_s", "specfun.bessel_quad", "self_s"),
    ("specfun.bessel_quad.calls", "specfun.bessel_quad", "calls"),
    ("specfun.bessel_quad.orders", "specfun.bessel_quad", "count"),
    ("specfun.bessel_series.self_s", "specfun.bessel_series", "self_s"),
    ("specfun.bessel_series.orders", "specfun.bessel_series", "calls"),
    ("specfun.bessel_j_many.self_s", "specfun.bessel_j_many", "self_s"),
    ("specfun.gegenbauer.self_s", "specfun.gegenbauer", "self_s"),
    ("specfun.gegenbauer.calls", "specfun.gegenbauer", "calls"),
    ("spectrum.self_s", "spectrum.nu_many", "self_s"),
    ("kernel_series.eval.self_s", "kernel_series.eval", "self_s"),
    ("kernel_series.eval.calls", "kernel_series.eval", "calls"),
    ("kernel_series.eval.s", "kernel_series.eval", "s"),
    ("kernel_series.truncation.self_s", "kernel_series.truncation", "self_s"),
    ("kernel_series.truncation.calls", "kernel_series.truncation", "calls"),
    ("kernel_series.terms_used.sum", "kernel_series.eval", "count"),
    ("asymptotics.pairing.s", "asymptotics.pairing", "s"),
    ("asymptotics.pairing.calls", "asymptotics.pairing", "calls"),
    ("asymptotics.prediction.self_s", "asymptotics.prediction", "self_s"),
    ("asymptotics.envelope.self_s", "asymptotics.envelope", "self_s"),
    ("critical_points.self_s", "critical_points", "self_s"),
    ("harness.scan.self_s", "harness.scan", "self_s"),
    ("harness.scan.calls", "harness.scan", "calls"),
    ("harness.analysis.self_s", "harness.analysis", "self_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
    ("cli.main.calls", "cli.main", "calls"),
    ("bench.job.self_s", "bench.job", "self_s"),
)
FIELD_UNITS = {"self_s": "s", "s": "s", "calls": "count", "count": "count"}


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def _import_package():
    """Import conekernel from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import conekernel
    import conekernel.cli  # noqa: F401  (the CLI module is not imported by the package)

    if not os.path.abspath(conekernel.__file__).startswith(SRC + os.sep):
        raise ImportError(f"conekernel was imported from {conekernel.__file__}, not {SRC}")
    return conekernel


def child_setup(workload: str) -> dict:
    """Time ``import conekernel`` plus the first evaluation of the
    workload's seed-0 stream in this fresh process."""
    t0 = time.perf_counter()
    ck = _import_package()
    sys.path.insert(0, HERE)
    from workloads import first_evaluation

    first_evaluation(ck, workload)
    return {"setup_s": time.perf_counter() - t0}


def _blas_threads():
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def child_jobs(workload: str, seed: int, seconds: float, rounds_fixed: int, traced: bool) -> dict:
    import resource

    ck = _import_package()
    sys.path.insert(0, HERE)
    import numpy as np
    from workloads import Runner, rounds

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runner = Runner(ck)
    jobs, outputs, latencies, errors = [], [], [], {}
    stream = rounds(workload, seed)
    n_rounds = 0
    t_start = time.perf_counter()
    while True:
        for job in next(stream):
            i = len(jobs)
            t0 = time.perf_counter()
            try:
                out = tracer.run_job(i, runner.run, job) if tracer else runner.run(job)
            except Exception as exc:  # a failed job is counted, the loop goes on
                out = None
                errors[i] = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            jobs.append(job)
            outputs.append(out)
        n_rounds += 1
        elapsed = time.perf_counter() - t_start
        if (rounds_fixed and n_rounds >= rounds_fixed) or (not rounds_fixed and elapsed >= seconds):
            break
    wall = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    from checks import CHECKERS, Tally

    t_check = time.perf_counter()
    tally = Tally()
    for i, message in errors.items():
        tally.fail(i, message, True)
    CHECKERS[workload](tally, jobs, outputs, seed)
    check_s = time.perf_counter() - t_check

    points = sum(job.points for job in jobs)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    result = {
        "jobs": len(jobs),
        "rounds": n_rounds,
        "points": points,
        "wall_s": wall,
        "check_s": check_s,
        "points_per_s": points / sum(latencies),
        "job_ms_p50": 1e3 * statistics.median(latencies),
        "job_ms_p90": 1e3 * p90,
        "latency_samples": len(latencies),
        "beyond_p90": sum(1 for v in latencies if v > p90),
        "peak_rss_mb": peak_rss_mb,
        "failed": len(tally.failed_jobs),
        "wrong": len(tally.wrong_jobs),
        "points_checked": tally.points_checked,
        "points_unresolved": tally.points_unresolved,
        "notes": tally.notes,
        "provenance": {
            "numpy": np.__version__,
            "blas": _blas_info(np),
            "openblas_threads": _blas_threads(),
        },
    }
    if tracer:
        result["trace"] = tracer.summary()
        result["trace"]["absent"] = tracer.absent
    return result


def _blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return None


# ---------------------------------------------------------------------------
# parent
# ---------------------------------------------------------------------------

def _spawn(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {args[:3]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "jobs"), default=None, help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if ns.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {WORKLOADS}")
    if ns.child == "setup":
        print(json.dumps(child_setup(ns.workload)))
        return 0
    if ns.child == "jobs":
        print(json.dumps(child_jobs(ns.workload, ns.seed, ns.seconds, ns.rounds, bool(ns.traced))))
        return 0

    common = ["--workload", ns.workload, "--seed", str(ns.seed), "--seconds", str(ns.seconds)]
    setups = []
    if ns.trace:
        fixed = ["--rounds", str(TRACE_ROUNDS[ns.workload])]
        plain = _spawn(["--child", "jobs", *common, *fixed])
        run = _spawn(["--child", "jobs", *common, *fixed, "--traced", "1"])
    else:
        setups = [_spawn(["--child", "setup", *common])["setup_s"] for _ in range(SETUP_PROBES)]
        run = _spawn(["--child", "jobs", *common])

    if ns.trace:
        summary = run["trace"]
        layers = summary["layers"]
        metrics = {}
        for name, layer, field in PER_LAYER:
            value = layers.get(layer, {}).get(field, 0)
            metrics[name] = {"value": value, "unit": FIELD_UNITS[field]}
        metrics["asymptotics.pairing.series_evals"] = {"value": summary["pairing_series_evals"], "unit": "count"}
        metrics["asymptotics.pairing.hit_ratio"] = {"value": summary["pairing_hit_ratio"], "unit": "ratio"}
        metrics["trace.overhead_s"] = {"value": run["wall_s"] - plain["wall_s"], "unit": "s"}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        for name in ("points_per_s", "job_ms_p50", "job_ms_p90", "peak_rss_mb"):
            metrics[name] = {"value": run[name], "unit": END_TO_END_UNITS[name]}

    detail = {
        "workload": ns.workload,
        "seed": ns.seed,
        "trace": ns.trace,
        "jobs": run["jobs"],
        "rounds": run["rounds"],
        "points": run["points"],
        "wall_s": run["wall_s"],
        "check_s": run["check_s"],
        "latency_samples": run["latency_samples"],
        "beyond_p90": run["beyond_p90"],
        "failed_frac": run["failed"] / run["jobs"],
        "failed": run["failed"],
        "attempted": run["jobs"],
        "wrong": run["wrong"],
        "points_checked": run["points_checked"],
        "points_unresolved": run["points_unresolved"],
        "setup_probes_s": setups,
        "notes": run["notes"],
        "provenance": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_commit": _git_commit(),
            **run["provenance"],
        },
    }
    if ns.trace:
        detail["spans"] = summary["spans"]
        detail["absent"] = summary["absent"]
        detail["untraced_wall_s"] = plain["wall_s"]
    print(json.dumps(detail))
    print(json.dumps({
        "correct": run["wrong"] == 0,
        "attempted": run["jobs"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, ImportError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)

"""Replay fixed perfbench job streams in two checkouts and diff every job output.

    python3 tools/replay_outputs.py --base ../parent --head . --seeds 31 32 --tip-rounds 20 --thin-rounds 2

For each seed, the first ``--tip-rounds`` rounds of the tip-verify stream and
the first ``--thin-rounds`` rounds of the thin-growth stream (0 skips a
workload) run once against each checkout's ``src/``, each stream in a fresh
child process, as a benchmark run would.  Both sides take their jobs and
runner from this script's own ``perfbench/workloads.py``, imported
read-only, so both replay the same jobs.  Every job output is serialized
canonically: a float as ``float.hex``, a complex as the pair of its parts,
a dataclass, dict, list, tuple or array field by field.  So a tip job is
its exit code, stdout and stderr, and a thin job every row's x, phi, value,
envelopes and prediction, plus an audit's fit, frequency and bound report;
a job that raises is its exception type and message.

The script prints one line per stream and exits 1, naming the first
differing jobs and where in their output they differ, unless every job
output of the head is identical to the base's.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SHOWN = 5  # differing jobs named per stream


def canonical(obj):
    """obj as JSON-ready data whose equality is bitwise equality of every
    float in it."""
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, complex):
        return [obj.real.hex(), obj.imag.hex()]
    if dataclasses.is_dataclass(obj):
        return {f.name: canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return canonical(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def first_difference(a, b, path: str = ""):
    """The path of the first place where two canonical values differ, or
    None when they are equal."""
    if type(a) is not type(b):
        return path or "/"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}/{key}"
            found = first_difference(a[key], b[key], f"{path}/{key}")
            if found is not None:
                return found
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}/len"
        for i, (u, v) in enumerate(zip(a, b)):
            found = first_difference(u, v, f"{path}/{i}")
            if found is not None:
                return found
        return None
    return None if a == b else (path or "/")


def compare(base: list, head: list) -> list:
    """Per job of two replayed streams, "job <i> (<kind>): <path>" where
    the outputs differ; a missing job counts as a difference."""
    out = []
    for i in range(max(len(base), len(head))):
        if i >= len(base) or i >= len(head):
            out.append(f"job {i}: missing on the {'base' if i >= len(base) else 'head'} side")
            continue
        found = first_difference(base[i], head[i])
        if found is not None:
            out.append(f"job {i} ({head[i]['kind']}): {found}")
    return out


def child(checkout: str, workload: str, seed: int, n_rounds: int) -> None:
    """Run the stream against checkout/src and print one canonical JSON
    line per job."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    src = os.path.join(os.path.abspath(checkout), "src")
    sys.path.insert(0, src)
    import conekernel
    import conekernel.cli  # noqa: F401  (not imported by the package)

    if not os.path.abspath(conekernel.__file__).startswith(src + os.sep):
        raise ImportError(f"conekernel was imported from {conekernel.__file__}, not {src}")
    sys.path.insert(0, PERFBENCH)
    from workloads import Runner, rounds

    runner = Runner(conekernel)
    stream = rounds(workload, seed)
    for _ in range(n_rounds):
        for job in next(stream):
            try:
                output = canonical(runner.run(job))
            except Exception as exc:  # a raised error is an output too
                output = {"error": f"{type(exc).__name__}: {exc}"}
            print(json.dumps({"kind": job.kind, "output": output}, sort_keys=True))


def _spawn(checkout: str, workload: str, seed: int, n_rounds: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", checkout, "--workload", workload,
         "--seed", str(seed), "--rounds", str(n_rounds)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _collect(proc: subprocess.Popen, label: str) -> list:
    stdout, stderr = proc.communicate()
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"{label} exited with {proc.returncode}")
    return [json.loads(line) for line in stdout.splitlines()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="checkout of the parent commit")
    parser.add_argument("--head", help="checkout of the change")
    parser.add_argument("--seeds", type=int, nargs="+", default=[31, 32])
    parser.add_argument("--tip-rounds", type=int, default=20)
    parser.add_argument("--thin-rounds", type=int, default=2)
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--workload", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, default=0, help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)
    if ns.child:
        child(ns.child, ns.workload, ns.seed, ns.rounds)
        return 0
    if not (ns.base and ns.head):
        parser.error("--base and --head are required")

    streams = [(w, r) for w, r in (("tip-verify", ns.tip_rounds), ("thin-growth", ns.thin_rounds)) if r > 0]
    total = differing = 0
    for seed in ns.seeds:
        for workload, n_rounds in streams:
            # both sides of a stream run at once, each in its own process
            procs = {side: _spawn(path, workload, seed, n_rounds)
                     for side, path in (("base", ns.base), ("head", ns.head))}
            outputs = {side: _collect(proc, f"{side} {workload} seed {seed}") for side, proc in procs.items()}
            diffs = compare(outputs["base"], outputs["head"])
            total += len(outputs["head"])
            differing += len(diffs)
            status = "identical" if not diffs else f"{len(diffs)} differ"
            print(f"{workload} seed {seed} rounds {n_rounds}: {len(outputs['head'])} jobs, {status}")
            for line in diffs[:SHOWN]:
                print(f"  {line}")
    print(json.dumps({"jobs": total, "differing": differing, "identical": differing == 0}))
    return 0 if differing == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

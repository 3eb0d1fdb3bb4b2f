"""Outside-in tracer for the traced benchmark run.

Each layer boundary is wrapped at the module attribute its caller looks
up (``kernel_series.bessel_j_many`` is what ``eval_I_multi`` calls, so
that binding is wrapped, not ``specfun.bessel_j_many``).  Nothing in the
package is edited.  Spans are kept in flat arrays until the run ends; self
time is a span's duration minus the durations of its direct children.

A binding that does not exist (a later version deleted or renamed it) is
recorded as absent and simply produces no spans.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

# (span name, module, attribute, what to count per call).  Count kinds:
# "orders" = length of the first argument, "terms" = terms_used of the
# first result, None = nothing beyond the call itself.
BOUNDARIES = (
    ("specfun.bessel_quad", "specfun", "_bessel_quad_batch", "orders"),
    ("specfun.bessel_series", "specfun", "_bessel_series", None),
    ("specfun.bessel_j_many", "kernel_series", "bessel_j_many", None),
    ("specfun.gegenbauer", "kernel_series", "gegenbauer_all", None),
    ("spectrum.nu_many", "kernel_series", "nu_many", None),
    ("kernel_series.truncation", "kernel_series", "_truncation", None),
    ("kernel_series.eval", "kernel_series", "eval_I_multi", "terms"),
    ("kernel_series.eval", "harness", "eval_I_multi", "terms"),
    ("asymptotics.pairing", "harness", "select_pairing", None),
    ("asymptotics.pairing", "asymptotics", "select_pairing", None),
    ("asymptotics.prediction", "harness", "principal_prediction", None),
    ("asymptotics.envelope", "harness", "envelope_interior", None),
    ("asymptotics.envelope", "harness", "envelope_general", None),
    ("critical_points", "harness", "is_resonant_rho", None),
    ("critical_points", "asymptotics", "is_resonant_rho", None),
    ("critical_points", "asymptotics", "conjugate_frequencies", None),
    ("critical_points", "cli", "is_resonant_rho", None),
    ("harness.scan", "harness", "scan", None),
    ("harness.scan", "cli", "scan", None),
    ("harness.analysis", "harness", "octave_maxima", None),
    ("harness.analysis", "harness", "fit_decay_exponent", None),
    ("harness.analysis", "harness", "dominant_frequency", None),
    ("harness.analysis", "harness", "verify_bound", None),
    ("harness.analysis", "cli", "verify_bound", None),
    ("cli.main", "cli", "main", None),
)

JOB = "bench.job"


def _count(kind, args, result) -> float:
    if kind == "orders":
        return float(len(args[0]))
    if kind == "terms":
        return float(result[0].terms_used)
    return 0.0


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span
    and job id, plus one number counted at the boundary."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.count = array("d")
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._job_id = -1
        self._patched: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job_id)
        self.count.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, nid: int, kind):
        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if kind is not None:
                self.count[idx] = _count(kind, args, result)
            return result

        return traced

    def install(self, package: str = "conekernel") -> None:
        for span, mod_name, attr, kind in BOUNDARIES:
            try:
                module = importlib.import_module(f"{package}.{mod_name}")
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, self._name_id(span), kind))
            self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def run_job(self, job_id: int, fn, *args):
        """Run one job under a root span that carries its id."""
        self._job_id = job_id
        return self._wrap(fn, self._name_id(JOB), None)(*args)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds and the
        sum of its counts; plus the pairing-specific derived counts."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            rec["calls"] += 1
            rec["s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
            rec["count"] += self.count[i]

        # eval spans below a pairing span, and pairing calls with none (hits)
        pairing_id = self._ids.get("asymptotics.pairing")
        eval_id = self._ids.get("kernel_series.eval")
        series_evals = 0
        evals_under: dict[int, int] = {}
        if pairing_id is not None:
            for i in range(n):
                if self.name[i] != eval_id:
                    continue
                p = self.parent[i]
                while p >= 0 and self.name[p] != pairing_id:
                    p = self.parent[p]
                if p >= 0:
                    series_evals += 1
                    evals_under[p] = evals_under.get(p, 0) + 1
        pairing_calls = out.get("asymptotics.pairing", {}).get("calls", 0)
        hits = pairing_calls - len(evals_under)
        return {
            "layers": out,
            "pairing_series_evals": series_evals,
            "pairing_hit_ratio": hits / pairing_calls if pairing_calls else 0.0,
            "spans": n,
        }

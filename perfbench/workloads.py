"""Seeded job streams for the three workloads.

Every workload is a closed loop with one client: the next job starts when
the previous one returns, and every scan runs with workers=1 (the value
every preset and gate scan uses), so the fork pool is not measured.

A stream is a sequence of *rounds*.  A round is a small stratified design
(radius strata, dimensions and coupling classes balanced), so the job mix
of a run hardly depends on the seed, and runs stop only at a round
boundary, so a run never ends on a partial mix.

thin-growth      the paper's headline audit: thin cones (rho < 1), n = 3,
                 c = 0, endpoint angles.  Per radius: block scans with
                 predictions tiling x in [100, 2000] (the first one pays the
                 select_pairing miss), then one growth-audit job.  Bessel
                 quadrature dominates.
wide-multiangle  the uniform-bound side: rho in [1, 3] plus exact flat-space
                 jobs, n = 3..8, repulsive and attractive couplings, 48
                 angles per x, so one Bessel batch is shared by 48 angles and
                 the per-angle Gegenbauer and summation work dominates.  Not
                 listed in BENCHMARK.json: on a noisy 2-vCPU box three
                 workloads leave too little time per run for steady figures,
                 so it is run by hand (``--workload wide-multiangle``).
tip-verify       small x through the CLI: short in-process
                 ``conekernel.cli.main(["verify", ..., "--which", "smallx"])``
                 calls.  Only the power-series Bessel path runs, and the fixed
                 cost of each call (argument parsing, JSON) is visible.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("thin-growth", "wide-multiangle", "tip-verify")

TOL = 1e-10  # every job requests the package default tolerance

# thin-growth: radius strata avoid 1/rho = 2 and 4, where predictions are
# undefined, and keep the conjugate frequency sin(theta_q) at least two
# FFT bins above zero so the audit's frequency is resolvable.
THIN_STRATA = ((0.27, 0.365), (0.365, 0.46), (0.54, 0.64), (0.64, 0.74), (0.74, 0.84), (0.84, 0.94))
THIN_X = (100.0, 2000.0)
# x values tiled per radius, two per block job: with 32 blocks per radius
# the audit and the pairing-miss block are 3% of jobs each, so job_ms_p90
# falls inside the block-latency distribution, not on the step to the
# 1-3 s audits.
THIN_POINTS = 64
THIN_BLOCK = 2
THIN_ANGLES = (0.0, math.pi)
WINDOW_COUNT = 512
WINDOW_LENGTH = 102.2

WIDE_ANGLES = tuple(float(p) for p in np.linspace(0.0, math.pi, 48))
WIDE_X = 4  # log-spaced x values per job, from [1, 2] up to [150, 300]

TIP_ANGLE_COUNT = 5

DIMENSIONS = (3, 4, 5, 6, 7, 8)
COUPLINGS = ("zero", "repulsive", "attractive")


@dataclass
class Job:
    kind: str  # "block", "audit", "wide" or "tip"
    rho: float
    n: int
    c: float
    xs: tuple = ()
    phis: tuple = ()
    phi0: float = 0.0  # audit angle
    x0: float = 0.0  # audit window start
    argv: list = field(default_factory=list)

    @property
    def points(self) -> int:
        if self.kind == "audit":
            return WINDOW_COUNT
        return len(self.xs) * len(self.phis)


def conjugate_thetas(rho: float, phi0: float) -> list[float]:
    """theta_q in (0, pi/2) of the conjugate-point family at phi0."""
    out = []
    q_max = int(math.floor(1.0 / (2.0 * rho) + 0.5)) + 1
    for sigma1 in (1, -1):
        for q in range(-q_max, q_max + 1):
            theta = sigma1 * (0.5 * math.pi + rho * phi0 + 2.0 * math.pi * rho * q)
            if 1e-13 < theta < 0.5 * math.pi - 1e-13:
                out.append(theta)
    return out


def _audit_angle(rho: float) -> float:
    """The endpoint angle whose strongest conjugate point (largest mu0 =
    cos theta, hence largest amplitude) is strongest."""
    best = {phi0: max((math.cos(t) for t in conjugate_thetas(rho, phi0)), default=-1.0)
            for phi0 in THIN_ANGLES}
    return max(THIN_ANGLES, key=lambda phi0: best[phi0])


def _coupling(rng, kind: str, d: float) -> float:
    if kind == "zero":
        return 0.0
    if kind == "repulsive":
        return float(rng.uniform(0.1, 3.0))
    return float(-d * d * rng.uniform(0.1, 0.9))  # attractive, subcritical


def _thin_radius(rng, stratum) -> list[Job]:
    rho = float(rng.uniform(*stratum))
    lo, hi = THIN_X
    u = (np.arange(THIN_POINTS) + rng.uniform(size=THIN_POINTS)) / THIN_POINTS
    xs = lo * (hi / lo) ** u
    blocks = [tuple(float(x) for x in xs[i : i + THIN_BLOCK]) for i in range(0, THIN_POINTS, THIN_BLOCK)]
    order = rng.permutation(len(blocks))
    jobs = [Job("block", rho, 3, 0.0, xs=blocks[k], phis=THIN_ANGLES) for k in order]
    jobs.append(
        Job("audit", rho, 3, 0.0, phi0=_audit_angle(rho), x0=float(rng.uniform(100.0, 120.0)))
    )
    return jobs


def _wide_round(rng) -> list[Job]:
    slots = rng.permutation(12)
    jobs, k = [], 0
    for n in DIMENSIONS:
        d = (n - 2) / 2.0
        for kind in COUPLINGS:
            if kind == "zero":
                rho, c = 1.0, 0.0  # flat space: |I| is known exactly
            else:
                rho = 1.0 + 2.0 * (slots[k] + rng.uniform()) / 12.0
                c = _coupling(rng, kind, d)
                k += 1
            xs = np.geomspace(rng.uniform(1.0, 2.0), rng.uniform(150.0, 300.0), WIDE_X)
            jobs.append(Job("wide", float(rho), n, c, xs=tuple(float(x) for x in xs), phis=WIDE_ANGLES))
    return [jobs[i] for i in rng.permutation(len(jobs))]


def _tip_round(rng) -> list[Job]:
    slots = rng.permutation(len(DIMENSIONS) * len(COUPLINGS))
    jobs, k = [], 0
    for n in DIMENSIONS:
        d = (n - 2) / 2.0
        for kind in COUPLINGS:
            rho = float(0.3 * 10.0 ** ((slots[k] + rng.uniform()) / len(slots)))
            k += 1
            c = _coupling(rng, kind, d)
            x_min = float(10.0 ** rng.uniform(-4.0, -2.0))
            x_max = float(rng.uniform(1.0, 12.0))
            count = int(rng.integers(10, 26))
            inner = np.sort(rng.uniform(0.0, math.pi, TIP_ANGLE_COUNT - 2))
            phis = (0.0, *(float(p) for p in inner), math.pi)
            argv = [
                "verify", "--rho", repr(rho), "--n", str(n), "--c", repr(c),
                "--which", "smallx", "--x-min", repr(x_min), "--x-max", repr(x_max),
                "--x-count", str(count), "--tol", repr(TOL),
                "--phi", ",".join(["0", *(repr(p) for p in phis[1:-1]), "pi"]),
            ]
            xs = tuple(float(x) for x in np.geomspace(x_min, x_max, count))
            jobs.append(Job("tip", rho, n, c, xs=xs, phis=phis, argv=argv))
    return [jobs[i] for i in rng.permutation(len(jobs))]


def rounds(workload: str, seed: int):
    """Endless stream of rounds (lists of jobs) for a workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed % 2**32, WORKLOADS.index(workload)])
    while True:
        if workload == "thin-growth":
            # A round pairs a low and a high radius stratum, so rounds cost
            # about the same and a run of whole rounds stays balanced.
            k = len(THIN_STRATA)
            for low in rng.permutation(k // 2):
                pair = [low, k - 1 - low]
                yield [job for s in rng.permutation(pair) for job in _thin_radius(rng, THIN_STRATA[s])]
        elif workload == "wide-multiangle":
            yield _wide_round(rng)
        else:
            yield _tip_round(rng)


def first_evaluation(ck, workload: str) -> None:
    """One evaluation at the first point of the workload's seed-0 stream:
    a CLI call for tip-verify, one series value otherwise."""
    job = next(rounds(workload, 0))[0]
    if job.kind == "tip":
        with contextlib.redirect_stdout(io.StringIO()):
            ck.cli.main(job.argv)
        return
    params = ck.ConeParams(rho=job.rho, n=job.n, c=job.c)
    ck.eval_I(params, ck.KernelPoint(x=job.xs[0], phi=job.phis[0]), tol=TOL)


class Runner:
    """Executes jobs against the package.  Every call goes through the
    module attribute at call time, so a tracer that rebinds it sees it."""

    def __init__(self, ck) -> None:
        self.ck = ck
        self._radius_tables: list = []

    def run(self, job: Job):
        ck = self.ck
        params = ck.ConeParams(rho=job.rho, n=job.n, c=job.c)
        harness = ck.harness
        if job.kind == "block":
            table = harness.scan(params, job.xs, job.phis, tol=TOL, with_prediction=True)
            self._radius_tables.append(table)
            return table
        if job.kind == "audit":
            rows = [row for table in self._radius_tables for row in table.rows]
            self._radius_tables = []
            at_phi0 = sorted((row for row in rows if row.phi == job.phi0), key=lambda row: row.x)
            bx, by = harness.octave_maxima([r.x for r in at_phi0], [r.modulus for r in at_phi0], 2)
            fit = harness.fit_decay_exponent(bx, by)
            xw = harness.make_grid(job.x0, job.x0 + WINDOW_LENGTH, WINDOW_COUNT, "linear")
            window = harness.scan(params, xw, [job.phi0], tol=TOL)
            omega = harness.dominant_frequency(
                xw, [row.value for row in window.rows], growth_exponent=max(fit.slope, 0.0)
            )
            union = harness.ScanTable(
                params=params, rows=tuple(sorted(rows, key=lambda row: (row.phi, row.x)))
            )
            report = harness.verify_bound(union, "interior")
            return {"bx": bx, "fit": fit, "omega": omega, "xw": xw, "report": report, "union": union}
        if job.kind == "wide":
            table = harness.scan(params, job.xs, job.phis, tol=TOL)
            return {
                "table": table,
                "interior": harness.verify_bound(table, "interior"),
                "general": harness.verify_bound(table, "general"),
            }
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ck.cli.main(job.argv)
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

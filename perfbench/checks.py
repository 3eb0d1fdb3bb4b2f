"""Output checks, run after the timed loop.

A value passes when it lies within the tolerance its call requested,
``tol * max(1, |I|)``: absolute where |I| <= 1 (the series' own scale; the
flat-space modulus is below 1 for every n >= 3) and relative above, where
no double-precision result can carry an absolute 1e-10.  Derived
quantities (sup/inf ratios, slopes) get that per-point allowance
propagated through the formula that makes them.

References:
  * flat space (rho = 1, c = 0): |I| = 1/(d 2^d Gamma(d)) exactly;
  * otherwise the series rebuilt from SciPy's ``jv`` and
    ``eval_gegenbauer`` (closed-form C_m^d(+-1) = (+-1)^m binom(m+2d-1, m)
    at the endpoint angles), summed with ``math.fsum``.  Its own error is
    estimated as 1e-14 of the sum of |terms| plus the Gegenbauer
    discrepancy against an extended-precision recurrence; a point whose
    reference error exceeds a tenth of the allowance is *unresolved* and
    counted apart, never as a pass;
  * the audit frequency against the closed-form conjugate frequencies
    sin(theta_q), within one FFT bin.

Each failure is also graded against the error the package documents for
its result (truncation tail plus a per-order Bessel allowance of
max(1e-12, 1e-10 |J|)).  A job outside its requested tolerance is counted
in ``failed``; ``correct`` turns false only for a result outside even that
documented error, a raised error, or a structurally wrong output.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import binom, eval_gegenbauer, jv

from workloads import TOL, conjugate_thetas

REF_REL = 1e-14
RESOLVE = 0.1


def _d(n: int) -> float:
    return (n - 2) / 2.0


def flat_modulus(n: int) -> float:
    d = _d(n)
    return 1.0 / (d * 2.0**d * math.gamma(d))


def envelope(rho: float, n: int, c: float, x: float, which: str) -> float:
    d = _d(n)
    nu0 = math.sqrt(d * d + c)
    env = (1.0 + 1.0 / x) ** (d - nu0)
    return (1.0 + x) ** d * env if which == "general" else env


def _gegenbauer_ld(m_top: int, d: float, t: float) -> np.ndarray:
    out = np.empty(m_top + 1, dtype=np.longdouble)
    t_ld, d_ld = np.longdouble(t), np.longdouble(d)
    out[0] = 1
    if m_top:
        out[1] = 2 * d_ld * t_ld
    for j in range(2, m_top + 1):
        out[j] = (2 * t_ld * (j + d_ld - 1) * out[j - 1] - (j + 2 * d_ld - 2) * out[j - 2]) / j
    return out


class Reference:
    """Value of the series at one point with an estimate of its own error
    and of the error the package documents for the same point."""

    def __init__(self, rho: float, n: int, c: float, x: float, phi: float) -> None:
        d = _d(n)
        nu_stop = x + 10.0 * x ** (1.0 / 3.0) + 60.0
        # nu_m ~ (m + d)/rho: stop where J_nu(x) is negligible.
        m_top = max(8, int(math.ceil(rho * nu_stop)))
        m = np.arange(m_top + 1)
        nus = np.sqrt(m * (m + 2.0 * d) / (rho * rho) + d * d + c)
        b = (m + d) / d
        j = jv(nus, x)
        bj = b * j
        if phi in (0.0, math.pi):
            cg = binom(m + 2.0 * d - 1.0, m)
            if phi == math.pi:
                cg = cg * np.where(m % 2 == 0, 1.0, -1.0)
            dc = np.zeros_like(cg)
        else:
            cg = eval_gegenbauer(m, d, math.cos(phi))
            dc = np.abs(cg - _gegenbauer_ld(m_top, d, math.cos(phi)).astype(float))
        terms = bj * cg
        angle = -0.5 * math.pi * np.mod(nus, 4.0)
        scale = x ** (-d)
        self.value = complex(
            scale * math.fsum(terms * np.cos(angle)), scale * math.fsum(terms * np.sin(angle))
        )
        self.error = scale * (REF_REL * float(np.sum(np.abs(terms))) + float(np.sum(np.abs(bj) * dc)))
        self.documented = TOL + scale * float(np.sum(np.abs(b * cg) * np.maximum(1e-12, 1e-10 * np.abs(j))))


def allowance(value: float) -> float:
    return TOL * max(1.0, abs(value))


class Tally:
    """Job-level outcome: passed, failed (outside tolerance), wrong
    (outside the documented error, or broken), plus point statistics."""

    def __init__(self) -> None:
        self.failed_jobs: set[int] = set()
        self.wrong_jobs: set[int] = set()
        self.points_checked = 0
        self.points_unresolved = 0
        self.notes: list[str] = []

    def fail(self, job: int, what: str, wrong: bool) -> None:
        self.failed_jobs.add(job)
        if wrong:
            self.wrong_jobs.add(job)
        if len(self.notes) < 20:
            self.notes.append(f"job {job}: {what}{' (beyond documented error)' if wrong else ''}")

    def check_point(self, job: int, value: complex, ref: Reference, where: str) -> bool:
        """True when the point is resolved (checked)."""
        if not math.isfinite(abs(value)):
            self.fail(job, f"non-finite value at {where}", True)
            return True
        if ref.error > RESOLVE * allowance(abs(ref.value)):
            self.points_unresolved += 1
            return False
        self.points_checked += 1
        diff = abs(value - ref.value)
        if diff > allowance(abs(ref.value)) + ref.error:
            self.fail(job, f"|I - ref| = {diff:.2e} at {where}", diff > ref.documented + ref.error)
        return True


def _ratio_check(tally, job, label, got, want, slack, doc_slack) -> None:
    diff = abs(got - want)
    if not diff <= slack:
        tally.fail(job, f"{label} {got!r} vs reference {want!r}", not diff <= doc_slack)


def _report_logic(tally, job, report, rows, rho, n, c, which) -> None:
    """sup/inf of |value|/envelope recomputed from the returned values."""
    ratios = [row.modulus / envelope(rho, n, c, row.x, which) for row in rows]
    for label, got, want in (("sup", report.sup_ratio, max(ratios)), ("inf", report.inf_ratio, min(ratios))):
        _ratio_check(tally, job, f"{which} {label} ratio", got, want, 1e-12 * abs(want), 1e-12 * abs(want))
    if report.n_rows != len(rows) or report.passed != (report.sup_ratio <= report.threshold):
        tally.fail(job, f"{which} report is inconsistent", True)


def _rng(seed: int, salt: int):
    return np.random.default_rng([seed % 2**32, 7919, salt])


def check_thin(tally: Tally, jobs, outputs, seed: int) -> None:
    rng = _rng(seed, 0)
    for i, (job, out) in enumerate(zip(jobs, outputs)):
        if out is None:
            continue
        if job.kind == "block":
            rows = out.rows
            if len(rows) != len(job.xs) * len(job.phis) or any(r.prediction is None for r in rows):
                tally.fail(i, "block table is incomplete", True)
                continue
            row = rows[int(rng.integers(len(rows)))]
            ref = Reference(job.rho, job.n, job.c, row.x, row.phi)
            tally.check_point(i, row.value, ref, f"x={row.x:.6g}, phi={row.phi:.4g}")
            continue
        # growth audit: slope from reference values at the octave maxima
        refs = [Reference(job.rho, job.n, job.c, float(x), job.phi0) for x in out["bx"]]
        if any(r.error > RESOLVE * allowance(abs(r.value)) for r in refs):
            tally.points_unresolved += len(refs)
        else:
            tally.points_checked += len(refs)
            lx = np.log(np.asarray(out["bx"], dtype=float))
            w = (lx - lx.mean()) / float(np.dot(lx - lx.mean(), lx - lx.mean()))
            mods = np.array([abs(r.value) for r in refs])
            slope_ref = float(np.dot(w, np.log(mods)))
            rel = max((allowance(abs(r.value)) + r.error) / abs(r.value) for r in refs)
            rel_doc = max((r.documented + r.error) / abs(r.value) for r in refs)
            wsum = float(np.sum(np.abs(w)))
            _ratio_check(tally, i, "slope", out["fit"].slope, slope_ref, wsum * rel, wsum * rel_doc)
        # frequency against the closed form, within one FFT bin
        xw = out["xw"]
        bin_width = 2.0 * math.pi / (len(xw) * (xw[1] - xw[0]))
        freqs = [math.sin(t) for t in conjugate_thetas(job.rho, job.phi0)]
        omega = out["omega"]
        if omega is None or min(abs(omega - f) for f in freqs) > bin_width:
            tally.fail(i, f"frequency {omega!r} vs closed form {freqs}", True)
        # bound report: logic, then the sup row against the reference
        report, union = out["report"], out["union"]
        _report_logic(tally, i, report, union.rows, job.rho, job.n, job.c, "interior")
        ref = Reference(job.rho, job.n, job.c, report.sup_x, report.sup_phi)
        env = envelope(job.rho, job.n, job.c, report.sup_x, "interior")
        if ref.error <= RESOLVE * allowance(abs(ref.value)):
            _ratio_check(
                tally, i, "interior sup ratio", report.sup_ratio, abs(ref.value) / env,
                (allowance(abs(ref.value)) + ref.error) / env, (ref.documented + ref.error) / env,
            )


def check_wide(tally: Tally, jobs, outputs, seed: int) -> None:
    rng = _rng(seed, 1)
    for i, (job, out) in enumerate(zip(jobs, outputs)):
        if out is None:
            continue
        rows = out["table"].rows
        if len(rows) != len(job.xs) * len(job.phis):
            tally.fail(i, "scan table is incomplete", True)
            continue
        if job.rho == 1.0 and job.c == 0.0:
            exact = flat_modulus(job.n)
            worst = max(rows, key=lambda row: abs(row.modulus - exact))
            tally.points_checked += len(rows)
            diff = abs(worst.modulus - exact)
            if not diff <= allowance(exact):
                doc = Reference(job.rho, job.n, job.c, worst.x, worst.phi).documented
                tally.fail(i, f"flat-space | |I| - exact | = {diff:.2e} at x={worst.x:.6g}, "
                              f"phi={worst.phi:.4g}", not diff <= doc)
        for k in rng.choice(len(rows), size=2, replace=False):
            row = rows[int(k)]
            ref = Reference(job.rho, job.n, job.c, row.x, row.phi)
            tally.check_point(i, row.value, ref, f"x={row.x:.6g}, phi={row.phi:.4g}")
        for which in ("interior", "general"):
            _report_logic(tally, i, out[which], rows, job.rho, job.n, job.c, which)


def check_tip(tally: Tally, jobs, outputs, seed: int, sample: int = 64) -> None:
    reports = {}
    for i, (job, out) in enumerate(zip(jobs, outputs)):
        if out is None:
            continue
        try:
            report = json.loads(out["stdout"])["report"]
        except (ValueError, KeyError, TypeError):
            tally.fail(i, f"exit {out['code']}, no report: {out['stderr'].strip()[:200]}", True)
            continue
        if out["code"] != (0 if report["passed"] else 1) or report["n_rows"] != job.points:
            tally.fail(i, f"exit code {out['code']} disagrees with the report", True)
            continue
        reports[i] = report
    rng = _rng(seed, 2)
    chosen = sorted(rng.choice(sorted(reports), size=min(sample, len(reports)), replace=False)) if reports else []
    for i in chosen:
        job, report = jobs[i], reports[i]
        ratios, slack, doc = [], [], []
        resolved = True
        for x in job.xs:
            env = envelope(job.rho, job.n, job.c, x, "interior")
            for phi in job.phis:
                ref = Reference(job.rho, job.n, job.c, x, phi)
                if ref.error > RESOLVE * allowance(abs(ref.value)):
                    resolved = False
                ratios.append(abs(ref.value) / env)
                slack.append((allowance(abs(ref.value)) + ref.error) / env)
                doc.append((ref.documented + ref.error) / env)
        if not resolved:
            tally.points_unresolved += len(ratios)
            continue
        tally.points_checked += len(ratios)
        _ratio_check(tally, int(i), "smallx sup ratio", report["sup_ratio"], max(ratios), max(slack), max(doc))
        _ratio_check(tally, int(i), "smallx inf ratio", report["inf_ratio"], min(ratios), max(slack), max(doc))


CHECKERS = {"thin-growth": check_thin, "wide-multiangle": check_wide, "tip-verify": check_tip}

"""Command-line interface.

Subcommands:
  eval       one series evaluation, JSON to stdout
  scan       grid scan, CSV to a file or stdout
  critical   critical-set enumeration / classification, JSON
  decay-fit  envelope slope (and optionally dominant frequency), JSON
  verify     scan + envelope bound check; exit 0 on pass, 1 on failure

Exit codes: 0 success / bound holds; 1 bound check failed; 2 invalid
parameters or input; 3 evaluation failure (precision or capacity);
4 I/O failure; 5 unsupported regime (1/rho an even integer).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, replace

from ._checks import check_angle, check_finite, check_integer
from .asymptotics import dispersive_envelope, envelope_general, envelope_interior
from .critical_points import (
    classify,
    conjugate_frequencies,
    critical_data_to_json,
    critical_set_union,
    is_resonant_rho,
)
from .errors import (
    CapacityError,
    DomainError,
    InputError,
    PrecisionError,
    UnsupportedRegimeError,
)
from .harness import (
    csv_lines,
    dominant_frequency,
    fit_decay_exponent,
    make_grid,
    octave_maxima,
    scan,
    verify_bound,
    write_csv,
)
from .kernel_series import KernelPoint, PhysicalPoint, eval_I, kernel_prefactor
from .spectrum import ConeParams

__all__ = ["RunConfig", "PRESETS", "parse_angle", "parse_ratio", "main", "console_main"]

_ANGLE_RE = re.compile(r"^([0-9]*\.?[0-9]*)\s*\*?\s*pi\s*(?:/\s*([0-9]*\.?[0-9]+))?$")


def parse_angle(text: str) -> float:
    """Angles as plain numbers or pi-literals: "0", "1.2", "pi", "pi/2",
    "3pi/4".  "pi" maps to math.pi exactly."""
    t = str(text).strip().lower().replace(" ", "")
    match = _ANGLE_RE.match(t)
    if match:
        a = float(match.group(1)) if match.group(1) else 1.0
        b = float(match.group(2)) if match.group(2) else 1.0
        if b == 0.0:
            raise InputError(f"zero denominator in angle {text!r}")
        if a == 1.0 and b == 1.0:
            return math.pi
        return a * math.pi / b
    try:
        return float(t)
    except ValueError:
        raise InputError(f"cannot parse angle {text!r}") from None


def parse_ratio(text: str) -> float:
    """Positive numbers, optionally as fractions: "0.7", "2/3"."""
    t = str(text).strip()
    if "/" in t:
        num, _, den = t.partition("/")
        try:
            value = float(num) / float(den)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"cannot parse ratio {text!r}") from None
        return value
    try:
        return float(t)
    except ValueError:
        raise InputError(f"cannot parse ratio {text!r}") from None


def _check_angles(name: str, v) -> tuple:
    if not isinstance(v, list):
        raise InputError(f"{name} must be a list of angles, got {v!r}")
    return tuple(check_angle(p) for p in v)


# How RunConfig.from_json validates each key; which and x_spacing are
# checked where they are used.
_CONFIG_CHECKS = {
    "rho": check_finite,
    "n": check_integer,
    "c": check_finite,
    "which": lambda name, v: v,
    "threshold": check_finite,
    "x_min": check_finite,
    "x_max": check_finite,
    "x_count": check_integer,
    "x_spacing": lambda name, v: v,
    "phis": _check_angles,
    "tol": check_finite,
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a verify run needs; JSON round-trippable."""

    rho: float = 1.0
    n: int = 3
    c: float = 0.0
    which: str = "interior"
    threshold: float = 10.0
    x_min: float = 1.0
    x_max: float = 2000.0
    x_count: int = 22
    x_spacing: str = "log"
    phis: tuple = (0.4, math.pi / 2.0, math.pi - 0.4)
    tol: float = 1e-10

    def to_dict(self) -> dict:
        """The JSON object of this config (phis as a list)."""
        data = asdict(self)
        data["phis"] = list(self.phis)
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"config is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise InputError("config JSON must be an object")
        unknown = set(data) - set(_CONFIG_CHECKS)
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        data = {name: _CONFIG_CHECKS[name](name, v) for name, v in data.items()}
        return cls(**data)


PRESETS = {
    # Flat space: the modulus is constant, so the interior bound holds.
    "euclidean-n3": RunConfig(
        rho=1.0,
        n=3,
        c=0.0,
        which="interior",
        x_min=1e-3,
        x_max=2000.0,
        x_count=30,
        phis=(0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi),
    ),
    # Attractive coupling: two-sided small-argument order check.
    "smallx-attractive": RunConfig(
        rho=1.0,
        n=3,
        c=-3.0 / 16.0,
        which="smallx",
        x_min=1e-4,
        x_max=0.5,
        x_count=25,
        phis=(0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi),
    ),
    # Antipodal conjugate point for 1/2 < rho < 1: the interior bound
    # MUST fail (expected exit code 1) — the growth is genuine.
    "conjugate-growth": RunConfig(
        rho=2.0 / 3.0,
        n=3,
        c=0.0,
        which="interior",
        x_min=1.0,
        x_max=2000.0,
        x_count=22,
        phis=(math.pi,),
    ),
    # Diagonal conjugate point for rho < 1/2: interior bound MUST fail
    # (expected exit code 1); the amplitude is smaller, so the scan
    # extends further before the ratio clears the threshold.
    "diagonal-growth": RunConfig(
        rho=1.0 / 3.0,
        n=3,
        c=0.0,
        which="interior",
        x_min=1.0,
        x_max=6000.0,
        x_count=20,
        phis=(0.0,),
    ),
    # Away from the endpoint angles the interior bound holds even for
    # small rho (expected exit code 0); vary --epsilon0 to test
    # sensitivity to the angular cutoff.
    "interior-bounded": RunConfig(
        rho=1.0 / 3.0,
        n=3,
        c=0.0,
        which="interior",
        x_min=1.0,
        x_max=2000.0,
        x_count=22,
        phis=(0.4, math.pi / 2.0, math.pi - 0.4),
    ),
}


def _params_from(ns) -> ConeParams:
    return ConeParams(rho=ns.rho, n=ns.n, c=ns.c)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_eval(ns) -> int:
    params = _params_from(ns)
    if ns.physical:
        missing = [flag for flag, val in (("--t", ns.t), ("--r1", ns.r1), ("--r2", ns.r2)) if val is None]
        if missing:
            raise InputError(f"--physical requires {', '.join(missing)}")
        if ns.x is not None:
            raise InputError("--x cannot be combined with --physical (it is derived from t, r1, r2)")
        phys = PhysicalPoint(t=ns.t, r1=ns.r1, r2=ns.r2, phi=ns.phi)
        point = phys.to_kernel_point()
        result = eval_I(params, point, tol=ns.tol, terms=ns.terms)
        value = kernel_prefactor(params, phys) * result.value
        payload = {
            "rho": params.rho,
            "n": int(params.n),
            "c": params.c,
            "t": phys.t,
            "r1": phys.r1,
            "r2": phys.r2,
            "x": point.x,
            "phi": point.phi,
            "re": value.real,
            "im": value.imag,
            "modulus": abs(value),
            "terms_used": result.terms_used,
            "tail_bound": result.tail_bound,
            "env_interior": dispersive_envelope(params, phys, "interior"),
            "env_general": dispersive_envelope(params, phys, "general"),
        }
    else:
        if any(val is not None for val in (ns.t, ns.r1, ns.r2)):
            raise InputError("--t/--r1/--r2 require --physical")
        if ns.x is None:
            raise InputError("--x is required unless --physical is given")
        point = KernelPoint(x=ns.x, phi=ns.phi)
        result = eval_I(params, point, tol=ns.tol, terms=ns.terms)
        payload = {
            "rho": params.rho,
            "n": int(params.n),
            "c": params.c,
            "x": point.x,
            "phi": point.phi,
            "re": result.value.real,
            "im": result.value.imag,
            "modulus": abs(result.value),
            "terms_used": result.terms_used,
            "tail_bound": result.tail_bound,
            "env_interior": envelope_interior(params, point.x),
            "env_general": envelope_general(params, point.x),
        }
    _print_json(payload)
    return 0


def _cmd_scan(ns) -> int:
    params = _params_from(ns)
    if ns.with_prediction and is_resonant_rho(params.rho):
        raise UnsupportedRegimeError(
            f"predictions are undefined when 1/rho is an even integer (rho = {params.rho})"
        )
    xs = make_grid(ns.x_min, ns.x_max, ns.x_count, ns.x_spacing)
    phis = [parse_angle(p) for p in ns.phi.split(",")]
    table = scan(
        params,
        xs,
        phis,
        tol=ns.tol,
        with_prediction=ns.with_prediction,
    )
    if ns.out and ns.out != "-":
        write_csv(table, ns.out)
        _print_json({"rows": len(table.rows), "out": ns.out})
    else:
        sys.stdout.write("\n".join(csv_lines(table)) + "\n")
    return 0


def _cmd_critical(ns) -> int:
    if ns.classify or (ns.phi0 is None and ns.phi is None):
        print(classify(ns.rho).to_json())
        return 0
    if ns.phi0 is not None:
        phi0 = parse_angle(ns.phi0)
        data = []
        for sigma1 in (1, -1):
            data.extend(conjugate_frequencies(ns.rho, sigma1, phi0))
        data.sort(key=lambda datum: (datum.mu0, datum.branch.sigma1, datum.branch.q))
        print(critical_data_to_json(data))
        return 0
    phi = parse_angle(ns.phi)
    data = critical_set_union(ns.rho, ns.sigma1, ns.sigma2, phi)
    print(critical_data_to_json(data))
    return 0


def _cmd_decay_fit(ns) -> int:
    params = _params_from(ns)
    phi = parse_angle(ns.phi)
    spacing = "linear" if ns.with_frequency else "log"
    xs = make_grid(ns.x_min, ns.x_max, ns.x_count, spacing)
    table = scan(params, xs, [phi], tol=ns.tol)
    moduli = [row.modulus for row in table.rows]
    # Densify the binning when the window spans too few octaves for the
    # fit's minimum sample count.
    span = math.log2(ns.x_max / ns.x_min)
    bins = max(ns.bins_per_octave, math.ceil(8.0 / span))
    bx, by = octave_maxima([row.x for row in table.rows], moduli, bins)
    fit = fit_decay_exponent(bx, by)
    payload = {
        "rho": params.rho,
        "n": int(params.n),
        "c": params.c,
        "phi": phi,
        **fit.to_dict(),
        "bins": len(bx),
    }
    if ns.with_frequency:
        growth = ns.growth if ns.growth is not None else max(fit.slope, 0.0)
        payload["growth_exponent"] = growth
        payload["frequency"] = dominant_frequency(
            [row.x for row in table.rows],
            [row.value for row in table.rows],
            growth_exponent=growth,
        )
    _print_json(payload)
    return 0


def _cmd_verify(ns) -> int:
    config = PRESETS[ns.preset] if ns.preset else RunConfig()
    if ns.config:
        with open(ns.config, encoding="utf-8") as handle:
            config = RunConfig.from_json(handle.read())
    overrides = {}
    for field in ("rho", "n", "c", "which", "threshold", "x_min", "x_max", "x_count",
                  "x_spacing", "tol"):
        value = getattr(ns, field)
        if value is not None:
            overrides[field] = value
    if ns.phi is not None:
        overrides["phis"] = tuple(parse_angle(p) for p in ns.phi.split(","))
    elif ns.epsilon0 is not None:
        if not 0.0 < ns.epsilon0 < math.pi / 2.0:
            raise InputError(f"epsilon0 must lie in (0, pi/2), got {ns.epsilon0}")
        overrides["phis"] = (ns.epsilon0, math.pi / 2.0, math.pi - ns.epsilon0)
    config = replace(config, **overrides)

    if ns.dump_config:
        if ns.dump_config == "-":
            print(config.to_json())
        else:
            with open(ns.dump_config, "w", encoding="utf-8") as handle:
                handle.write(config.to_json() + "\n")
        return 0

    params = ConeParams(rho=config.rho, n=config.n, c=config.c)
    xs = make_grid(config.x_min, config.x_max, config.x_count, config.x_spacing)
    table = scan(params, xs, config.phis, tol=config.tol)
    report = verify_bound(table, config.which, config.threshold)
    _print_json(
        {
            "preset": ns.preset,
            "config": config.to_dict(),
            "report": report.to_dict(),
        }
    )
    return 0 if report.passed else 1


def _add_params(sub, with_defaults: bool = True) -> None:
    if with_defaults:
        sub.add_argument("--rho", type=parse_ratio, required=True, help="radius ratio (number or fraction like 2/3)")
        sub.add_argument("--n", type=int, default=3, help="ambient dimension (integer >= 3, default 3)")
        sub.add_argument("--c", type=float, default=0.0, help="inverse-square coupling (default 0)")
    else:
        sub.add_argument("--rho", type=parse_ratio, default=None)
        sub.add_argument("--n", type=int, default=None)
        sub.add_argument("--c", type=float, default=None)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state
    between calls (each gets a fresh namespace, and --help and errors
    are formatted per call)."""
    parser = argparse.ArgumentParser(
        prog="conekernel",
        description="Schrodinger kernel series on product cones: evaluation, "
        "critical sets, decay fits, envelope verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate the series at one point")
    _add_params(p_eval)
    p_eval.add_argument("--x", type=float, default=None, help="scaled radial argument (> 0)")
    p_eval.add_argument("--phi", type=parse_angle, required=True, help='angle in [0, pi]; accepts "pi", "pi/2", ...')
    p_eval.add_argument(
        "--physical",
        action="store_true",
        help="evaluate the propagator kernel at (--t, --r1, --r2, --phi) instead of the series at --x",
    )
    p_eval.add_argument("--t", type=float, default=None, help="time (> 0); physical mode only")
    p_eval.add_argument("--r1", type=float, default=None, help="first radius (> 0); physical mode only")
    p_eval.add_argument("--r2", type=float, default=None, help="second radius (> 0); physical mode only")
    p_eval.add_argument("--tol", type=float, default=1e-10, help="truncation tolerance")
    p_eval.add_argument("--terms", type=int, default=None, help="force a fixed number of series terms")
    p_eval.set_defaults(func=_cmd_eval)

    p_scan = subs.add_parser("scan", help="evaluate on a grid, emit CSV")
    _add_params(p_scan)
    p_scan.add_argument("--x-min", type=float, required=True)
    p_scan.add_argument("--x-max", type=float, required=True)
    p_scan.add_argument("--x-count", type=int, required=True)
    p_scan.add_argument("--x-spacing", choices=("log", "linear"), default="log")
    p_scan.add_argument("--phi", type=str, required=True, help='comma-separated angles, e.g. "0,pi/2,pi"')
    p_scan.add_argument("--tol", type=float, default=1e-10)
    p_scan.add_argument("--with-prediction", action="store_true", help="attach principal-term predictions at endpoint angles")
    p_scan.add_argument("--out", type=str, default=None, help='CSV path ("-" or omitted: stdout)')
    p_scan.set_defaults(func=_cmd_scan)

    p_crit = subs.add_parser("critical", help="critical sets and regime classification")
    p_crit.add_argument("--rho", type=parse_ratio, required=True)
    p_crit.add_argument("--phi0", type=str, default=None, help='endpoint angle "0" or "pi": conjugate-point set')
    p_crit.add_argument("--phi", type=str, default=None, help="general angle: one-branch critical set")
    p_crit.add_argument("--sigma1", type=int, choices=(1, -1), default=1)
    p_crit.add_argument("--sigma2", type=int, choices=(1, -1), default=1)
    p_crit.add_argument("--classify", action="store_true", help="full cell table at standard angles")
    p_crit.set_defaults(func=_cmd_critical)

    p_fit = subs.add_parser("decay-fit", help="envelope slope via half-octave maxima")
    _add_params(p_fit)
    p_fit.add_argument("--phi", type=str, required=True)
    p_fit.add_argument("--x-min", type=float, required=True)
    p_fit.add_argument("--x-max", type=float, required=True)
    p_fit.add_argument("--x-count", type=int, required=True)
    p_fit.add_argument("--bins-per-octave", type=int, default=2)
    p_fit.add_argument("--tol", type=float, default=1e-10)
    p_fit.add_argument("--with-frequency", action="store_true", help="linear grid; also report the dominant frequency")
    p_fit.add_argument("--growth", type=float, default=None, help="detrend exponent for frequency detection")
    p_fit.set_defaults(func=_cmd_decay_fit)

    p_ver = subs.add_parser("verify", help="scan + envelope bound check (exit 1 on failure)")
    p_ver.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p_ver.add_argument("--config", type=str, default=None, help="load a RunConfig JSON file")
    p_ver.add_argument("--dump-config", type=str, default=None, help='write the resolved config JSON ("-": stdout) and exit')
    _add_params(p_ver, with_defaults=False)
    p_ver.add_argument("--which", choices=("interior", "general", "smallx"), default=None)
    p_ver.add_argument("--threshold", type=float, default=None)
    p_ver.add_argument("--x-min", type=float, default=None)
    p_ver.add_argument("--x-max", type=float, default=None)
    p_ver.add_argument("--x-count", type=int, default=None)
    p_ver.add_argument("--x-spacing", choices=("log", "linear"), default=None)
    p_ver.add_argument("--phi", type=str, default=None, help="comma-separated angles")
    p_ver.add_argument("--epsilon0", type=float, default=None, help="angular cutoff: scan {eps, pi/2, pi-eps}")
    p_ver.add_argument("--tol", type=float, default=None)
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else (0 if code is None else 2)
    try:
        return ns.func(ns)
    except UnsupportedRegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (DomainError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PrecisionError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())

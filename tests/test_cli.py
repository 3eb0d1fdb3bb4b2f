"""End-to-end tests for the command-line interface.

Every test drives ``main(argv)`` in-process (fast, same code path as the
console script); one subprocess test exercises the installed entry point.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import conekernel
from conekernel import CSV_HEADER, InputError
from conekernel.cli import PRESETS, RunConfig, main, parse_angle, parse_ratio

EUCLIDEAN_N3_MODULUS = 0.79788456080286535588  # 1/(d 2^d Gamma(d)) at n = 3
FREE_KERNEL_MODULUS = 0.022448390265645820211  # (4 pi)^(-3/2)
SQRT3_OVER_2 = 0.86602540378443864676


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, f"expected exit 0, got {code}; stderr: {err}"
    return json.loads(out)


# ---------------------------------------------------------------------------
# argument parsing helpers


class TestParseAngle:
    def test_pi_is_exact(self):
        assert parse_angle("pi") == math.pi

    def test_fractions_of_pi(self):
        assert parse_angle("pi/2") == pytest.approx(math.pi / 2.0, rel=1e-15)
        assert parse_angle("3pi/4") == pytest.approx(3.0 * math.pi / 4.0, rel=1e-15)
        assert parse_angle("0.5*pi") == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_plain_float(self):
        assert parse_angle("0.3") == 0.3
        assert parse_angle("2.8") == 2.8

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_angle("twopi")

    def test_rejects_zero_denominator(self):
        with pytest.raises(InputError):
            parse_angle("pi/0")


class TestParseRatio:
    def test_fraction(self):
        assert parse_ratio("2/3") == pytest.approx(2.0 / 3.0, rel=1e-16)
        assert parse_ratio("1/3") == pytest.approx(1.0 / 3.0, rel=1e-16)

    def test_plain_float(self):
        assert parse_ratio("0.5") == 0.5
        assert parse_ratio("1.5") == 1.5

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_ratio("x/y")

    def test_rejects_zero_denominator(self):
        with pytest.raises(InputError):
            parse_ratio("1/0")


# ---------------------------------------------------------------------------
# top-level behaviour


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "eval" in out and "scan" in out and "verify" in out


def test_unknown_flag_exits_two(capsys):
    code, _, _ = run_cli(capsys, "eval", "--bogus")
    assert code == 2


def test_missing_subcommand_exits_two(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# eval


def test_eval_flat_space_point(capsys):
    data = run_json(
        capsys, "eval", "--rho", "1", "--n", "3", "--c", "0", "--x", "10", "--phi", "1.0"
    )
    assert data["modulus"] == pytest.approx(EUCLIDEAN_N3_MODULUS, abs=1e-8)
    assert isinstance(data["n"], int) and data["n"] == 3
    for key in ("re", "im", "modulus", "terms_used", "tail_bound", "env_interior", "env_general"):
        assert key in data
    assert data["tail_bound"] <= 1e-9
    assert math.hypot(data["re"], data["im"]) == pytest.approx(data["modulus"], rel=1e-15)


def test_eval_physical_free_kernel(capsys):
    data = run_json(
        capsys,
        "eval",
        "--rho", "1", "--n", "3", "--c", "0",
        "--physical", "--t", "1", "--r1", "1", "--r2", "1",
        "--phi", "0",
    )
    assert data["modulus"] == pytest.approx(0.0224485, abs=1e-6)
    assert data["modulus"] == pytest.approx(FREE_KERNEL_MODULUS, abs=1e-9)
    assert data["x"] == pytest.approx(0.5, rel=1e-15)  # r1 r2 / (2 t)
    assert data["t"] == 1.0 and data["r1"] == 1.0 and data["r2"] == 1.0


def test_eval_physical_requires_all_coordinates(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--rho", "1", "--physical", "--t", "1", "--phi", "0"
    )
    assert code == 2
    assert "--r1" in err and "--r2" in err


def test_eval_physical_rejects_x(capsys):
    code, _, _ = run_cli(
        capsys,
        "eval", "--rho", "1", "--physical",
        "--t", "1", "--r1", "1", "--r2", "1", "--x", "2", "--phi", "0",
    )
    assert code == 2


def test_eval_radii_require_physical_flag(capsys):
    code, _, _ = run_cli(capsys, "eval", "--rho", "1", "--t", "1", "--x", "2", "--phi", "0")
    assert code == 2


def test_eval_requires_x_without_physical(capsys):
    code, _, _ = run_cli(capsys, "eval", "--rho", "1", "--phi", "0")
    assert code == 2


def test_eval_rejects_supercritical_coupling(capsys):
    # n = 3 requires c > -1/4
    code, _, err = run_cli(
        capsys, "eval", "--rho", "1", "--n", "3", "--c", "-0.3", "--x", "1", "--phi", "0"
    )
    assert code == 2
    assert "c" in err


def test_eval_rejects_nonpositive_x(capsys):
    for bad in ("-1", "0"):
        code, _, _ = run_cli(capsys, "eval", "--rho", "1", "--x", bad, "--phi", "0")
        assert code == 2


def test_eval_rejects_angle_outside_range(capsys):
    code, _, _ = run_cli(capsys, "eval", "--rho", "1", "--x", "1", "--phi", "2*pi")
    assert code == 2


# ---------------------------------------------------------------------------
# scan


SCAN_ARGS = (
    "scan",
    "--rho", "1.5", "--n", "3", "--c", "0",
    "--x-min", "0.5", "--x-max", "8", "--x-count", "4",
    "--phi", "0,pi/2,pi",
    "--with-prediction", "--pairing", "algebraic",
)


def test_scan_stdout_csv_layout(capsys):
    code, out, _ = run_cli(capsys, *SCAN_ARGS)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 12
    # sorted by (phi, x)
    keys = [(float(r[1]), float(r[0])) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        x, phi = float(r[0]), float(r[1])
        modulus = float(r[4])
        assert modulus == pytest.approx(math.hypot(float(r[2]), float(r[3])), rel=1e-12)
        if abs(phi - math.pi / 2.0) < 1e-9:
            # interior angle: prediction columns stay empty
            assert r[7] == "" and r[8] == ""
        elif x < 1.0:
            assert r[7] == "" and r[8] == ""
        else:
            # no conjugate points at rho = 1.5: prediction is exactly zero
            assert float(r[7]) == 0.0 and float(r[8]) == 0.0


def test_scan_stdout_deterministic(capsys):
    _, first, _ = run_cli(capsys, *SCAN_ARGS)
    _, second, _ = run_cli(capsys, *SCAN_ARGS)
    assert first == second


def test_scan_writes_csv_file(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, *SCAN_ARGS, "--out", str(out_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["rows"] == 12
    assert summary["out"] == str(out_path)
    content = out_path.read_text().splitlines()
    assert content[0] == CSV_HEADER
    assert len(content) == 13


def test_scan_prediction_rejected_at_resonance(capsys):
    code, _, err = run_cli(
        capsys,
        "scan", "--rho", "0.5",
        "--x-min", "1", "--x-max", "10", "--x-count", "3",
        "--phi", "0", "--with-prediction",
    )
    assert code == 5
    assert "rho" in err


@pytest.mark.parametrize("tol", ["0", "inf", "nan"])
def test_scan_bad_tol_exits_two(capsys, tol):
    code, _, err = run_cli(capsys, *SCAN_ARGS, "--tol", tol)
    assert code == 2
    assert "tol" in err


def test_scan_unwritable_output_exits_four(capsys):
    code, _, _ = run_cli(capsys, *SCAN_ARGS, "--out", "/nonexistent-dir/t.csv")
    assert code == 4


# ---------------------------------------------------------------------------
# critical


def test_critical_diagonal_conjugate_point(capsys):
    data = run_json(capsys, "critical", "--rho", "0.3333333333", "--phi0", "0")
    assert len(data) == 1
    entry = data[0]
    assert entry["mu0"] == pytest.approx(SQRT3_OVER_2, abs=1e-6)
    assert entry["frequency"] == pytest.approx(0.5, abs=1e-6)


def test_critical_antipodal_conjugate_point(capsys):
    data = run_json(capsys, "critical", "--rho", "0.6666666667", "--phi0", "pi")
    assert len(data) == 1
    assert data[0]["mu0"] == pytest.approx(SQRT3_OVER_2, abs=1e-6)
    assert data[0]["frequency"] == pytest.approx(0.5, abs=1e-6)


def test_critical_conjugate_set_empty_at_large_rho(capsys):
    data = run_json(capsys, "critical", "--rho", "1.5", "--phi0", "0")
    assert data == []


def test_critical_cell_query(capsys):
    data = run_json(
        capsys, "critical", "--rho", "2", "--phi", "0", "--sigma1", "-1", "--sigma2", "1"
    )
    assert len(data) == 1
    assert data[0]["mu0"] == 0.0
    assert data[0]["q"] == 0


def test_critical_classify_table(capsys):
    data = run_json(capsys, "critical", "--rho", "2", "--classify")
    assert data["rho_ge_1"] is True
    assert data["q_bound"] == 1
    endpoint_cells = [cell for cell in data["nonempty_cells"] if cell["phi"] in ("0", "pi")]
    assert {(c["phi"], c["sigma1"], c["sigma2"], c["q"]) for c in endpoint_cells} == {
        ("0", -1, 1, 0),
        ("0", -1, -1, 0),
    }
    for cell in endpoint_cells:
        assert cell["mu0s"] == [0.0]


def test_critical_default_is_classification(capsys):
    data = run_json(capsys, "critical", "--rho", "1")
    assert "nonempty_cells" in data and data["rho_ge_1"] is True


# ---------------------------------------------------------------------------
# decay-fit


def test_decay_fit_small_x_exponent(capsys):
    data = run_json(
        capsys,
        "decay-fit",
        "--rho", "1", "--n", "3", "--c", "2", "--phi", "pi/2",
        "--x-min", "1e-4", "--x-max", "1e-2", "--x-count", "49",
    )
    assert data["slope"] == pytest.approx(1.0, abs=0.05)
    assert data["r_squared"] > 0.99
    for key in ("slope", "intercept", "r_squared", "n_samples", "bins"):
        assert key in data


def test_decay_fit_with_frequency(capsys):
    data = run_json(
        capsys,
        "decay-fit",
        "--rho", "0.3333333333", "--n", "3", "--c", "0", "--phi", "0",
        "--x-min", "200", "--x-max", "302.2", "--x-count", "512",
        "--with-frequency",
    )
    assert data["slope"] == pytest.approx(0.5, abs=0.2)
    assert data["frequency"] == pytest.approx(0.5, rel=0.02)
    assert data["growth_exponent"] == max(data["slope"], 0.0)


# ---------------------------------------------------------------------------
# verify


def test_verify_dump_config_round_trips(capsys):
    code, out, _ = run_cli(capsys, "verify", "--preset", "interior-bounded", "--dump-config", "-")
    assert code == 0
    assert RunConfig.from_json(out) == PRESETS["interior-bounded"]


def test_run_config_rejects_unknown_keys():
    with pytest.raises(InputError):
        RunConfig.from_json('{"bogus": 1}')


def test_run_config_rejects_non_object():
    with pytest.raises(InputError):
        RunConfig.from_json("[1, 2]")


def test_verify_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(PRESETS["euclidean-n3"].to_json())
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["report"]["passed"] is True


def test_verify_flat_space_preset_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--preset", "euclidean-n3")
    assert code == 0
    data = json.loads(out)
    assert data["preset"] == "euclidean-n3"
    assert data["report"]["passed"] is True
    # flat space: |I| equals the constant, so the ratio is far from the threshold
    assert data["report"]["sup_ratio"] < 1.0


def test_verify_antipodal_growth_preset_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--preset", "conjugate-growth")
    assert code == 1
    data = json.loads(out)
    assert data["report"]["passed"] is False
    assert data["report"]["sup_ratio"] > 10.0


def test_verify_explicit_interior_violation(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--rho", "0.6666666667", "--which", "interior",
        "--x-min", "10", "--x-max", "400", "--x-count", "10",
        "--phi", "pi",
    )
    assert code == 1
    report = json.loads(out)["report"]
    assert report["sup_ratio"] > 10.0
    assert report["sup_x"] == pytest.approx(400.0, rel=1e-12)


def test_verify_explicit_general_bound_holds(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--rho", "0.7", "--which", "general",
        "--x-min", "1", "--x-max", "50", "--x-count", "10",
        "--phi", "0,1.2,pi",
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["passed"] is True and report["n_rows"] == 30


def test_verify_epsilon0_angle_family(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--rho", "0.3333333333", "--which", "interior",
        "--x-min", "1", "--x-max", "100", "--x-count", "8",
        "--epsilon0", "0.4",
    )
    assert code == 0
    data = json.loads(out)
    phis = data["config"]["phis"]
    assert phis == pytest.approx([0.4, math.pi / 2.0, math.pi - 0.4], rel=1e-12)
    assert data["report"]["passed"] is True


# ---------------------------------------------------------------------------
# installed entry point


def test_module_entry_point_subprocess():
    # the child imports the package under test, installed or not
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(conekernel.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "conekernel", "eval",
         "--rho", "1", "--n", "3", "--c", "0", "--x", "10", "--phi", "1.0"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["modulus"] == pytest.approx(EUCLIDEAN_N3_MODULUS, abs=1e-8)

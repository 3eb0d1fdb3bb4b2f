"""tools/replay_outputs.py: canonical job outputs, their diff, and one
replayed round of each workload of this checkout against itself."""
import importlib.util
import json
import os

from conekernel import ConeParams
from conekernel.harness import ScanRow

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("replay_outputs", os.path.join(_ROOT, "tools", "replay_outputs.py"))
replay_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay_outputs)


def test_canonical_keeps_every_bit():
    row = ScanRow(x=0.1, phi=3.0, value=complex(1.0, -2.5), env_interior=1.0, env_general=2.0)
    out = replay_outputs.canonical({"rows": (row,), "params": ConeParams(rho=0.5, n=3, c=0.0), "code": 0})
    assert out["rows"][0]["x"] == (0.1).hex()
    assert out["rows"][0]["value"] == [(1.0).hex(), (-2.5).hex()]
    assert out["rows"][0]["prediction"] is None
    assert out["params"]["rho"] == (0.5).hex() and out["code"] == 0
    json.dumps(out)
    # one ulp apart is a difference, at the path where it sits
    nudged = replay_outputs.canonical({"rows": (ScanRow(0.1, 3.0, complex(1.0, -2.5000000000000004), 1.0, 2.0),)})
    assert replay_outputs.first_difference({"rows": out["rows"]}, nudged) == "/rows/0/value/1"


def test_compare_names_differing_and_missing_jobs():
    base = [{"kind": "tip", "output": {"code": 0, "stdout": "a"}}] * 3
    head = [base[0], {"kind": "tip", "output": {"code": 0, "stdout": "b"}}]
    assert replay_outputs.compare(base, base) == []
    assert replay_outputs.compare(base, head) == ["job 1 (tip): /output/stdout", "job 2: missing on the head side"]


def test_one_round_of_each_workload_replays_identically(capsys):
    code = replay_outputs.main(["--base", _ROOT, "--head", _ROOT, "--seeds", "3", "--tip-rounds", "1",
                                "--thin-rounds", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0, lines
    assert json.loads(lines[-1]) == {"jobs": 18 + 66, "differing": 0, "identical": True}

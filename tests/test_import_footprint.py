"""Importing the package and its CLI loads NumPy only: no numpy.polynomial
(it costs start-up time), and no scipy or mpmath (test-only oracles)."""
import json
import os
import subprocess
import sys

import conekernel


def test_import_loads_numpy_only():
    # the child imports the package under test, installed or not
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(conekernel.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    code = (
        "import json, sys\n"
        "import conekernel, conekernel.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "numpy" in loaded
    banned = [
        m for m in loaded
        if m == "numpy.polynomial" or m.startswith("numpy.polynomial.") or m.split(".")[0] in ("scipy", "mpmath")
    ]
    assert banned == []

"""Importing the package and its CLI loads NumPy only: no numpy.polynomial
(it costs start-up time), and no scipy or mpmath (test-only oracles).
Every exported name resolves."""
import importlib
import json
import os
import pkgutil
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


def test_every_exported_name_resolves():
    # a deletion that leaves a stale export fails here, not in a user's
    # `from conekernel import *`
    modules = [
        importlib.import_module(f"conekernel.{info.name}")
        for info in pkgutil.iter_modules(conekernel.__path__)
        if not info.name.startswith("_")
    ]
    for module in [conekernel] + modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__
    # the package re-exports each module's list; the CLI module is imported
    # on its own and is not part of the package namespace
    for module in modules:
        if module.__name__ != "conekernel.cli":
            assert set(getattr(module, "__all__", ())) <= set(conekernel.__all__), module.__name__

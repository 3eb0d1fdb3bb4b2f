"""Importing the package and its CLI loads NumPy only: no numpy.polynomial
(it costs start-up time), and no scipy or mpmath (test-only oracles).
The growth-audit helpers do not load numpy.ma either.  Every exported name
resolves."""
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import conekernel


def _modules_after(code: str) -> list:
    """sys.modules of a fresh child that ran code."""
    # the child imports the package under test, installed or not
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(conekernel.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    code = "import json, sys\n" + code + "print(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_numpy_only():
    loaded = _modules_after("import conekernel, conekernel.cli\n")
    assert "numpy" in loaded
    banned = [
        m for m in loaded
        if m == "numpy.polynomial" or m.startswith("numpy.polynomial.") or m.split(".")[0] in ("scipy", "mpmath")
    ]
    assert banned == []


def test_growth_audit_does_not_load_numpy_ma():
    # np.unique and np.median import numpy.ma on their first call (NumPy
    # 2.x), some 25 ms
    loaded = _modules_after(
        "import cmath\n"
        "from conekernel import harness\n"
        "xs = [1.0, 1.5, 2.0, 3.0, 4.5, 6.0, 8.0, 12.0, 16.0]\n"
        "bx, by = harness.octave_maxima(xs, [x ** -0.5 for x in xs])\n"
        "harness.fit_decay_exponent(xs, [x ** -0.5 for x in xs])\n"
        "grid = [0.1 * k for k in range(1, 301)]\n"
        "harness.dominant_frequency(grid, [cmath.exp(2j * x) for x in grid])\n"
    )
    assert not [m for m in loaded if m == "numpy.ma" or m.startswith("numpy.ma.")]


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

"""The package's import structure: its public names load their submodule
on first access, and the subcommands that need no counting start without
numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import visiblepoints

ROOT = Path(__file__).resolve().parents[1]
E = "V^2 - U^3 - U - 1"

#: (argv, exit code); none of them may import numpy
NUMPY_FREE = (
    (["badset", "-f", E, "-p", "307", "--format", "json"], 0),
    (["irred", "-f", E, "-p", "307"], 0),
    (["--help"], 0),
    (["count", "-f", E, "-p", "308", "-a", "1", "-X", "5", "-Y", "5"], 2),
    (["count", "-f", "V^^2", "-p", "307", "-a", "1", "-X", "5", "-Y", "5"], 2),
)

# Run in a fresh interpreter, so that no other test's import of numpy can
# hide one here.  With "blocked", any import of numpy raises ImportError.
_CHILD = r"""
import contextlib, io, json, sys
import visiblepoints
numpy_loaded = "numpy" in sys.modules
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from visiblepoints import cli
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    results.append([code, out.getvalue()])
print(json.dumps({"numpy_loaded": numpy_loaded, "results": results}))
"""


def _child(mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argvs = json.dumps([argv for argv, _ in NUMPY_FREE])
    proc = subprocess.run([sys.executable, "-c", _CHILD, mode, argvs],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_numpy_free_subcommands_run_with_numpy_blocked():
    blocked, free = _child("blocked"), _child("free")
    assert not blocked["numpy_loaded"] and not free["numpy_loaded"]
    assert [code for code, _ in blocked["results"]] == [code for _, code in NUMPY_FREE]
    assert blocked["results"] == free["results"]
    assert json.loads(blocked["results"][0][1])["bad_levels"] == []


_COUNTING_CHILD = r"""
import contextlib, io, json, sys
from visiblepoints import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


#: what only a thread pool needs: concurrent.futures imports logging
POOL_MODULES = {"concurrent.futures", "logging"}


def _modules_after(argvs) -> tuple[list, set]:
    """Exit codes of the argvs, run in order in one fresh interpreter, and
    the modules loaded at the end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", _COUNTING_CHILD, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    return doc["codes"], set(doc["modules"])


def test_count_and_visible_load_neither_the_verdicts_nor_the_writers():
    codes, modules = _modules_after(
        [[cmd, "-f", E, "-p", "31", "-a", "3", "-X", "10", "-Y", "10"]
         for cmd in ("count", "visible")])
    assert codes == [0, 0]
    assert "visiblepoints.counting" in modules
    assert not {"visiblepoints.factor", "visiblepoints.output"} & modules
    assert not POOL_MODULES & modules


def test_a_separable_level_sweep_makes_no_pool():
    # the separable histogram runs in the calling thread at any worker
    # count; the grid would take 4 tiles on this box
    from visiblepoints import counting, poly

    assert counting._separable_plan(poly.reduce_mod(poly.parse_poly(E), 1009), 1009, 1009)
    codes, modules = _modules_after(
        [["exp-a", "-f", E, "-p", "1009", "-X", "1009", "-Y", "1009", "--workers", "2"]])
    assert codes == [0]
    assert not POOL_MODULES & modules


def test_a_prime_sweep_makes_no_pool():
    # the int64 sweep of this box takes 8 tiles, all in the calling thread
    codes, modules = _modules_after(
        [["exp-p", "-f", E, "-T", "1000", "-X", "500", "-Y", "500", "--workers", "2"]])
    assert codes == [0]
    assert not POOL_MODULES & modules


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from visiblepoints import *", namespace)
    assert [n for n in visiblepoints.__all__ if n not in namespace] == []
    assert all(namespace[n] is getattr(visiblepoints, n) for n in visiblepoints.__all__)
    assert set(visiblepoints.__all__) <= set(dir(visiblepoints))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        visiblepoints.no_such_name
    assert not hasattr(visiblepoints, "no_such_name")

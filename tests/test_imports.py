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


def _env() -> dict:
    """The environment of a child interpreter: this checkout's library first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _child(mode: str) -> dict:
    argvs = json.dumps([argv for argv, _ in NUMPY_FREE])
    proc = subprocess.run([sys.executable, "-c", _CHILD, mode, argvs],
                          capture_output=True, text=True, env=_env(), timeout=120)
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
    proc = subprocess.run([sys.executable, "-c", _COUNTING_CHILD, json.dumps(argvs)],
                          capture_output=True, text=True, env=_env(), timeout=120)
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


#: what dataclasses loads with it: numpy loads inspect too, but a command
#: that needs no numpy must pay for none of them at start-up
INSPECT_CHAIN = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

#: (argv, exit code, whether json may load); [] imports the CLI alone
IMPORT_BUDGET = (
    ([], None, False),
    (["--help"], 0, False),
    (["irred", "-f", E, "-p", "307"], 0, False),
    (["irred", "-f", E, "-p", "307", "--format", "json"], 0, True),
    (["badset", "-f", E, "-p", "307"], 0, False),
    (["badset", "-f", "U^2", "-p", "31"], 0, False),
    (["badset", "-f", E, "-p", "307", "--format", "json"], 0, True),
    (["irred", "-f", "V^^2", "-p", "307"], 2, False),
    (["count", "-f", E, "-p", "308", "-a", "1", "-X", "5", "-Y", "5"], 2, False),
    (["count", "-f", E, "-p", "307", "-a", "1", "-X", "500", "-Y", "5"], 2, False),
    (["badset", "-p", "307"], 2, False),
)

# Reads its argv from sys.argv, and prints the exit code and then the modules
# it loaded after start-up, after a marker line, so that the child itself
# loads no json.
_BUDGET_CHILD = r"""
import sys
before = set(sys.modules)
from visiblepoints import cli
code = None
if sys.argv[1:]:
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:  # --help
        code = exc.code
sys.stdout.write("\n--modules--\n%r\n%s\n" % (code, " ".join(sorted(set(sys.modules) - before))))
"""


@pytest.mark.parametrize("argv, code, json_ok", IMPORT_BUDGET,
                         ids=[" ".join(argv) or "import" for argv, _, _ in IMPORT_BUDGET])
def test_numpy_free_commands_load_no_dataclasses_and_json_only_to_write_it(argv, code, json_ok):
    proc = subprocess.run([sys.executable, "-c", _BUDGET_CHILD, *argv],
                          capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    got_code, modules = proc.stdout.rpartition("\n--modules--\n")[2].splitlines()
    modules = set(modules.split())
    assert got_code == repr(code)
    assert not INSPECT_CHAIN & modules
    assert "numpy" not in modules
    assert ("json" in modules) == json_ok


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


#: a CSV as `sweep --mode levels --out` writes it
LEVELS_CSV = """\
# schema=1
# generated=2026-01-01T00:00:00+00:00
kind,f,p,T,a,X,Y,sum_abs_dev,bound_value,ratio,skipped_primes,box_nontrivial
levels,-U^3 + V^2 - U - 1,7,,,7.0,7.0,10.744510287021814,58.619802810994955,0.1832914778247349,,true
"""


def test_a_replayed_csv_loads_no_numpy(tmp_path):
    # output defines the records it reads back, so the replay needs no
    # experiments and no counting
    path = tmp_path / "levels.csv"
    path.write_text(LEVELS_CSV)
    proc = subprocess.run([sys.executable, "-c", _BUDGET_CHILD, "sweep", "--from-csv",
                           str(path), "--format", "json"],
                          capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    out, _, tail = proc.stdout.rpartition("\n--modules--\n")
    code, modules = tail.splitlines()
    assert code == "0" and json.loads(out)["records"][0]["p"] == 7
    assert "numpy" not in modules.split()
    assert "visiblepoints.experiments" not in modules.split()


def test_the_record_types_resolve_from_the_package_and_from_experiments():
    from visiblepoints import experiments, output

    for name in ("ConcentrationProfile", "DiscrepancyRecord", "ZeroSetReport"):
        assert getattr(visiblepoints, name) is getattr(output, name)
        assert getattr(experiments, name) is getattr(output, name)
        assert getattr(output, name).__module__ == "visiblepoints.output"

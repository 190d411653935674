"""Each demo runs to completion as a script and prints its key result."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

KEY_LINES = {
    "coprime_density.py": "  n =  1000:    608383 pairs, fraction 0.608383 (error +4.56e-04)",
    "irreducibility_tour.py": "  irreducible over F_49: False",
    "level_curve_counting.py": "inclusion-exclusion: 3",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(KEY_LINES)


@pytest.mark.parametrize("name", sorted(KEY_LINES))
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert KEY_LINES[name] in run.stdout.splitlines()

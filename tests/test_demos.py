"""The narrative scripts in demos/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert [p.name for p in DEMOS] == [
        "01_multivector_algebra.py",
        "02_covariant_derivatives.py",
        "03_torsion_curvature_cartan.py",
        "04_coordinate_bridge.py",
    ]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(script):
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    res = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         env=env, cwd=REPO, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout.strip()

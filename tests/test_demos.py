"""The fast demos run to completion as scripts, as a reader would run them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# The demos that take a few seconds each; dropping_redundant_features and
# how_many_features sweep many fits and are left out.
FAST_DEMOS = [
    "rules_as_regressors.py",
    "shape_functions.py",
    "local_attributions.py",
    "reproducible_runs.py",
    "quickstart.py",
]


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(demo, tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmpdir))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert not any(tmpdir.iterdir()), "the demo left files in its temp directory"

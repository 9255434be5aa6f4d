"""The quick demo scripts still run against the package.

Each script runs from a copy in a temporary directory, because demo 01
writes its figures to `out/` next to the script.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["01_opinion_regimes.py", "03_relaxed_sampling.py",
                                    "05_profile_attention.py"])
def test_demo_runs(tmp_path, script):
    shutil.copy(ROOT / "demos" / script, tmp_path / script)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

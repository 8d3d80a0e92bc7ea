"""The shared generators cost an importer nothing beyond ``mtckit``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_importing_conftest_loads_no_pytest():
    # The benchmark imports conftest in every workload, so pytest there would
    # count in every workload's memory.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(TESTS), str(TESTS.parent / "src")])}
    probe = "import sys, conftest; print(sorted(m for m in sys.modules if m.split('.')[0] in ('pytest', '_pytest')))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"

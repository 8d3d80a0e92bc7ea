"""Each demo runs to the end, silently on stderr, and prints its golden output.

The golden files under ``tests/golden/`` are the demos' stdout, byte for
byte. A change that alters a demo's output on purpose regenerates its file:

    PYTHONPATH=src python demos/NN_name.py > tests/golden/NN_name.txt
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtckit

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
GOLDEN = ROOT / "tests" / "golden"


def test_every_demo_has_a_golden_file():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(demo, tmp_path):
    env = dict(os.environ)
    src = str(Path(mtckit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True
    )
    assert completed.returncode == 0, completed.stderr.decode(errors="replace")
    assert completed.stderr == b""
    assert completed.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()

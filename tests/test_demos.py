"""The walkthrough scripts under demos/ run to completion and print exactly
their recorded output, tests/golden/<NN>.txt (demo output is deterministic)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# 07 trains a controller, which takes far longer than 01-06 together; the
# harness calls it makes are tested directly
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-6]_*.py"))


def test_demo_set_is_complete():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    golden = ROOT / "tests" / "golden" / f"{demo[:2]}.txt"
    assert proc.stdout == golden.read_text(encoding="utf-8")

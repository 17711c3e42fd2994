"""Each demo prints exactly its recorded output (demos/expected/<name>.txt)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(demo):
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          encoding="utf-8", timeout=120, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    expected = (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_text(encoding="utf-8")
    assert proc.stdout == expected

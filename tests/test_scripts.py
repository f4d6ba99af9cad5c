"""Smoke test: each experiment script in scripts/ runs and writes its CSV."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, header", [
    ("decay_vs_clock_quality.py",
     ["t", "ideal", "sigma_0.05", "sigma_0.25", "fundamental_TP_0.2"]),
    ("recurrence_suppression.py", ["t", "abs_z_ideal", "abs_z_realclock"]),
])
def test_script_writes_csv(script, header, tmp_path):
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), str(out)],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert len(rows) > 2

"""Each experiment script in scripts/ runs and writes its CSV; the decay
script's curves are checked against their closed forms."""

import csv
import math
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
    if script == "decay_vs_clock_quality.py":
        # T = 10 in steps of 1e-3; |rho01| = 0.5 without decay, 0.5 e^{-sigma T} with it
        assert len(rows) == 10_002
        for row in rows[1:]:
            t, ideal, sigma_025 = float(row[0]), float(row[1]), float(row[3])
            assert abs(ideal - 0.5) <= 1e-12
            assert abs(sigma_025 - 0.5 * math.exp(-0.25 * t)) <= 1e-8

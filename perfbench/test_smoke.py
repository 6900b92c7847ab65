"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench``."""
import subprocess
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent


def test_self_times_subtract_children_and_count_entries():
    # harness 0..10 > cli 1..9 > design 2..5 > design 3..4, and snropt 6..8
    recorded = [
        [0, None, "harness", "op", 0.0, 10.0],
        [1, 0, "cli", "main", 1.0, 9.0],
        [2, 1, "design", "null_space_design", 2.0, 5.0],
        [3, 2, "design", "null_space_basis", 3.0, 4.0],
        [4, 1, "snropt", "coordinate_descent", 6.0, 8.0],
    ]
    times = spans.self_times(recorded)
    assert times == {"harness": (2.0, 1), "cli": (3.0, 1), "design": (3.0, 1), "snropt": (2.0, 1)}
    assert sum(t for t, _ in times.values()) == 10.0


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=HERE.parent,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke ok")

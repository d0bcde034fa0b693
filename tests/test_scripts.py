"""Smoke test: the experiment scripts run against the library and print the headline."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_headline_numbers_script():
    proc = run_script("headline_numbers.py", "--steps-max", "400")
    assert proc.returncode == 0, proc.stderr
    assert "exact systematic sweeps to target   = 218" in proc.stdout


def test_scan_order_study_script():
    proc = run_script("scan_order_study.py", "--grid", "3")
    assert proc.returncode == 0, proc.stderr

"""perfbench's own output checks, run as users run them."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_accepts_right_answers_and_rejects_faults():
    # the selftest corrupts traces through IterateTrace.records, so this also
    # checks that the row view writes through to the columns
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("ok ") for line in lines) == 133, proc.stdout
    assert not any(line.startswith("BAD") for line in lines), proc.stdout

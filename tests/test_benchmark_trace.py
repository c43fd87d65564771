"""The benchmark's traced runs work on the current program.

``perfbench/run.py --trace 1`` wraps the program's public functions and
derives its per-layer metrics from their calls, so a change to what the
program calls (or how often) can break the traced run while every other
test passes. These runs take the shortest path through each workload: zero
timed seconds, then the traced rounds and the checks. Their span files, and
the baseline's CLI work files, go to the git-ignored ``perfbench/out/``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["s2s-train", "s2s-predict", "baseline-cli"])
def test_traced_run_exits_cleanly_and_correct(workload):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-3000:]

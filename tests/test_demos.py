"""The quick demos run to the end. ``04_seq2seq.py`` trains for about a
minute and is left to be run by hand."""

import os
import subprocess
import sys

import pytest

import derivgen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(derivgen.__file__)))


@pytest.mark.parametrize("name", ["01_pipeline.py", "02_baseline.py", "03_autodiff.py"])
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout

import os
import subprocess
import sys

import moldesign

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")


def test_parse_and_enumerate_demo_runs():
    src = os.path.dirname(os.path.dirname(moldesign.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, os.path.join(DEMOS, "01_parse_and_enumerate.py")],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "OCC and CCO agree: True" in out.stdout.splitlines()

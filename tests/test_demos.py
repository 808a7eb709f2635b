import os
import subprocess
import sys

import pytest

import moldesign

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")


def run_demo(name):
    """The finished process of one demo script, run on this package with
    RuntimeWarning an error, as in this suite."""
    src = os.path.dirname(os.path.dirname(moldesign.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           os.path.join(DEMOS, name)],
                          env=env, capture_output=True, text=True, timeout=300)


def test_parse_and_enumerate_demo_runs():
    out = run_demo("01_parse_and_enumerate.py")
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert "OCC and CCO agree: True" in out.stdout.splitlines()


@pytest.mark.parametrize("name,first_line", [
    ("02_train_gnn_with_ad.py", "training on 215 of 643 molecules"),
    ("03_design_loop.py",
     "oracle best (in-domain): COC(O)(O)OC  score 147.05"),
], ids=["02", "03"])
def test_demo_runs(name, first_line):
    out = run_demo(name)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert out.stdout.splitlines()[0] == first_line

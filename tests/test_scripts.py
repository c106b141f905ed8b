"""The scripts' standard output, compared byte for byte with golden files
after the trailing timing fields (`N.NNs`) are masked."""

import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(__file__)
ROOT = os.path.dirname(HERE)
TIMING = re.compile(rb"\d+\.\d+s$", re.M)


def _masked(out: bytes) -> bytes:
    return TIMING.sub(b"N.NNs", out)


@pytest.mark.parametrize("script", ["worked_example", "lattice_census"])
def test_script_output_matches_golden(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script + ".py")],
        capture_output=True, env=env, check=True,
    )
    with open(os.path.join(HERE, "golden", script + ".out"), "rb") as fh:
        golden = fh.read()
    assert _masked(proc.stdout) == _masked(golden)

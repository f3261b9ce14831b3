"""Every demo script runs to completion against the current API."""

import subprocess
import sys

import pytest

from conftest import ROOT, subprocess_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], env=subprocess_env(), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr

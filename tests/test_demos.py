"""The narrative demos run end to end. Demo 05 (a load sweep of about 16 s
on a 2-vCPU VM) is left out to keep the suite fast; the CI workflow runs it
as its own step, "Demo 05 load sweep"."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_route_codec", "02_single_flow_walkthrough", "03_contention_and_detours", "04_oracle_soundness"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name, tmp_path):
    # src/ goes after an existing PYTHONPATH, so a copy of the package put
    # there (tests/mutants.py does) is the one the subprocess imports
    path = [os.environ.get("PYTHONPATH", ""), str(ROOT / "src")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    if name == "03_contention_and_detours":
        assert "shortest feasible path 5 hops (hop budget 6)" in result.stdout
        assert "established circuit fits the pre-setup network: True" in result.stdout

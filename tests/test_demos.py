"""Run the quicker demos end to end in subprocesses.

Demos 01, 04, 05, 06 and 08 take a few seconds each.  Demos 02, 03 and 07
take 15-19 s each and are left out, so the unit suite stays fast.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_disk_classical_steklov.py", "04_kernel_topology.py",
         "05_sharp_bounds.py", "06_harmonic_domains.py",
         "08_boundary_calculus.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]

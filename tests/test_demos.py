"""The demo scripts run to the end against the library as it stands.

Each demo runs in a fresh interpreter with this checkout's package on the
path, so an API change that a demo did not follow fails here instead of
silently.  demos/05_scaling_limit.py is left out: its Euler reference takes
about 8 s on a 2-core host, more than the other five together, and the
same engine is covered by the scaling-limit tests in test_stats.py and
test_acceptance.py.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gigwalk

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_walk_and_reconstruction.py",
    "02_kernels_and_intertwining.py",
    "03_dufresne_identity.py",
    "04_gig_characterization.py",
    "06_log_moments_and_donsker.py",
])
def test_demo_runs(name):
    src = str(Path(gigwalk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr

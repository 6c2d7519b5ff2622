"""The demos run to completion on the checkout's package.

theory_checks.py is left out: it runs run_all_checks at default sizes, which
the acceptance tests already do.
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    ["dithered_codec.py", "lattice_geometry.py", "online_adaptation.py", "federated_run.py"],
)
def test_demo_exits_zero(name, tmp_path):
    r = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True, cwd=tmp_path,
    )
    assert r.returncode == 0, r.stderr

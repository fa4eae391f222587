"""Smoke test: every demo runs to completion.

Each demo runs in a fresh interpreter as ``python -W error`` with
``PYTHONPATH=src`` and must exit 0, so a warning fails it: a ``-W error``
given to pytest does not reach the child interpreters.  Demos 01-03 take
under a second; demo 04 reads the si family's value ladder (eta 1e-8) to
m = 198 and takes about 1 s on a 2-CPU host.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "01_small_auction_tables.py",
        "02_sqrt_bidding_guarantee.py",
        "03_simultaneous_auctions.py",
        "04_identical_items_subadditive.py",
    ],
)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

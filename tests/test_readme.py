"""The README's "Library quick tour" runs as written.

The block runs in a fresh interpreter with ``PYTHONPATH=src``, as the demos
do, so a public name that the README uses and the library drops fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quick_tour() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick tour", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "the quick tour has no python block"
    return block.group(1)


def test_quick_tour_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", quick_tour()], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr

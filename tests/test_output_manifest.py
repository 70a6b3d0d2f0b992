"""The tree reproduces every benchmark output recorded in ``tests/output_manifest.json``.

See ``tests/output_manifest.py``: it hashes each operation's output on the
benchmark lists of seeds 101-110, and the work of each seed-101 list.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "output_manifest.py"


def test_outputs_and_work_match_the_manifest():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--check"], capture_output=True, text=True, timeout=300, check=False
    )
    assert done.returncode == 0, done.stdout + done.stderr

"""Each demo prints exactly the bytes committed in ``tests/demo_goldens``.

A demo whose numbers or text change on purpose must regenerate its golden
(``python3 demos/<name>.py > tests/demo_goldens/<name>.txt``) and say why.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode()
    golden = ROOT / "tests" / "demo_goldens" / f"{script.stem}.txt"
    assert result.stdout == golden.read_bytes()

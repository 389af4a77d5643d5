"""CLI bytes at the default digits, against the committed digest.

``tests/cli_goldens.txt`` is the output of ``tools/cli_goldens.py``: exit code
and stdout SHA-256 of about 1150 in-process CLI commands.  A change that moves
any of those bytes must regenerate the file and say why.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_goldens", ROOT / "tools" / "cli_goldens.py")
cli_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_goldens)


def test_default_digit_cli_output_matches_the_committed_digest():
    want = (ROOT / "tests" / "cli_goldens.txt").read_text(encoding="utf-8").splitlines()
    got = cli_goldens.digest_lines()
    assert len(got) == len(want)
    changed = [g for g, w in zip(got, want) if g != w]
    assert not changed, f"{len(changed)} commands changed, first: {changed[0]}"

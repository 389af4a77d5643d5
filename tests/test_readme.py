"""The README's library tour runs as written.

The tour is the first ``python`` block under "## Library tour".  Running it
fails if it names a function the package no longer has, and its last line
must print the nested-lab clash it promises.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under '## Library tour'"
    return match.group(1)


def test_library_tour_runs_and_prints_the_fr_clash():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_tour(), str(README), "exec"), {})
    printed = out.getvalue()
    assert "clash !! (t4, w): deduced w=F by F1 [clps:F1] vs observed O by W" in printed
    assert printed.startswith("scenario: fr\n")

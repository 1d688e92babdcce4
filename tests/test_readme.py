"""The README's quickstart prints what the tree prints."""

import pathlib
import re

from repro.model.system import SystemModel

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_summary_line_matches_the_model():
    quickstart = README.read_text().split("## Quickstart", 1)[1]
    match = re.search(r"^# (P-256/monte/.*)$", quickstart, re.MULTILINE)
    assert match, "no '# P-256/monte/...' line in the README quickstart"
    documented = match.group(1).split(" (", 1)[0]
    printed = SystemModel().report("P-256", "monte").summary()
    assert documented == printed.split(" (", 1)[0]

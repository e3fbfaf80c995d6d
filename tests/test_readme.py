"""README's library tour, run as a doctest."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs_as_printed():
    # Only the text inside the python fence: a doctest of the whole file
    # reads the closing fence after the last example as expected output.
    text = README.read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S)
    lineno = text.count("\n", 0, block.start(1))
    tour = doctest.DocTestParser().get_doctest(block[1], {}, "README tour", str(README), lineno)
    report: list[str] = []
    failed, attempted = doctest.DocTestRunner().run(tour, out=report.append)
    assert attempted == 8 and not failed, "".join(report)

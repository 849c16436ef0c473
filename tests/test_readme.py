"""README's Library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example():
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_commented_values():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_library_example(), {"__name__": "readme"})
    lines = out.getvalue().splitlines()
    assert len(lines) == 5
    assert round(float(lines[1]), 3) == 0.316
    assert lines[2] == "('ln_size', 'language', 'envergure')"
    assert lines[4] == "language"

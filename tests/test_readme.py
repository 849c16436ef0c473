"""README's examples run: the Library example prints what its comments
say, and each command of the Command line block exits 0."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from effortlab import cli

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


def _command_lines():
    text = README.read_text()
    section = text[text.index("\n## Command line\n"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines()]


@pytest.mark.parametrize("words", _command_lines(), ids=" ".join)
def test_command_line_example_exits_zero(words, monkeypatch, capsys):
    monkeypatch.delenv("EFFORTLAB_DATASET", raising=False)
    assert words[0] == "effortlab"
    assert cli.run(words[1:]) == 0
    assert capsys.readouterr().out

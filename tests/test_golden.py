"""Byte-exact CLI outputs pinned against files in tests/golden/.

The JSON and CSV bodies carry full-precision floats, so a change anywhere
in parsing, filtering, frame building, least squares, scoring or the
network's arithmetic (initialisation, kernels, line search, stopping)
shows up here as a diff. Regenerate a file only for an intended change
to the numbers, and name that change in CHANGES.md.
"""

from pathlib import Path

import pytest

from effortlab.cli import run

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "ablate-ann-seeds3.json": ["ablate", "--model", "ann", "--seeds", "3",
                               "--format", "json"],
    "fit-ann-seed1.md": ["fit", "--model", "ann", "--seed", "1"],
    "ablate-both-seeds2.csv": ["ablate", "--model", "both", "--seeds", "2",
                               "--format", "csv"],
    "fit.json": ["fit", "--format", "json"],
}
for _fmt, _ext in (("markdown", "md"), ("json", "json"), ("csv", "csv")):
    CASES[f"validate.{_ext}"] = ["validate", "--format", _fmt]
    CASES[f"summarize.{_ext}"] = ["summarize", "--format", _fmt]
    CASES[f"metrics-size-only.{_ext}"] = ["metrics", "--features",
                                          "size-only", "--format", _fmt]


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("EFFORTLAB_DATASET", raising=False)
    assert run(CASES[name]) == 0
    expected = (GOLDEN_DIR / name).read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected

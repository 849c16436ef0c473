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
# A copy of the bundled file with two derived-column violations; the
# validate command exits 1 on it.
VIOLATIONS = str(GOLDEN_DIR / "violations.csv")
_FORMATS = {"md": "markdown", "json": "json", "csv": "csv"}
for _ext, _fmt in _FORMATS.items():
    CASES[f"validate.{_ext}"] = ["validate", "--format", _fmt]
    CASES[f"validate-violations.{_ext}"] = ["validate", "--dataset",
                                            VIOLATIONS, "--format", _fmt]
    CASES[f"summarize.{_ext}"] = ["summarize", "--format", _fmt]
    CASES[f"metrics-size-only.{_ext}"] = ["metrics", "--features",
                                          "size-only", "--format", _fmt]
    CASES[f"ablate-regression.{_ext}"] = ["ablate", "--model", "regression",
                                          "--format", _fmt]
for _ext in ("md", "csv"):
    CASES[f"fit.{_ext}"] = ["fit", "--format", _FORMATS[_ext]]
for _ext in ("json", "csv"):
    CASES[f"fit-ann-seed1.{_ext}"] = ["fit", "--model", "ann", "--seed", "1",
                                      "--format", _FORMATS[_ext]]
for _ext in ("md", "json"):
    CASES[f"ablate-both-seeds2.{_ext}"] = ["ablate", "--model", "both",
                                           "--seeds", "2",
                                           "--format", _FORMATS[_ext]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("EFFORTLAB_DATASET", raising=False)
    expected_code = 1 if name.startswith("validate-violations") else 0
    assert run(CASES[name]) == expected_code
    expected = (GOLDEN_DIR / name).read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected

"""The package's public names: exactly what `__all__` lists, each
function reached by a command unless named as unreached; no module of
the package or of its tests imports a name it never uses; and no module
of the package raises the base error class itself."""

import ast
import os
import sys
import types
from pathlib import Path

import pytest

import effortlab as el
from effortlab import cli


def test_all_lists_exactly_the_public_names():
    assert len(set(el.__all__)) == len(el.__all__)
    for name in el.__all__:
        assert not name.startswith("_"), name
        getattr(el, name)  # resolves, the CLI's lazy names included
    public = {name for name in dir(el) if not name.startswith("_")
              and not isinstance(getattr(el, name), types.ModuleType)}
    assert public - set(el.__all__) == set()


# Public functions that no command calls, each kept on purpose: the
# stepwise search and its frame, the attribute ranking, a one-seed
# training and its predictions (the commands score all of a cell's
# networks in one stacked pass), and the derived-size check of one
# record (`validate` checks every row in one pass over the columns).
UNREACHED = {"build_candidate_frame", "predict_frame", "rank_attributes",
             "stepwise_select", "train", "validate_derived"}
_COMMANDS = (["validate"], ["summarize"], ["fit"],
             ["fit", "--model", "ann", "--max-iter", "3"], ["metrics"],
             ["metrics", "--model", "ann", "--max-iter", "3"],
             ["ablate", "--model", "both", "--seeds", "2", "--max-iter", "3"])


def test_every_public_function_is_reached_by_a_command(monkeypatch):
    monkeypatch.delenv("EFFORTLAB_DATASET", raising=False)
    functions = {}
    for name in el.__all__:
        value = getattr(el, name)
        if isinstance(value, types.FunctionType):
            functions[value.__code__] = name
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in functions:
            called.add(functions[frame.f_code])

    sys.setprofile(profile)
    try:
        codes = [cli.run([*argv, "--format", fmt, "--out", os.devnull])
                 for argv in _COMMANDS for fmt in cli.FORMATS]
    finally:
        sys.setprofile(None)
    assert codes == [0] * 21
    assert set(functions.values()) - called == UNREACHED


def _unused_imports(source: str) -> set[str]:
    """Names a module imports and never reads; a literal `__all__` counts
    as a read (a computed one reads only the names its expression does),
    and an import whose lines carry `# noqa: F401` is exempt."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and isinstance(node.value, (ast.List, ast.Tuple)) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets)):
            used.update(ast.literal_eval(node.value))
        elif (isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"
              and not any("# noqa: F401" in line for line
                          in lines[node.lineno - 1:node.end_lineno])):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    return imported - used


_TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize(
    "path", [*sorted(Path(el.__file__).parent.glob("*.py")),
             *sorted(_TESTS.glob("*.py"))],
    ids=lambda path: (f"tests/{path.name}" if path.parent == _TESTS
                      else path.name))
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == set()


def test_unused_import_check_sees_dead_and_exempt_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from .a import b, c  # noqa: F401\nfrom .d import e, f\n"
              "__all__ = ['e']\nnp.zeros(1)\n")
    assert _unused_imports(source) == {"os", "f"}
    computed = ("from .d import e, f\n_MODULES = {'d': ('e',)}\n"
                "__all__ = sorted(_MODULES['d'])\n")
    assert _unused_imports(computed) == {"e", "f"}


def _base_raises(source: str) -> list[int]:
    """The lines that raise `EffortlabError` itself, called or not."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", None) or getattr(exc, "attr", None)
            if name == "EffortlabError":
                lines.append(node.lineno)
    return lines


def test_no_module_raises_the_base_error():
    # callers catch the base; every fault is raised as one of its subclasses
    raised = {path.name: _base_raises(path.read_text())
              for path in sorted(Path(el.__file__).parent.glob("*.py"))}
    assert {name: lines for name, lines in raised.items() if lines} == {}
    assert _base_raises("raise EffortlabError('x')\n"
                        "raise errors.EffortlabError\n"
                        "raise DomainError('y')\nraise\n") == [1, 2]

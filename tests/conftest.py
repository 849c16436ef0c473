import importlib.resources
import importlib.util
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

import effortlab as el
from effortlab.ann import forward
from effortlab.dataset import COLUMNS


def numpy_config() -> dict:
    """numpy's build and runtime configuration; empty before numpy 1.26,
    whose `show_config` has no `mode`."""
    try:
        return np.show_config(mode="dicts")
    except TypeError:
        return {}


def pytest_report_header(config):
    """The numeric platform: the full-precision goldens hold only where
    the BLAS kernels and numpy's SIMD loops give the same last bits.
    The package adds without the built-in `sum()`, which Python 3.12
    made compensated, so its bits do not depend on which one it is."""
    compensated = sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    lines = [f"Python {platform.python_version()}: built-in sum() of floats "
             f"is {'compensated' if compensated else 'left to right'}",
             f"numpy {np.__version__}"]
    info = numpy_config()
    if info:
        blas = info.get("Build Dependencies", {}).get("blas", {})
        lines.append(f"BLAS {blas.get('name')} {blas.get('version')}: "
                     f"{blas.get('openblas configuration', 'n/a')}")
        found = info.get("SIMD Extensions", {}).get("found") or []
        lines.append(f"SIMD extensions found: {' '.join(found) or 'none'}")
    for name in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES"):
        if name in os.environ:
            lines.append(f"{name}={os.environ[name]}")
    return lines


def serialize_records(records) -> str:
    """Render records back to canonical CSV text, `?` for a missing cell."""
    lines = [",".join(COLUMNS)]
    for rec in records:
        tokens = []
        for value in rec:
            if value is None:
                tokens.append("?")
            elif isinstance(value, float) and value == int(value):
                tokens.append(str(int(value)))
            else:
                tokens.append(str(value))
        lines.append(",".join(tokens))
    return "\n".join(lines) + "\n"


def load_perfbench(name: str):
    """The benchmark's helper file perfbench/<name>.py, loaded where it
    stands rather than copied."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def half_sse(params, X, y, hidden_nodes) -> float:
    """Half the sum of squared errors of one network: the plain loss,
    the finite-difference oracle of the training gradient."""
    resid = forward(params, X, hidden_nodes) - y
    return 0.5 * float(resid @ resid)


@pytest.fixture(scope="session")
def raw_records():
    return el.load_dataset(el.bundled_dataset_path())


@pytest.fixture(scope="session")
def complete_records(raw_records):
    return el.filter_complete(raw_records)


@pytest.fixture(scope="session")
def full_frame(complete_records):
    return el.build_frame(complete_records)


@pytest.fixture(scope="session")
def schema():
    text = importlib.resources.files("effortlab").joinpath(
        "schemas/report-v1.json").read_text()
    return json.loads(text)

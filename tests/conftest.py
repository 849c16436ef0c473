import importlib.resources
import json

import pytest

import effortlab as el
from effortlab.ann import forward
from effortlab.dataset import COLUMNS


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

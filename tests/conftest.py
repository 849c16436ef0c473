import importlib.resources
import json

import pytest

import effortlab as el


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

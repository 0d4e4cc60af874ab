import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from mvaudit.data import HEADER, ElectionDataset
from mvaudit.fixtures import fixture_path, load_fixture

DATA_DIR = Path(__file__).parent / "data"

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def fixture_csv_path() -> Path:
    return fixture_path()


@pytest.fixture(scope="session")
def dataset() -> ElectionDataset:
    return load_fixture()


@pytest.fixture(scope="session")
def t_oracle() -> dict:
    with open(DATA_DIR / "t_oracle.json", encoding="utf-8") as fh:
        return json.load(fh)


def dataset_of(rows) -> ElectionDataset:
    """The checked dataset of (district_id, name, ballot_total, ballot_c1,
    mail_total, mail_c1, status) rows, in order."""
    return ElectionDataset(*(tuple(zip(*rows)) or ((),) * len(HEADER)))


def rows_of(ds: ElectionDataset) -> list[tuple]:
    """The dataset's rows, in order: the inverse of ``dataset_of``."""
    return list(zip(*(getattr(ds, column) for column in HEADER)))


def make_random_dataset(
    rng: np.random.Generator,
    n_green: int = 12,
    n_red: int = 4,
    n_dubious: int = 0,
) -> ElectionDataset:
    """Small valid dataset with pseudo-realistic counts for property tests."""
    rows = []
    statuses = ["green"] * n_green + ["red"] * n_red + ["dubious"] * n_dubious
    for i, status in enumerate(statuses):
        ballot_total = int(rng.integers(200, 5000))
        mail_total = int(rng.integers(50, 1500))
        ballot_c1 = int(rng.integers(0, ballot_total + 1))
        mail_c1 = int(rng.integers(0, mail_total + 1))
        rows.append(
            (f"r{i:03d}", f"Random {i:03d}", ballot_total, ballot_c1, mail_total, mail_c1, status)
        )
    return dataset_of(rows)

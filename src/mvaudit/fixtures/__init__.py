"""Bundled reference dataset.

``austria2016.csv`` is a constructed 117-district dataset that reproduces
the published aggregate figures of the annulled 2016 Austrian presidential
runoff (official margin, contested mail-vote totals, and the audit's
reversal probabilities).  It is not the official per-district file; see the
project README for how it was built.
"""

from importlib.resources import files
from pathlib import Path

__all__ = ["FIXTURE_NAME", "fixture_path"]

FIXTURE_NAME = "austria2016.csv"


def fixture_path() -> Path:
    """Filesystem path of the bundled reference dataset."""
    return Path(str(files(__package__).joinpath(FIXTURE_NAME)))


"""Tier-1 hooks: an IntegrationWarning or a RuntimeWarning (overflow,
invalid value, division by zero) fails the test that raises it.

Kept out of pyproject.toml, whose filterwarnings also apply to
`python -m pytest perfbench`, where reference quadratures may warn.
"""
from pathlib import Path

import pytest

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings(
                "error::scipy.integrate.IntegrationWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "error::RuntimeWarning"))

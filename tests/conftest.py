"""Tier-1 hooks: an IntegrationWarning or a RuntimeWarning (overflow,
invalid value, division by zero) fails the test that raises it.  Also
the phi_reads fixture, shared by the density and harness tests.

Kept out of pyproject.toml, whose filterwarnings also apply to
`python -m pytest perfbench`, where reference quadratures may warn.
"""
from pathlib import Path

import pytest

from templevy import density

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings(
                "error::scipy.integrate.IntegrationWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "error::RuntimeWarning"))


@pytest.fixture
def phi_reads(monkeypatch):
    """The number of points of every phi_on_points call density makes."""
    sizes, read = [], density.phi_on_points

    def counted(model, xi):
        phi = read(model, xi)
        sizes.append(phi.size)
        return phi

    monkeypatch.setattr(density, "phi_on_points", counted)
    return sizes

"""The radial tail table W(r) = int_r^inf s^(-1-alpha) q(s) ds, by property.

Every property runs over alpha in [0.05, 1.99] and the five built-in
profile kinds; examples are derandomized so the suite stays repeatable.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from templevy.decomp import bounded_cell_masses, split
from templevy.density import GridSpec
from templevy.errors import DomainError
from templevy.model import (LevyModel, SpectralMeasure, _tail_table,
                            radial_tail_mass)
from templevy.profiles import (Constant, ExpTempered, PolyTempered,
                               Relativistic, Truncated)

ALPHA = st.floats(0.05, 1.99)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def profiles(draw):
    """(q, alpha) over the five built-in profile kinds."""
    alpha = draw(ALPHA)
    q = draw(st.one_of(
        st.builds(Constant, st.floats(0.1, 10.0)),
        st.builds(PolyTempered, st.floats(0.5, 5.0)),
        st.builds(ExpTempered, st.floats(0.0, 2.0), st.floats(0.1, 2.0)),
        st.builds(Truncated, st.floats(0.01, 10.0)),
        st.just(Relativistic(1, alpha)),
    ))
    return q, alpha


@st.composite
def cut_profiles(draw):
    """(Truncated(s0, q), alpha) with a base q of each other built-in kind."""
    alpha = draw(ALPHA)
    q = draw(st.one_of(
        st.builds(Constant, st.floats(0.1, 10.0)),
        st.builds(PolyTempered, st.floats(0.5, 5.0)),
        st.builds(ExpTempered, st.floats(0.0, 2.0), st.floats(0.1, 2.0)),
        st.just(Relativistic(1, alpha)),
    ))
    return Truncated(draw(st.floats(0.01, 10.0)), q), alpha


LOG_R = st.floats(-12.0, 1.0)


@PROPERTY
@given(profiles(), st.lists(LOG_R, min_size=1, max_size=4))
def test_table_matches_scalar_reference(qa, log_r):
    q, alpha = qa
    table = _tail_table(q, alpha)
    for r in 10.0 ** np.array(log_r):
        assert float(table(r)) == pytest.approx(
            radial_tail_mass(q, alpha, r), rel=1e-8, abs=1e-300)


@PROPERTY
@given(profiles())
def test_table_is_non_increasing(qa):
    w = _tail_table(*qa)(np.logspace(-12.0, 3.0, 20001))
    assert np.all(w >= 0.0)
    assert np.all(np.diff(w) <= 0.0)


@PROPERTY
@given(profiles(), st.floats(-3.0, 0.0), st.sampled_from([1.0, 16.0, 256.0]),
       st.sampled_from([256, 4096]))
def test_cell_masses_are_non_negative(qa, log_eps, half_width, n):
    q, alpha = qa
    model = LevyModel(d=1, alpha=alpha, profile=q, spectral=SpectralMeasure(
        d=1, directions=np.array([[1.0], [-1.0]]), weights=np.ones(2)))
    sm = split(model, 10.0 ** log_eps)
    masses = bounded_cell_masses(sm, GridSpec(1, half_width, n))
    assert np.all(masses >= 0.0)
    assert masses.sum() <= sm.lam * (1.0 + 1e-12)


@PROPERTY
@given(profiles(), st.lists(LOG_R, min_size=1, max_size=8))
def test_inverse_round_trips(qa, log_r):
    table = _tail_table(*qa)
    u = table(10.0 ** np.array(log_r))
    u = u[u > 0]
    np.testing.assert_allclose(table(table.inverse(u)), u, rtol=1e-9)


@pytest.mark.parametrize("r", [1e9, 1e11])
def test_table_follows_top_slope(r):
    # above the top node, 1e8, W continues on the exact slope there
    q = PolyTempered(3.0)
    assert float(_tail_table(q, 1.0)(r)) == pytest.approx(
        radial_tail_mass(q, 1.0, r), rel=1e-6, abs=0.0)


@pytest.mark.parametrize("r", [0.0, -1.0, np.nan])
def test_table_rejects_non_positive_radius(r):
    with pytest.raises(DomainError, match="not positive"):
        _tail_table(PolyTempered(3.0), 1.0)(np.array([1.0, r]))


@PROPERTY
@given(cut_profiles(), st.lists(LOG_R, min_size=1, max_size=4))
def test_cut_table_is_base_table_less_its_mass_beyond_s0(qa, log_r):
    cut, alpha = qa
    base = _tail_table(cut.q, alpha)
    r = 10.0 ** np.array(log_r)
    np.testing.assert_array_equal(
        _tail_table(cut, alpha)(r),
        np.maximum(base(r) - float(base(cut.s0)), 0.0))


@PROPERTY
@given(cut_profiles(), st.lists(LOG_R, min_size=1, max_size=4))
def test_cut_table_matches_scalar_reference(qa, log_r):
    cut, alpha = qa
    table = _tail_table(cut, alpha)
    for r in 10.0 ** np.array(log_r):
        assert float(table(r)) == pytest.approx(
            radial_tail_mass(cut, alpha, r), rel=1e-8, abs=1e-300)


@PROPERTY
@given(cut_profiles(), st.lists(LOG_R, min_size=1, max_size=8))
def test_cut_inverse_round_trips(qa, log_r):
    table = _tail_table(*qa)
    u = table(10.0 ** np.array(log_r))
    u = u[u > 0]
    np.testing.assert_allclose(table(table.inverse(u)), u, rtol=1e-9)

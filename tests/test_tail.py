"""The radial tail table W(r) = int_r^inf s^(-1-alpha) q(s) ds, by property.

Every property runs over alpha in [0.05, 1.99] and the five built-in
profile kinds; examples are derandomized so the suite stays repeatable.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from templevy.decomp import bounded_cell_masses, default_eps, split
from templevy.density import GridSpec
from templevy.errors import DomainError
from templevy.model import (_STEP, LevyModel, SpectralMeasure, TailTable,
                            _tail_table, cauchy_model, exp_model, poly_model,
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


@pytest.mark.parametrize("q", [PolyTempered(0.5), ExpTempered(0.0, 1.0)])
def test_table_values_stay_put_when_it_grows(q):
    # a cut reads W(s0) of its base once, so the base's values may not
    # change in the last bit when the base later grows downwards
    table = TailTable(q, 0.47)
    r = np.geomspace(1e-2, 1e3, 1001)
    before = table(r)
    table(np.array([1e-9]))
    np.testing.assert_array_equal(table(r), before)


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


def _searched_inverse(table, w):
    """W^-1 by binary search for the node interval, then two Newton steps
    on its cubic from the chord: the inverse the guide replaced."""
    if isinstance(table.q, Truncated):
        return _searched_inverse(table.base, w + table.w_cut)
    if isinstance(table.q, Constant):
        return (table.alpha * w / table.q.c) ** (-1.0 / table.alpha)
    lw = np.log(w)
    i = np.clip(np.searchsorted(-table.logw, -lw) - 1, 0, len(table.y) - 2)
    f0, m0, m1 = table.logw[i], table.slope[i], table.slope[i + 1]
    d = table.logw[i + 1] - f0
    c2, c3 = 3 * d - 2 * m0 - m1, m0 + m1 - 2 * d
    t = (lw - f0) / (m0 + c2 + c3)
    for _ in range(2):
        t -= (f0 - lw + t * (m0 + t * (c2 + t * c3))) / (
            m0 + t * (2 * c2 + 3 * t * c3))
    with np.errstate(divide="ignore"):
        top = 1.0 + (lw - table.logw[-1]) / table.slope[-1]
    t = np.where(lw < table.logw[-1], top, t)
    return np.exp(table.y[i] + _STEP * t)


# radii up to 1e10 also reach the top slope above the last node, 1e8
LOG_R_WIDE = st.floats(-12.0, 10.0)


@settings(PROPERTY, max_examples=120)  # about 60 of each strategy
@given(st.one_of(profiles(), cut_profiles()),
       st.lists(LOG_R_WIDE, min_size=1, max_size=8))
def test_inverse_matches_searched_inverse(qa, log_r):
    table = _tail_table(*qa)
    u = table(10.0 ** np.array(log_r))
    u = u[u > 0]
    np.testing.assert_allclose(table.inverse(u), _searched_inverse(table, u),
                               rtol=1e-12)


@pytest.mark.parametrize("q", [PolyTempered(3.0), ExpTempered(0.5, 1.0)])
def test_inverse_rebuilds_its_guide_when_the_table_grows(q):
    # a table of its own, still starting at 1e-2
    table = TailTable(q, 1.2)
    early = table(np.array([0.02, 0.5, 3.0]))
    r_early = table.inverse(early)  # builds the guide
    # W(1e-6) lies above the table: the inverse grows it by four decades
    deep = np.array([radial_tail_mass(q, 1.2, 1e-6)])
    r_deep = table.inverse(deep)
    assert table.y[0] < np.log(1e-6)
    np.testing.assert_allclose(r_deep, [1e-6], rtol=1e-8)
    np.testing.assert_allclose(table(r_deep), deep, rtol=1e-9)
    np.testing.assert_allclose(table.inverse(early), r_early, rtol=1e-12)
    np.testing.assert_allclose(table(table.inverse(early)), early, rtol=1e-9)


def _per_atom_cell_masses(sm, grid):
    """bounded_cell_masses reading the table once per atom."""
    edges = np.append(grid.x_axis(), grid.L) - grid.h / 2.0
    masses = np.zeros(grid.N)
    for w, q, th in sm.model.atoms():
        sign = float(th[0])
        tail = _tail_table(q, sm.model.alpha)(np.maximum(sign * edges, sm.eps))
        masses -= w * sign * np.diff(tail)
    return masses


@pytest.mark.parametrize("t, n", [(0.1, 2 ** 20), (1.0, 2 ** 17)])
@pytest.mark.parametrize("model", [cauchy_model(), poly_model(3.0, 1.0),
                                   exp_model(1.0)],
                         ids=["cauchy", "poly3", "exp1"])
def test_cell_masses_equal_per_atom_reads(model, t, n):
    sm = split(model, default_eps(model, t))
    grid = GridSpec(1, 2048.0, n)
    np.testing.assert_array_equal(bounded_cell_masses(sm, grid),
                                  _per_atom_cell_masses(sm, grid))

"""The radial tail table W(r) = int_r^inf s^(-1-alpha) q(s) ds, by property.

Every property runs over alpha in [0.05, 1.99] and the five built-in
profile kinds; examples are derandomized so the suite stays repeatable.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from templevy.decomp import bounded_cell_masses, default_eps, split
from templevy.density import GridSpec
from templevy.errors import DomainError, NumericError
from templevy.model import (_STEP, _Y, R_LO, LevyModel, SpectralMeasure,
                            TailTable, _tail_table, cauchy_model, exp_model,
                            poly_model, radial_tail_mass)
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


def _arrays(table):
    """Copies of every array a table holds, its guide's included."""
    held = dict(vars(table))
    held.update((f"guide[{k}]", v) for k, v in enumerate(held.pop("guide", ())))
    return {k: v.copy() for k, v in held.items() if isinstance(v, np.ndarray)}


@pytest.mark.parametrize("q", [PolyTempered(0.5), ExpTempered(0.0, 1.0)])
def test_reading_a_table_changes_nothing(q):
    # a cut reads W(s0) of its base once, so the base's values may not
    # change when it is read anywhere, below R_LO and above R_HI included
    table = TailTable(q, 0.47)
    r = np.geomspace(1e-2, 1e3, 1001)
    before, w = _arrays(table), table(r)
    for far in (1e-300, 1e-14, 1e11):
        table(np.array([far]))
    assert _arrays(table).keys() == before.keys()
    for k, v in before.items():
        np.testing.assert_array_equal(_arrays(table)[k], v)
    table.inverse(w[w > 0])  # builds the guide
    before = _arrays(table)
    table.inverse(np.array([float(table(1e-20)), float(w[0])]))
    for k, v in before.items():
        np.testing.assert_array_equal(_arrays(table)[k], v)
    np.testing.assert_array_equal(table(r), w)


@pytest.mark.parametrize("r", [0.0, -1.0, np.nan])
def test_table_rejects_non_positive_radius(r):
    with pytest.raises(DomainError, match="not positive"):
        _tail_table(PolyTempered(3.0), 1.0)(np.array([1.0, r]))


@pytest.mark.parametrize("q", [PolyTempered(3.0), Constant(1.0),
                               Truncated(1.0, ExpTempered(0.0, 1.0))])
@pytest.mark.parametrize("w", [0.0, -1.0, np.nan, np.inf])
def test_inverse_rejects_shares_that_are_not_positive_and_finite(q, w):
    with pytest.raises(DomainError, match=f"share {w} "):
        _tail_table(q, 1.0).inverse(np.array([1.0, w]))


@pytest.mark.parametrize("q", [ExpTempered(0.0, 1.0), Constant(1.0)])
def test_inverse_raises_where_the_radius_underflows(q):
    # r^-0.05 = 0.05 w = 5e298 puts r at 1e-5970
    with pytest.raises(NumericError, match="underflows"):
        _tail_table(q, 0.05).inverse(np.array([1.0, 1e300]))


def test_inverse_raises_below_the_floor_that_w_underflows_to():
    # e^-r underflows W before R_HI: the top node sits at the 1e-300 floor
    # with slope 0, so a smaller share has no radius
    table = _tail_table(ExpTempered(0.0, 1.0), 1.0)
    assert 600.0 < float(table.inverse([5e-300])[0]) < 700.0
    with pytest.raises(NumericError, match="below the floor 1e-300"):
        table.inverse(np.array([1e-3, 1e-305]))
    # a cut reads its base's table, shifted by the cut's mass beyond s0
    with pytest.raises(NumericError, match="below the floor 1e-300"):
        _tail_table(Truncated(1e3, ExpTempered(0.0, 1.0)), 1.0).inverse(
            [1e-305])
    # a tail that stays above the floor follows its top slope instead
    assert np.isfinite(_tail_table(PolyTempered(3.0), 1.0).inverse([1e-305]))


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
    i = np.clip(np.searchsorted(-table.logw, -lw) - 1, 0, len(_Y) - 2)
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
    return np.exp(_Y[i] + _STEP * t)


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


@pytest.mark.parametrize("alpha", [0.05, 1.2, 1.99])
@pytest.mark.parametrize("q", [PolyTempered(5.0), ExpTempered(2.0, 2.0),
                               Relativistic(1, 1.2)])
def test_leg_below_r_lo(q, alpha):
    # below R_LO, W is the closed leg of q(0+), and inverse solves it
    table = _tail_table(q, alpha)
    r = R_LO * np.array([1e-1, 1e-3, 1e-6])
    w = table(r)
    for ri, wi in zip(r, w):
        assert wi == pytest.approx(radial_tail_mass(q, alpha, ri),
                                   rel=1e-10, abs=0.0)
    assert np.all(w > float(table(R_LO)))
    np.testing.assert_allclose(table(table.inverse(w)), w, rtol=1e-9)
    np.testing.assert_allclose(table.inverse(w), r, rtol=1e-9)


def test_leg_raises_where_w_overflows():
    # W(1e-300) at alpha = 1.5 is about 1e450
    with pytest.raises(NumericError, match="not finite"):
        _tail_table(PolyTempered(3.0), 1.5)(np.array([1.0, 1e-300]))


def _per_atom_cell_masses(sm, grid):
    """The cell masses atom by atom: each atom reads W at all N + 1 edges
    and takes its cells as differences along its own ray."""
    edges = np.append(grid.x_axis(), grid.L) - grid.h / 2.0
    masses = np.zeros(grid.N)
    m = sm.model
    w_all, th_all = m.spectral.atom_weights, m.spectral.atom_directions
    for w, q, th in zip(w_all, m.atom_profiles or (m.profile,) * len(w_all),
                        th_all):
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


_TWO_PROFILES = LevyModel(
    d=1, alpha=1.2,
    spectral=SpectralMeasure(d=1, directions=[[1.0], [-1.0], [-1.0], [1.0]],
                             weights=[1.0, 1.0, 0.5, 0.5]),
    atom_profiles=[PolyTempered(3.0), PolyTempered(3.0),
                   ExpTempered(0.0, 2.0), ExpTempered(0.0, 2.0)])


# h = 2L / N is a power of two at L = 2048 and not at L = 3 or 100
@pytest.mark.parametrize("L", [3.0, 100.0, 2048.0])
@pytest.mark.parametrize("eps", [0.01, 1.0])
@pytest.mark.parametrize("model", [cauchy_model(), poly_model(3.0, 1.0),
                                   exp_model(1.0), _TWO_PROFILES],
                         ids=["cauchy", "poly3", "exp1", "two-profiles"])
def test_cell_masses_on_distinct_radii_match_per_atom(model, eps, L):
    sm = split(model, eps)
    grid = GridSpec(1, L, 2 ** 15)
    ref = _per_atom_cell_masses(sm, grid)
    np.testing.assert_allclose(bounded_cell_masses(sm, grid), ref, rtol=0,
                               atol=1e-15 * float(ref.max()))


def test_cell_masses_mirror_exactly():
    # h = 2.7 / 2^14 has no exact multiples, so the per-atom edges at +kh
    # and -kh round apart; the cells at +-kh read the same radii here and
    # hold the same mass, and only the cell at -L is unpaired
    sm = split(_TWO_PROFILES, 0.01)
    grid = GridSpec(1, 2.7, 2 ** 15)
    masses = bounded_cell_masses(sm, grid)
    np.testing.assert_array_equal(masses[1:], masses[1:][::-1])
    assert masses.sum() == pytest.approx(
        _per_atom_cell_masses(sm, grid).sum(), rel=1e-14)

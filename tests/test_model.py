"""Levy model functionals: tail mass, ball mass, moments, spectral gamma."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from templevy.charexp import phi, phi_on_points, psi_vector
from templevy import model as model_mod
from templevy.errors import DomainError
from templevy.model import (
    LevyModel,
    SpectralMeasure,
    cauchy_model,
    exp_model,
    load_model,
    model_from_dict,
    model_to_dict,
    nu_ball,
    nu_tail,
    poly_model,
    radial_second_moment,
    radial_tail_mass,
    relativistic_model,
    save_model,
    stable_model,
    truncated_second_moment,
)
from templevy.profiles import (Constant, ExpTempered, PolyTempered,
                               Relativistic, Truncated)


def test_nu_tail_cauchy():
    # 2 * int_2^inf s^-2 ds = 1
    assert nu_tail(cauchy_model(), 2.0) == pytest.approx(1.0, rel=1e-10)


def test_nu_tail_monotone_to_zero():
    m = poly_model(2.0, alpha=0.5)
    vals = [nu_tail(m, r) for r in (1.0, 4.0, 16.0, 64.0, 256.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-2 * vals[0]


def test_nu_tail_poly_quadrature_oracle():
    m = poly_model(2.0, alpha=0.5)
    oracle = 2.0 * quad(lambda s: s ** -1.5 * (1 + s) ** -2.0,
                        1.0, np.inf, epsabs=1e-13, epsrel=1e-11)[0]
    assert nu_tail(m, 1.0) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9])
def test_radial_tail_mass_constant_closed_form(alpha):
    # int_r^inf s^(-1-alpha) ds = r^-alpha / alpha, across twelve decades
    for r in (1e-12, 3.7e-10, 1e-9, 2.5e-7, 1e-6, 4e-4, 1e-2, 0.3, 1.0):
        assert radial_tail_mass(Constant(1.0), alpha, r) == pytest.approx(
            r ** -alpha / alpha, rel=1e-10)


def test_truncated_second_moment_constant_profile():
    # int_{|y|<r} |y|^2 nu(dy) = 2 int_0^r s^{1-1} ds = 2r for the Cauchy
    # realization (alpha = 1, q = 1, two unit atoms)
    val = 2.0 * radial_second_moment(Constant(1.0), 1.0, 3.0)
    assert val == pytest.approx(6.0, rel=1e-12)


def test_truncated_second_moment_vanishes_at_zero():
    assert 2.0 * radial_second_moment(Constant(1.0), 1.0, 1e-12) < 1e-11


def test_truncated_second_moment_exp_bounded_growth():
    # exponential tempering: moments grow like r^{2-beta} with beta = 2,
    # i.e. stay bounded in r
    q = ExpTempered(a=0.0, c1=1.0)
    vals = [2.0 * radial_second_moment(q, 1.5, r) for r in (1, 2, 4, 8)]
    assert vals[-1] / vals[0] < 2.0


def test_nu_ball_d1():
    # d=1 Cauchy realization, B(4, 1): int_3^5 s^-2 ds = 2/15
    assert nu_ball(cauchy_model(), np.array([4.0]), 1.0) == pytest.approx(
        2.0 / 15.0, rel=1e-10)


def test_nu_ball_d2_on_axis():
    m = stable_model(1.0, d=2)
    # atoms +-e1, +-e2 with weight 1; only the +e1 ray meets B(2e1, 0.5)
    val = nu_ball(m, np.array([2.0, 0.0]), 0.5)
    assert val == pytest.approx(4.0 / 15.0, rel=1e-10)


def test_nu_ball_misses_support():
    m = stable_model(1.0, d=2)
    assert nu_ball(m, np.array([2.0, 2.0]), 0.5) == 0.0


def test_nu_ball_symmetric():
    m = poly_model(3.0, alpha=1.0)
    x = np.array([2.5])
    assert nu_ball(m, x, 0.7) == pytest.approx(nu_ball(m, -x, 0.7), rel=1e-12)


@pytest.mark.parametrize("spectral, theta, gamma, limit", [
    (SpectralMeasure(d=1, directions=np.array([[1.0], [-1.0]]),
                     weights=np.ones(2)), (1.0,), 1.0, 0.25),
    (SpectralMeasure(d=2, directions=np.array([[1.0, 0.0], [-1.0, 0.0],
                                               [0.6, 0.8], [-0.6, -0.8]]),
                     weights=np.ones(4)), (0.6, 0.8), 1.0, 0.25),
    (SpectralMeasure(d=2, density=lambda ang: np.ones_like(ang)),
     (1.0, 0.0), 2.0, math.pi / 8.0),
    (SpectralMeasure(d=2, density=lambda ang: np.abs(np.cos(ang))),
     (math.cos(0.3), math.sin(0.3)), 2.0, math.cos(0.3) * math.pi / 8.0),
], ids=["atoms-d1", "atoms-d2", "uniform-circle", "abs-cos"])
def test_nu_ball_shrinks_like_r_to_the_spectral_gamma(spectral, theta,
                                                      gamma, limit):
    # at |x| = 1 with alpha = 1 and q(1) = 1/8, nu(B(x, r)) / r^gamma
    # tends to q(1) times a chord 2r on an atom's ray (weight 1), or
    # times g(theta) and the area pi r^2 in a density's cone
    assert spectral.gamma == gamma
    m = LevyModel(d=spectral.d, alpha=1.0, spectral=spectral,
                  profile=PolyTempered(3.0))
    x = np.asarray(theta)
    lo, hi = nu_ball(m, x, 1e-3), nu_ball(m, x, 1e-2)
    assert math.log(hi / lo) / math.log(10.0) == pytest.approx(gamma,
                                                               abs=1e-3)
    assert lo / 1e-3 ** gamma == pytest.approx(limit, rel=1e-5)


def test_uniform_circle_direction_matrix():
    # int_0^{2 pi} theta theta^T da = pi I, exact for the trapezoid rule
    sp = SpectralMeasure(d=2, density=lambda ang: np.ones_like(ang))
    np.testing.assert_allclose(sp.direction_matrix(), math.pi * np.eye(2),
                               atol=1e-12)
    assert not sp.degenerate


def test_spectral_unit_directions_enforced():
    with pytest.raises(DomainError):
        SpectralMeasure(d=1, directions=np.array([[2.0], [-2.0]]),
                        weights=np.array([1.0, 1.0]))


def test_model_json_roundtrip(tmp_path):
    m = exp_model(1.5, a=1.0, c1=2.0)
    path = tmp_path / "model.json"
    save_model(m, path)
    back = load_model(path)
    assert back.alpha == m.alpha and back.d == m.d
    assert nu_tail(back, 1.3) == pytest.approx(nu_tail(m, 1.3), rel=1e-12)
    doc = model_to_dict(m)
    assert doc["model_schema"] == 1
    again = model_from_dict(doc)
    assert isinstance(again, LevyModel)


def test_tail_vs_second_moment_consistency():
    # -d/dr nu_tail(r) * r^2 integrates back to the truncated second moment
    m = poly_model(2.0, alpha=1.2)
    oracle = quad(lambda s: s * s * 2.0 * s ** -2.2 * (1 + s) ** -2.0,
                  0.0, 3.0, epsabs=1e-13)[0]
    q = PolyTempered(2.0)
    assert 2.0 * radial_second_moment(q, 1.2, 3.0) == pytest.approx(
        oracle, rel=1e-8)


def _line_model(weights, profiles, alpha=1.0):
    """d = 1 model with atoms at +1, -1, +1, -1, ..."""
    dirs = [[(-1.0) ** i] for i in range(len(weights))]
    return LevyModel(d=1, alpha=alpha, atom_profiles=profiles,
                     spectral=SpectralMeasure(d=1, directions=np.array(dirs),
                                              weights=np.array(weights)))


def test_atom_profiles_round_trip_keeps_phi():
    m = LevyModel(d=2, alpha=1.3, atom_profiles=[
        PolyTempered(3.0), PolyTempered(3.0), ExpTempered(0.5, 2.0),
        ExpTempered(0.5, 2.0)], spectral=SpectralMeasure(
            d=2, directions=np.kron(np.eye(2), [[1.0], [-1.0]]),
            weights=np.array([1.0, 1.0, 0.5, 0.5])))
    back = model_from_dict(model_to_dict(m))
    assert back.atom_profiles == m.atom_profiles and back.profile is None
    xi = np.array([[0.3, -1.1], [2.0, 0.7], [-7.5, 40.0]])
    np.testing.assert_array_equal(phi_on_points(back, xi),
                                  phi_on_points(m, xi))


def test_model_rejects_one_profile_per_side():
    # balanced spectral weights, but nu(-D) != nu(D)
    with pytest.raises(DomainError, match=r"atom 0 at \[1.0\]"):
        _line_model([1.0, 1.0], [PolyTempered(3.0), ExpTempered(c1=5.0)])


def test_model_loads_repeated_directions():
    q = PolyTempered(3.0)
    m = _line_model([1.0, 1.0, 0.5, 0.5], [q] * 4)
    assert [(w, p) for w, p, _ in m.pairs] == [(3.0, q)]
    assert phi(m, [2.0]).value == pytest.approx(
        1.5 * phi(poly_model(3.0, 1.0), [2.0]).value, rel=1e-12)


def test_model_rejects_asymmetric_density():
    sp = SpectralMeasure(d=2, density=lambda a: 1.0 + 0.5 * np.cos(a))
    with pytest.raises(DomainError, match="not symmetric"):
        LevyModel(d=2, alpha=1.0, spectral=sp, profile=PolyTempered(3.0))


def test_spectral_measure_rejects_negative_density():
    # symmetric, so pairing would pass it, with Phi(0, 5) < 0 for poly m = 3
    first = 2.0 * math.pi * 73 / 512  # the first rule angle with g < 0
    with pytest.raises(DomainError, match=f"negative: g\\({first:.12g}\\)"):
        SpectralMeasure(d=2, density=lambda a: 0.2 + np.cos(2 * a))


def test_legacy_closed_form_key_is_ignored():
    # a file that names a closed form its profile does not have
    doc = model_to_dict(poly_model(3.0, 1.0))
    doc["closed_form"] = "relativistic"
    m = model_from_dict(doc)
    assert phi(m, [2.0]).value == pytest.approx(1.5640855, rel=1e-6)
    assert phi(m, [2.0]).method == "quadrature"
    assert "closed_form" not in model_to_dict(relativistic_model(1.0))


ALPHAS = (0.5, 1.0, 1.5)


@st.composite
def symmetric_atom_sets(draw):
    """(d, alpha, directions, weights, profiles): every atom has its
    antipode with the same weight and profile, in shuffled order; few
    directions, so they repeat."""
    d = draw(st.sampled_from([1, 2]))
    alpha = draw(st.sampled_from(ALPHAS))
    kinds = (Constant(2.0), PolyTempered(3.0), ExpTempered(0.5, 1.0),
             Truncated(1.0, PolyTempered(2.0)), Relativistic(1, alpha))
    atoms = []
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.sampled_from([0.0, 0.5, 2.0])) if d == 2 else 0.0
        w = draw(st.floats(0.1, 10.0))
        q = draw(st.sampled_from(kinds))
        if d == 1:
            th = [1.0] if draw(st.booleans()) else [-1.0]
            atoms += [(th, w, q), ([-th[0]], w, q)]
        else:  # the antipode from the angle, as the density rule makes it
            atoms += [([math.cos(a), math.sin(a)], w, q),
                      ([math.cos(a + math.pi), math.sin(a + math.pi)], w, q)]
    atoms = draw(st.permutations(atoms))
    dirs, ws, qs = zip(*atoms)
    return d, alpha, np.array(dirs), np.array(ws), list(qs)


def _atom_set_model(d, alpha, dirs, ws, qs):
    return LevyModel(d=d, alpha=alpha, atom_profiles=qs,
                     spectral=SpectralMeasure(d=d, directions=dirs,
                                              weights=ws))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(symmetric_atom_sets(), st.data())
def test_symmetric_atom_sets_load_and_pair(atom_set, data):
    d, alpha, dirs, ws, qs = atom_set
    m = _atom_set_model(d, alpha, dirs, ws, qs)
    xi = np.array([[0.3, -1.1], [2.0, 0.7], [-7.5, 4.0]])[:, :d]
    per_atom = sum(w * psi_vector(q, alpha, np.abs(xi @ th))
                   for w, q, th in zip(ws, qs, dirs))
    np.testing.assert_allclose(phi_on_points(m, xi), per_atom, rtol=1e-13)
    # one atom a little heavier: nu is no longer symmetric
    i = data.draw(st.integers(0, len(ws) - 1))
    heavier = ws.copy()
    heavier[i] *= 1.0 + 1e-6
    with pytest.raises(DomainError, match="not symmetric"):
        _atom_set_model(d, alpha, dirs, heavier, qs)


def test_pairing_memory_is_linear_in_atoms():
    # 1,024 directions and their antipodes in d = 2: pairing them holds no
    # k x k matrix (one of 2,048^2 doubles is 32 MB)
    ang = np.linspace(0.0, math.pi, 1024, endpoint=False)
    ang = np.concatenate((ang, ang + math.pi))
    sp = SpectralMeasure(d=2, directions=np.stack(
        [np.cos(ang), np.sin(ang)], axis=1), weights=np.ones(2048))
    tracemalloc.start()
    try:
        m = LevyModel(d=2, alpha=1.0, spectral=sp, profile=PolyTempered(3.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(m.pairs) == 1024
    assert all(w == 2.0 for w, _, _ in m.pairs)
    assert peak < 10 * 2 ** 20


def test_constructor_checks_once_per_profile(monkeypatch):
    # 2,048 atoms of one profile in d = 2: nu_tail and the second moment
    # sum the weights per profile, so the constructor makes one quadrature
    calls = []

    def counted(q, alpha, r):
        calls.append(q)
        return radial_second_moment(q, alpha, r)

    monkeypatch.setattr(model_mod, "radial_second_moment", counted)
    ang = 2.0 * math.pi * np.arange(2048) / 2048
    sp = SpectralMeasure(d=2, directions=np.stack(
        [np.cos(ang), np.sin(ang)], axis=1), weights=np.full(2048, 0.3))
    q = PolyTempered(3.0)
    m = LevyModel(d=2, alpha=1.2, spectral=sp, profile=q)
    assert calls == [q]
    assert m.profiles_and_weights() == [(pytest.approx(614.4, rel=1e-14), q)]
    # the atom-by-atom sums, exactly rounded
    w_tail = float(model_mod._tail_table(q, 1.2)(1.0))
    assert nu_tail(m, 1.0) == pytest.approx(
        math.fsum(0.3 * w_tail for _ in ang), rel=1e-14)
    assert truncated_second_moment(m, 1.0) == pytest.approx(
        math.fsum(0.3 * radial_second_moment(q, 1.2, 1.0) for _ in ang),
        rel=1e-14)

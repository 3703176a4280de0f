"""Levy model functionals: tail mass, ball mass, moments, gamma fit."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from templevy.errors import DomainError
from templevy.model import (
    LevyModel,
    SpectralMeasure,
    cauchy_model,
    exp_model,
    gamma_estimate,
    load_model,
    model_from_dict,
    model_to_dict,
    nu_ball,
    nu_tail,
    poly_model,
    radial_second_moment,
    radial_tail_mass,
    save_model,
    stable_model,
)
from templevy.profiles import Constant, ExpTempered, PolyTempered


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


def test_gamma_estimate_atoms():
    g, _ = gamma_estimate(cauchy_model().spectral, np.logspace(-2, -0.5, 6))
    assert g == pytest.approx(1.0)


def test_gamma_estimate_uniform_circle():
    sp = SpectralMeasure(d=2, density=lambda ang: np.ones_like(ang))
    g, _ = gamma_estimate(sp, np.logspace(-2, -0.5, 8))
    assert g == pytest.approx(2.0, abs=0.05)


def test_gamma_estimate_cos_density():
    sp = SpectralMeasure(d=2, density=lambda ang: np.abs(np.cos(ang)))
    g, _ = gamma_estimate(sp, np.logspace(-2, -0.5, 8))
    assert g == pytest.approx(2.0, abs=0.05)


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

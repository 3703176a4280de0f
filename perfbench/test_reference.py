"""Tests of the benchmark's reference module (run: python3 -m pytest perfbench)."""
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, quad

import reference as ref


def _psi_direct(u, alpha, c):
    """psi by adaptive quadrature of its defining integral, in v = u s."""
    w = lambda v: v ** (-1.0 - alpha) * math.exp(-c * v / u)
    # v = z^2 takes the v^(1-alpha) endpoint singularity out of the head;
    # 1 - cos(v) = 2 sin^2(v/2) keeps its small values exact
    head = quad(lambda z: 4.0 * z * math.sin(0.5 * z * z) ** 2 * w(z * z)
                if z > 0.0 else 0.0, 0.0, 1.0,
                epsabs=0.0, epsrel=1e-12, limit=200)[0]
    mass = quad(w, 1.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    cos = quad(w, 1.0, np.inf, weight="cos", wvar=1.0, epsabs=1e-14,
               limlst=200)[0]
    return u ** alpha * (head + mass - cos)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("c", [0.5, 2.0])
def test_psi_matches_defining_integral(alpha, c):
    for u in (0.1, 1.0, 10.0, 100.0):
        exact = _psi_direct(u, alpha, c)
        assert ref.psi_exp(u, alpha, c) == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 1.9])
def test_psi_tends_to_stable_as_tempering_vanishes(alpha):
    u = np.array([0.5, 3.0, 40.0])
    stable = ref.stable_coefficient(alpha) * u ** alpha
    # psi - stable = O(c^alpha): c = 1e-40 puts it below rounding
    np.testing.assert_allclose(ref.psi_exp(u, alpha, 1e-40), stable,
                               rtol=1e-10)


def test_stable_coefficient_matches_quadrature():
    for alpha in (0.5, 1.0, 1.5):
        assert ref.stable_coefficient(alpha) == pytest.approx(
            _psi_direct(1.0, alpha, 1e-12), rel=1e-8)


LAWS = [
    ("exp a=0.5 c=1 t=1", ref.exp_phi(0.5, 1.0), 1.0, 60.0),
    ("exp a=1 c=0.8 t=0.5", ref.exp_phi(1.0, 0.8), 0.5, 60.0),
    ("exp a=1.5 c=1 t=10", ref.exp_phi(1.5, 1.0), 10.0, 120.0),
    ("relativistic a=1 t=1", ref.relativistic_phi(1.0), 1.0, 80.0),
]


@pytest.mark.parametrize("name,phi,t,X", LAWS, ids=[l[0] for l in LAWS])
def test_density_integrates_to_one(name, phi, t, X):
    x = np.linspace(-X, X, 24001)
    p = ref.density(phi, t, x)
    assert np.all(p > -1e-15)
    assert np.trapezoid(p, x) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("name,phi,t,X", LAWS, ids=[l[0] for l in LAWS])
def test_density_matches_adaptive_cosine_quadrature(name, phi, t, X):
    f = lambda u: math.exp(-t * float(phi(u)))
    U = 1.0
    while t * float(phi(U)) < 50.0:
        U *= 1.5
    for x in (0.0, 0.3, 2.0, 7.0):
        exact = quad(f, 0.0, U, weight="cos", wvar=x, epsabs=1e-14,
                     limit=1000)[0]
        assert ref.density(phi, t, x)[0] == pytest.approx(
            exact / math.pi, abs=1e-10)


def test_cauchy_closed_forms_agree_with_transforms():
    x = np.linspace(-30.0, 30.0, 61)
    phi = lambda u: math.pi * np.abs(u)
    for t in (0.1, 1.0):
        np.testing.assert_allclose(ref.density(phi, t, x),
                                   ref.cauchy_pdf(t, x), rtol=0, atol=1e-12)
        np.testing.assert_allclose(ref.cdf(phi, t, x), ref.cauchy_cdf(t, x),
                                   rtol=0, atol=1e-12)


def test_cdf_is_integral_of_density():
    phi, t = ref.exp_phi(1.0, 1.0), 0.5
    x = np.linspace(-40.0, 40.0, 16001)
    cum = cumulative_simpson(ref.density(phi, t, x), x=x, initial=0.0)
    F = ref.cdf(phi, t, x)
    np.testing.assert_allclose(F - F[0], cum, rtol=0, atol=1e-10)
    assert F[0] < 1e-6 and F[-1] > 1.0 - 1e-6


def test_dkw_bound():
    assert ref.dkw_bound(100000, 1e-6) == pytest.approx(
        math.sqrt(math.log(2e6) / 2e5))

"""Increment sampler: seeding, jump law, covariance, distribution."""
import math
from dataclasses import replace

import numpy as np
import pytest

from templevy import montecarlo
from templevy.charexp import phi, phi_on_points, stable_constant
from templevy.density import GridSpec, invert
from templevy.errors import DomainError, NumericError
from templevy.model import (LevyModel, SpectralMeasure, cauchy_model,
                            exp_model, nu_tail, poly_model, stable_model)
from templevy.profiles import (Constant, Custom, ExpTempered, PolyTempered,
                               Relativistic, Truncated)
from templevy.montecarlo import (
    SamplerConfig,
    jump_counts,
    jump_radius_cdf,
    sample_many,
    small_jump_covariance,
)


def test_config_validation():
    m = cauchy_model()
    with pytest.raises(DomainError):
        SamplerConfig(m, t=1.0, eps=0.0)
    with pytest.raises(DomainError):
        SamplerConfig(m, t=-1.0, eps=0.1)
    with pytest.raises(DomainError):
        SamplerConfig(m, t=1.0, eps=0.1, mode="exact")


def test_seeded_determinism():
    cfg = SamplerConfig(cauchy_model(), t=1.0, eps=0.1, count=200, seed=7)
    a = sample_many(cfg)
    b = sample_many(cfg)
    np.testing.assert_array_equal(a, b)
    c = sample_many(SamplerConfig(cauchy_model(), t=1.0, eps=0.1,
                                  count=200, seed=8))
    assert not np.array_equal(a, c)


def test_chunking_leaves_draws_unchanged(monkeypatch):
    # ~5200 proposals summed in one chunk, then in chunks of 7 that split
    # draws; in d = 2 each proposal also picks one of the profile's pairs
    cfgs = [SamplerConfig(poly_model(3.0, 1.0, d=d), t=0.5, eps=0.05,
                          mode="drop", count=300, seed=9) for d in (1, 2)]
    whole = [sample_many(cfg) for cfg in cfgs]
    monkeypatch.setattr(montecarlo, "JUMP_CHUNK", 7)
    for cfg, w in zip(cfgs, whole):
        np.testing.assert_array_equal(sample_many(cfg), w)


def test_single_draw_shapes():
    cfg = SamplerConfig(cauchy_model(), t=0.5, eps=0.2, seed=3)
    assert sample_many(cfg)[0].shape == (1,)
    assert sample_many(replace(cfg, mode="drop"))[0].shape == (1,)


def test_jump_counts_mean():
    m = cauchy_model()
    eps, t, n = 0.5, 0.7, 40000
    lam = nu_tail(m, eps)
    counts = jump_counts(SamplerConfig(m, t=t, eps=eps, count=n, seed=11))
    se = math.sqrt(t * lam / n)
    assert abs(counts.mean() - t * lam) <= 3.0 * se


def test_jump_radius_cdf_pareto():
    # q = 1: the radius law is exactly Pareto(alpha) above eps
    m = cauchy_model()
    eps = 0.3
    s = np.array([0.3, 0.6, 1.2, 10.0])
    np.testing.assert_allclose(jump_radius_cdf(m, eps, s),
                               np.maximum(0.0, 1.0 - eps / s), rtol=1e-10)


def test_jump_radius_cdf_monotone():
    m = poly_model(3.0, 1.0)
    s = np.linspace(0.1, 50.0, 200)
    cdf = jump_radius_cdf(m, 0.1, s)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-3)


def test_small_jump_covariance_value():
    # 2 int_0^eps s^{1-alpha} q ds with alpha = 1, q = 1 -> 2 eps
    cov = small_jump_covariance(cauchy_model(), 0.25)
    assert cov.shape == (1, 1)
    assert cov[0, 0] == pytest.approx(0.5, rel=1e-10)


def _density_model(profile, density=np.ones_like, alpha=1.2):
    return LevyModel(d=2, alpha=alpha, profile=profile,
                     spectral=SpectralMeasure(d=2, density=density))


def test_density_measure_first_coordinate_ks():
    # the uniform circle with q = 1 is rotation invariant, so the first
    # coordinate is 1-D stable with Phi_1(u) = Phi((u, 0))
    alpha, t = 1.2, 0.5
    m = _density_model(Constant(1.0), alpha=alpha)
    x = np.sort(sample_many(SamplerConfig(m, t=t, eps=0.05, count=20000,
                                          seed=42))[:, 0])
    ref = stable_model(alpha, weight=phi(m, (1.0, 0.0)).value
                       / (2.0 * stable_constant(alpha)))
    fld = invert(ref, t, GridSpec(1, 256.0, 2 ** 15))
    cdf = np.interp(x, fld.grid.x_axis(), np.cumsum(fld.values) * fld.grid.h)
    emp = (np.arange(len(x)) + 0.5) / len(x)
    assert np.max(np.abs(emp - cdf)) < 0.02


def test_density_measure_first_coordinate_dkw_tempered():
    # the uniform circle under PolyTempered(3): the first coordinate has
    # the characteristic function exp(-t Phi((u, 0))); its CDF by
    # Gil-Pelaez, 1/2 + int_0^inf sin(u x) f(u) / (pi u) du, on a grid of
    # x (the integrand is even in u, so the trapezoid rule converges
    # fast); the empirical CDF within the DKW bound at delta = 1e-3
    m = _density_model(PolyTempered(3.0))
    t, n, delta = 0.5, 20000, 1e-3
    x = np.sort(sample_many(SamplerConfig(m, t=t, eps=0.05, count=n,
                                          seed=42))[:, 0])
    du = 0.005
    u = du * np.arange(1, 2401)
    f = np.exp(-t * phi_on_points(m, np.stack([u, 0.0 * u], axis=1)))
    assert f[-1] < 1e-12
    xs = np.linspace(x[0], x[-1], 4001)
    cdf = 0.5 + (xs * du / 2.0 + np.sin(np.outer(xs, u)) @ (f / u) * du) / math.pi
    F = np.interp(x, xs, cdf)
    ks = max(np.max(np.arange(1, n + 1) / n - F), np.max(F - np.arange(n) / n))
    assert ks <= math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def test_density_measure_small_jump_covariance():
    # the 512-node rule sums cos^2 exactly: pi eps^(2-alpha) / (2-alpha) I
    alpha, eps = 1.2, 0.05
    cov = small_jump_covariance(_density_model(Constant(1.0), alpha=alpha),
                                eps)
    np.testing.assert_allclose(
        cov, math.pi * eps ** (2 - alpha) / (2 - alpha) * np.eye(2),
        rtol=1e-13, atol=1e-15)


def test_density_measure_jump_counts_mean():
    m = _density_model(PolyTempered(3.0))
    eps, t, n = 0.05, 0.5, 20000
    lam = nu_tail(m, eps)
    counts = jump_counts(SamplerConfig(m, t=t, eps=eps, count=n, seed=11))
    assert abs(counts.mean() - t * lam) <= 3.0 * math.sqrt(t * lam / n)


@pytest.mark.parametrize("profile", [Constant(1.0), PolyTempered(3.0)],
                         ids=["stable", "poly3"])
def test_density_measure_characteristic_function(profile):
    # E cos<xi, X> against exp(-t Phi(xi)) for a density that is not
    # rotation invariant; Var cos<xi, X> = (1 + f(2 xi)) / 2 - f(xi)^2
    m = _density_model(profile, density=lambda a: 1.0 + 0.5 * np.cos(2 * a))
    t, n = 0.5, 20000
    x = sample_many(SamplerConfig(m, t=t, eps=0.02, count=n, seed=42))
    for xi in ([0.5, 0.0], [0.0, 0.5], [0.35, 0.35], [-0.2, 0.6]):
        xi = np.array(xi)
        f, f2 = (math.exp(-t * phi(m, k * xi).value) for k in (1, 2))
        se = math.sqrt(((1.0 + f2) / 2.0 - f * f) / n)
        assert abs(np.cos(x @ xi).mean() - f) <= 3.0 * se


def test_drop_mode_pure_jumps():
    # with eps tiny and mode "drop", empirical variance of the big-jump sum
    # of a tempered model stays finite and positive
    cfg = SamplerConfig(poly_model(3.0, 1.0), t=0.5, eps=0.05,
                        mode="drop", count=4000, seed=5)
    x = sample_many(cfg)
    assert x.shape == (4000, 1)
    assert 0.0 < x.var() < 50.0


def test_ks_against_inverted_density():
    m = poly_model(3.0, 1.0)
    t = 0.5
    cfg = SamplerConfig(m, t=t, eps=0.02, count=20000, seed=42)
    x = np.sort(sample_many(cfg)[:, 0])
    fld = invert(m, t, GridSpec(1, 256.0, 2 ** 15))
    cdf_grid = np.cumsum(fld.values) * fld.grid.h
    cdf = np.interp(x, fld.grid.x_axis(), cdf_grid)
    emp = (np.arange(len(x)) + 0.5) / len(x)
    ks = np.max(np.abs(emp - cdf))
    assert ks < 0.02


def test_ks_with_unlike_atoms():
    # two profiles with unequal weights, each on both of +-1: thinning gives
    # each atom its own Poisson count and its own radius law
    q3, qe = PolyTempered(3.0), ExpTempered(c1=1.0)
    m = LevyModel(d=1, alpha=1.0, atom_profiles=(q3, q3, qe, qe),
                  spectral=SpectralMeasure(
                      d=1, directions=np.array([[1.0], [-1.0], [1.0], [-1.0]]),
                      weights=np.array([1.0, 1.0, 0.5, 0.5])))
    t = 0.5
    x = np.sort(sample_many(SamplerConfig(m, t=t, eps=0.02, count=20000,
                                          seed=42))[:, 0])
    fld = invert(m, t, GridSpec(1, 256.0, 2 ** 15))
    cdf = np.interp(x, fld.grid.x_axis(), np.cumsum(fld.values) * fld.grid.h)
    emp = (np.arange(len(x)) + 0.5) / len(x)
    assert np.max(np.abs(emp - cdf)) < 0.02


def _pm_model(q, alpha=1.2):
    return LevyModel(d=1, alpha=alpha, profile=q, spectral=SpectralMeasure(
        d=1, directions=np.array([[1.0], [-1.0]]), weights=np.ones(2)))


@pytest.mark.parametrize("eps", [0.01, 1.0])
@pytest.mark.parametrize("q", [PolyTempered(3.0), ExpTempered(0.0, 1.0),
                               ExpTempered(2.0, 0.5), Relativistic(1, 1.2),
                               Truncated(2.0, ExpTempered(0.0, 1.0))],
                         ids=["poly3", "exp", "exp-peak3", "relativistic",
                              "cut-exp"])
def test_kept_radii_follow_the_jump_radius_law(q, eps):
    # the kept proposals' |R| against 1 - W(s)/W(eps), within the DKW bound
    # at delta = 1e-6; ExpTempered(2, 0.5) peaks at s = 3, inside [eps, inf)
    u = np.random.default_rng(3).random((100_000, 2))
    r = montecarlo._radii(u, q, montecarlo._bound(q, eps), eps, 1.2)
    x = np.sort(np.abs(r[r != 0.0]))
    n = len(x)
    assert n > 10_000
    F = jump_radius_cdf(_pm_model(q), eps, x)
    ks = max(np.max(np.arange(1, n + 1) / n - F), np.max(F - np.arange(n) / n))
    assert ks <= math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))


@pytest.mark.parametrize("eps", [0.01, 1.0, 5.0])
@pytest.mark.parametrize("q", [Constant(2.0), PolyTempered(3.0),
                               ExpTempered(0.0, 1.0), ExpTempered(2.0, 0.5),
                               Relativistic(1, 1.2)],
                         ids=["constant", "poly3", "exp", "exp-peak3",
                              "relativistic"])
def test_bound_is_the_sup_of_q(q, eps):
    s = np.geomspace(eps, 1e4, 200_001)
    top = float(q(s).max())
    bound = montecarlo._bound(q, eps)
    assert top <= bound * (1.0 + 1e-12)
    assert bound == pytest.approx(top, rel=1e-7)
    # a cut takes its base's Q, which bounds it on either side of s0
    cut = Truncated(2.0, q)
    assert montecarlo._bound(cut, eps) == bound
    assert float(cut(s).max()) <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize("q", [Custom(lambda s: s / (1.0 + s), label="rising"),
                               PolyTempered(-0.5)], ids=["custom", "poly-m<0"])
def test_a_rising_profile_raises(q):
    cfg = SamplerConfig(_pm_model(q), t=0.5, eps=0.1, mode="drop", count=100,
                        seed=1)
    with pytest.raises(NumericError, match=r"exceeds Q = .* at eps = 0\.1"):
        sample_many(cfg)


def test_a_kept_radius_that_overflows_raises():
    cfg = SamplerConfig(stable_model(0.02), t=0.5, eps=1.0, mode="drop",
                        count=100_000, seed=1)
    with pytest.raises(NumericError,
                       match=r"overflows at alpha = 0\.02, eps = 1\.0"):
        sample_many(cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model", [exp_model(0.02), poly_model(3.0, 0.02)],
                         ids=["exp", "poly3"])
def test_a_rejected_radius_that_overflows_adds_nothing(model):
    # u = 0.5 gives |v| = 2^-53, whose radius 2^(53 / 0.02) overflows; q
    # is 0 there, so the proposal is rejected and adds an exact 0, while
    # u = 0.9999 proposes R = 0.9998^-50 ~ 1.01, kept at an accept of 0
    q = model.profile
    u = np.array([[0.5, 0.0], [0.9999, 0.0]])
    r = montecarlo._radii(u, q, montecarlo._bound(q, 1.0), 1.0, 0.02)
    assert r[0] == 0.0 and np.isfinite(r[1]) and r[1] > 1.0
    x = sample_many(SamplerConfig(model, t=0.5, eps=1.0, mode="drop",
                                  count=100_000, seed=1))
    assert np.all(np.isfinite(x))

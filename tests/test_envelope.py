"""Envelope formula evaluation, regimes, and hypothesis checks."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from templevy import envelope
from templevy.envelope import (
    EnvelopeSpec,
    evaluate,
    hypothesis_check,
    in_cone,
    product_form,
    relativistic_lower_profile,
    spec_from_dict,
    spec_to_dict,
)
from templevy.errors import DomainError, RegimeError
from templevy.model import (LevyModel, SpectralMeasure, exp_model, poly_model,
                            relativistic_model, stable_model)
from templevy.profiles import Constant, ExpTempered, PolyTempered


def _upper_small(profile, **kw):
    base = dict(side="upper", regime="small_t", d=1, alpha=1.0, gamma=1.0)
    base.update(kw)
    return EnvelopeSpec(profile=profile, **base)


def test_upper_small_t_direct_value():
    # min(t^{-1}, t |x|^{-2} qbar(|x|)) at t = 0.25, x = 4, qbar = (1+s)^{-2}
    spec = _upper_small(PolyTempered(2.0))
    val = evaluate(spec, 0.25, np.array([4.0]))
    assert val == pytest.approx(min(4.0, 0.25 * 4.0 ** -2 * 5.0 ** -2),
                                rel=1e-12)
    assert val == pytest.approx(6.25e-4, rel=1e-12)


def test_upper_small_t_origin():
    spec = _upper_small(Constant(1.0), alpha=0.5)
    assert evaluate(spec, 0.5, np.zeros(1)) == pytest.approx(
        0.5 ** -2.0)


def test_lower_small_t_direct_value():
    # d=1, alpha=0.5, gamma=1, q=(1+s)^{-3}, t=0.5, x=2
    spec = EnvelopeSpec(side="lower", regime="small_t", d=1, alpha=0.5,
                        gamma=1.0, profile=PolyTempered(3.0),
                        directions=((1.0,), (-1.0,)))
    val = evaluate(spec, 0.5, np.array([2.0]))
    assert val == pytest.approx(min(4.0, 0.5 * 2.0 ** -1.5 * 3.0 ** -3),
                                rel=1e-12)
    assert val == pytest.approx(6.5462e-3, rel=1e-3)


def test_lower_large_t_direct_value():
    # d=1, gamma=1, beta=2, alpha=1, q=e^{-2s}: t=4, x=3
    spec = EnvelopeSpec(side="lower", regime="large_t", d=1, alpha=1.0,
                        gamma=1.0, profile=ExpTempered(a=0.0, c1=2.0),
                        beta=2.0, directions=((1.0,), (-1.0,)))
    val = evaluate(spec, 4.0, np.array([3.0]))
    assert val == pytest.approx(min(0.5, 4.0 * 3.0 ** -2 * math.exp(-6.0)),
                                rel=1e-12)
    assert val == pytest.approx(1.102e-3, rel=1e-3)


def test_upper_large_t_origin():
    spec = EnvelopeSpec(side="upper", regime="large_t", d=1, alpha=1.0,
                        gamma=1.0, profile=PolyTempered(3.0), beta=2.0)
    assert evaluate(spec, 9.0, np.zeros(1)) == pytest.approx(
        9.0 ** -0.5)


def test_regime_errors():
    up = _upper_small(PolyTempered(2.0))
    with pytest.raises(RegimeError):
        evaluate(up, 2.0, np.array([1.0]))
    large = EnvelopeSpec(side="upper", regime="large_t", d=1, alpha=1.0,
                         gamma=1.0, profile=PolyTempered(3.0), beta=2.0)
    with pytest.raises(RegimeError):
        evaluate(large, 0.5, np.array([1.0]))


def test_spec_invariants():
    with pytest.raises(DomainError):
        EnvelopeSpec(side="upper", regime="small_t", d=1, alpha=1.0,
                     gamma=0.5, profile=Constant(1.0))   # gamma < 1
    with pytest.raises(DomainError):
        EnvelopeSpec(side="upper", regime="large_t", d=1, alpha=1.0,
                     gamma=1.0, profile=Constant(1.0), beta=0.5)  # beta < alpha


@pytest.mark.parametrize("alpha", [0.0, -1.0, 2.0, 2.5, math.nan])
def test_spec_rejects_alpha_outside_0_2(alpha):
    doc = spec_to_dict(_upper_small(PolyTempered(3.0)))
    with pytest.raises(DomainError, match=r"alpha must lie in \(0, 2\)"):
        _upper_small(PolyTempered(3.0), alpha=alpha)
    with pytest.raises(DomainError, match=r"alpha must lie in \(0, 2\)"):
        spec_from_dict({**doc, "alpha": alpha})


def test_lower_outside_cone_not_applicable():
    spec = EnvelopeSpec(side="lower", regime="small_t", d=2, alpha=1.0,
                        gamma=1.0, profile=PolyTempered(3.0),
                        directions=((1.0, 0.0), (-1.0, 0.0)))
    assert in_cone(spec, np.array([3.0, 0.0]))
    assert not in_cone(spec, np.array([1.0, 1.0]))
    assert math.isnan(evaluate(spec, 0.5, np.array([1.0, 1.0])))


def test_envelope_monotone_in_x():
    spec = _upper_small(PolyTempered(2.0))
    radii = np.linspace(0.1, 15.0, 50)
    vals = [evaluate(spec, 0.3, np.array([r])) for r in radii]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_min_vs_product_form_comparable():
    spec = _upper_small(PolyTempered(3.0))
    ratios = []
    for t in (0.05, 0.2, 0.8):
        for r in np.logspace(-1, 1.3, 12):
            x = np.array([r])
            ratios.append(evaluate(spec, t, x) / product_form(spec, t, x))
    assert 0.0 < min(ratios) and max(ratios) / min(ratios) < 50.0


def test_hypothesis_check_poly_upper_passes():
    m = poly_model(3.0, 1.0)
    rep = hypothesis_check(m, _upper_small(PolyTempered(3.0)))
    assert rep["pass"]


def test_hypothesis_check_rejects_exponential_upper():
    # exponentially tempered profiles fail the doubling requirement of the
    # upper envelopes; polynomial replacements must be used instead
    m = exp_model(1.0)
    rep = hypothesis_check(m, _upper_small(ExpTempered(a=0.0, c1=1.0)))
    assert not rep["pass"]
    assert not rep["checks"]["profile_doubling"]["pass"]


def test_hypothesis_check_constant_beta2_fails_integrability():
    # q = const with beta > alpha: int_1^inf s^{beta-alpha-1} q(s) ds diverges
    m = stable_model(1.0)
    spec = EnvelopeSpec(side="upper", regime="large_t", d=1, alpha=1.0,
                        gamma=1.0, profile=Constant(1.0), beta=2.0)
    rep = hypothesis_check(m, spec)
    assert not rep["checks"]["beta_integrability"]["pass"]


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.5, 1.2), (1.5, 2.0)])
def test_beta_integrability_fails_a_constant_profile_by_rule(monkeypatch,
                                                             alpha, beta):
    # int_1^inf s^(beta - alpha - 1) ds diverges for every beta >= alpha,
    # beta = alpha included: no quadrature is needed to say so
    def no_quad(*args, **kwargs):
        raise AssertionError("quad called")

    monkeypatch.setattr(envelope, "quad", no_quad)
    spec = EnvelopeSpec(side="upper", regime="large_t", d=1, alpha=alpha,
                        gamma=1.0, profile=Constant(1.0), beta=beta)
    check = envelope._check_beta_integrability(stable_model(alpha), spec)
    assert not check["pass"]
    assert "constant profile" in check["reason"]


@pytest.mark.parametrize("profile", [
    PolyTempered(3.0), PolyTempered(1.5), PolyTempered(1.2),
    ExpTempered(0.5, 2.0)], ids=["poly3", "poly1.5", "poly1.2", "exp"])
def test_beta_integrability_passes_convergent_tails(profile):
    # int_1^inf (1+s)^-m ds converges for every m > 1
    spec = EnvelopeSpec(side="upper", regime="large_t", d=1, alpha=1.0,
                        gamma=1.0, profile=profile, beta=2.0)
    check = envelope._check_beta_integrability(exp_model(1.0), spec)
    assert check["pass"]
    assert check["tail_index"] == 2.0 and check["beta"] == 2.0


def test_beta_integrability_fails_a_divergent_power_tail():
    # (1+s)^-1 at beta - alpha = 1: the integral grows like log s
    spec = EnvelopeSpec(side="upper", regime="large_t", d=1, alpha=1.0,
                        gamma=1.0, profile=PolyTempered(1.0), beta=2.0)
    assert not envelope._check_beta_integrability(exp_model(1.0),
                                                   spec)["pass"]


def test_hypothesis_check_poly15_large_t_upper_passes():
    spec = EnvelopeSpec(side="upper", regime="large_t", d=1, alpha=1.0,
                        gamma=1.0, profile=PolyTempered(1.5), beta=2.0)
    rep = hypothesis_check(poly_model(1.5, 1.0), spec)
    assert rep["checks"]["beta_integrability"]["pass"]
    assert rep["pass"]


@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("model", [exp_model(1.0), poly_model(3.0, 1.0)],
                         ids=["exp1", "poly3"])
def test_phi_growth_fails_where_the_ratio_falls_to_zero(model, beta):
    # a finite second moment gives Phi ~ |xi|^2 near 0, so Phi / |xi|^beta
    # ~ |xi|^(2 - beta): positive on every scan, 0 in the limit for beta < 2
    check = envelope._check_phi_growth(model, beta)
    assert check["inf_ratio"] > 0.0
    assert check["pass"] == (beta == 2.0)


def test_hypothesis_check_rejects_phi_growth_below_beta():
    spec = EnvelopeSpec(side="upper", regime="large_t", d=1, alpha=1.0,
                        gamma=1.0, profile=PolyTempered(3.0), beta=1.5)
    rep = hypothesis_check(exp_model(1.0), spec)
    assert rep["checks"]["beta_integrability"]["pass"]
    assert not rep["checks"]["phi_beta_growth"]["pass"]
    assert not rep["pass"]


def test_hypothesis_check_rejects_undominated_profile():
    # Cauchy's q = 1 over (1+s)^-3 is (1+s)^3: finite on every finite scan
    # range, but it keeps growing when the range is doubled
    rep = hypothesis_check(stable_model(1.0), _upper_small(PolyTempered(3.0)))
    check = rep["checks"]["profile_dominates"]
    assert not check["pass"]
    assert check["sup_ratio"] > 1e5
    # (1+s)^0.01 diverges too, though it grows by under 1 % over the
    # extension of the scan range
    rep = hypothesis_check(poly_model(2.99, 1.0),
                           _upper_small(PolyTempered(3.0)))
    assert not rep["checks"]["profile_dominates"]["pass"]
    for m in (poly_model(3.0, 1.0), exp_model(1.0), exp_model(1.5)):
        rep = hypothesis_check(m, _upper_small(PolyTempered(3.0)))
        assert rep["checks"]["profile_dominates"]["pass"]


@pytest.mark.parametrize("model, beta, ok", [
    (exp_model(1.0), 1.2, False), (exp_model(1.0), 1.5, False),
    (exp_model(1.0), 2.0, True), (poly_model(0.5, 1.0), 1.5, True),
    (poly_model(0.5, 1.0), 2.0, False)],
    ids=["exp-1.2", "exp-1.5", "exp-2", "poly0.5-1.5", "poly0.5-2"])
def test_phi_two_sided_reads_beta(model, beta, ok):
    # Phi ~ xi^2 near 0 for exp_model(1): Phi >= c |xi|^beta fails inward
    # for beta < 2.  nu ~ s^-2.5 at infinity under poly_model(0.5, 1) gives
    # Phi ~ |xi|^1.5, so Phi <= c |xi|^2 fails inward instead.
    spec = EnvelopeSpec(side="lower", regime="large_t", d=1, alpha=1.0,
                        gamma=1.0, profile=ExpTempered(a=0.0, c1=2.0),
                        beta=beta, directions=((1.0,), (-1.0,)))
    check = hypothesis_check(model, spec)["checks"]["phi_two_sided_beta"]
    assert check["pass"] is ok


def test_hypothesis_check_rejects_tail_exponent_below_alpha():
    # nu(B(0,r)^c) ~ r^-1.5 for alpha = 1.5, so r^1.2 times it grows like
    # r^-0.3 as r -> 0: finite on [1e-2, 1] but unbounded below
    spec = EnvelopeSpec(side="lower", regime="large_t", d=1, alpha=1.0,
                        gamma=1.0, profile=ExpTempered(a=0.0, c1=1.0),
                        beta=1.2, directions=((1.0,), (-1.0,)))
    checks = hypothesis_check(exp_model(1.5), spec)["checks"]
    assert checks["tail_upper"]["pass"]
    assert not checks["tail_upper_beta"]["pass"]


@pytest.mark.parametrize("exponent, ok", [
    (0.9, False), (0.95, False), (1.0, True), (1.2, True)])
def test_tail_upper_fails_below_alpha(exponent, ok):
    # nu(B(0,r)^c) ~ 2 r^-1 for poly_model(3, 1): r^0.9 times it grows
    # without bound as r -> 0, though only to ~3 on the scan range
    assert envelope._check_tail_upper(poly_model(3.0, 1.0),
                                      exponent)["pass"] is ok


def test_hypothesis_check_tail_converging_slowly_passes():
    # at alpha = 0.5, r^alpha nu(B(0,r)^c) still rises by ~2 % per node at
    # r = 1e-2, but the rises shrink: it closes in on a finite limit
    m = relativistic_model(0.5)
    spec = EnvelopeSpec(side="lower", regime="small_t", d=1, alpha=0.5,
                        gamma=1.0, profile=relativistic_lower_profile(1, 0.5),
                        directions=((1.0,), (-1.0,)))
    assert hypothesis_check(m, spec)["checks"]["tail_upper"]["pass"]


def test_hypothesis_check_relativistic_lower():
    m = relativistic_model(1.0)
    spec = EnvelopeSpec(side="lower", regime="small_t", d=1, alpha=1.0,
                        gamma=1.0, profile=relativistic_lower_profile(1, 1.0),
                        directions=((1.0,), (-1.0,)))
    rep = hypothesis_check(m, spec)
    assert rep["pass"]


def test_hypothesis_check_lower_on_a_density_measure():
    # a lower spec without directions probes a density measure along the
    # directions of the harness scan
    sp = SpectralMeasure(d=2, density=lambda ang: np.ones_like(ang))
    m = LevyModel(d=2, alpha=1.0, spectral=sp, profile=PolyTempered(3.0))
    spec = EnvelopeSpec(side="lower", regime="small_t", d=2, alpha=1.0,
                        gamma=2.0, profile=PolyTempered(3.0))
    ball = hypothesis_check(m, spec)["checks"]["ball_lower"]
    assert ball["pass"] and 0.0 < ball["inf_ratio"] < math.inf


def _uniform_circle_model():
    sp = SpectralMeasure(d=2, density=lambda ang: np.ones_like(ang))
    return LevyModel(d=2, alpha=1.0, spectral=sp, profile=PolyTempered(3.0))


@pytest.mark.parametrize("model, gamma, ok", [
    (stable_model(1.0, d=2), 1.0, True),
    (stable_model(1.0, d=2), 1.2, False),   # atoms: mu(B) does not shrink
    (_uniform_circle_model(), 1.0, True),
    (_uniform_circle_model(), 2.0, True),
], ids=["atoms-1", "atoms-1.2", "circle-1", "circle-2"])
def test_gamma_measure_passes_iff_gamma_is_at_most_the_measures(model,
                                                                gamma, ok):
    spec = _upper_small(PolyTempered(3.0), d=2, gamma=gamma)
    check = hypothesis_check(model, spec)["checks"]["gamma_measure"]
    assert check == {"pass": ok, "gamma": model.spectral.gamma}


@pytest.mark.parametrize("model, gamma, ok", [
    (stable_model(1.0, d=2), 1.0, True),
    (stable_model(1.0, d=2), 2.0, True),
    # nu(B(e1, r)) / r = 0.383, 0.040, 3.9e-3 at r = 0.5, 0.1, 0.01:
    # on a density the ball mass shrinks like r^2, not r
    # (gamma = 2 passes: test_hypothesis_check_lower_on_a_density_measure)
    (_uniform_circle_model(), 1.0, False),
], ids=["atoms-1", "atoms-2", "circle-1"])
def test_ball_lower_passes_iff_gamma_is_at_least_the_measures(model,
                                                              gamma, ok):
    spec = EnvelopeSpec(side="lower", regime="small_t", d=2, alpha=1.0,
                        gamma=gamma, profile=PolyTempered(3.0))
    ball = hypothesis_check(model, spec)["checks"]["ball_lower"]
    assert ball["pass"] is ok and 0.0 < ball["inf_ratio"] < math.inf


def test_relativistic_lower_profile_shape():
    q = relativistic_lower_profile(2, 1.0)
    s = np.array([3.0])
    assert q(s)[0] == pytest.approx((1 + 3.0) ** 1.0 * math.exp(-6.0),
                                    rel=1e-12)


def test_spec_serialization_roundtrip():
    spec = EnvelopeSpec(side="lower", regime="large_t", d=1, alpha=1.2,
                        gamma=1.0, profile=ExpTempered(a=0.0, c1=2.0),
                        beta=2.0, directions=((1.0,), (-1.0,)))
    back = spec_from_dict(spec_to_dict(spec))
    x = np.array([2.0])
    assert evaluate(back, 3.0, x) == pytest.approx(evaluate(spec, 3.0, x),
                                                   rel=1e-14)


def test_spec_from_dict_rejects_malformed_directions():
    doc = spec_to_dict(EnvelopeSpec(side="lower", regime="small_t", d=1,
                                    alpha=1.0, gamma=1.0,
                                    profile=PolyTempered(3.0),
                                    directions=((1.0,), (-1.0,))))
    for dirs, match in (([], "at least one"), ([1.0, -1.0], "coordinates"),
                        ([[2.0], [-2.0]], "unit vectors")):
        with pytest.raises(DomainError, match=match):
            spec_from_dict({**doc, "directions": dirs})


def _lower_small_d1(**kw):
    return EnvelopeSpec(side="lower", regime="small_t", d=1, alpha=1.0,
                        gamma=1.0, profile=PolyTempered(3.0), **kw)


def test_spec_rejects_empty_directions():
    with pytest.raises(DomainError, match="A0 .* at least one direction"):
        _lower_small_d1(directions=())


def test_spec_rejects_directions_without_d_coordinates():
    with pytest.raises(DomainError, match="d = 1 coordinates"):
        _lower_small_d1(directions=((1.0, 0.0), (-1.0, 0.0)))
    with pytest.raises(DomainError, match="d = 2 coordinates"):
        EnvelopeSpec(side="lower", regime="small_t", d=2, alpha=1.0,
                     gamma=1.0, profile=PolyTempered(3.0),
                     directions=((1.0, 0.0), (-1.0,)))


def test_spec_rejects_directions_off_the_sphere():
    # at norm 2 every point but the origin would fall outside the cone
    for dirs in (((2.0,), (-2.0,)), ((1.0,), (math.nan,))):
        with pytest.raises(DomainError, match="unit vectors"):
            _lower_small_d1(directions=dirs)


def test_spec_stores_directions_as_float_tuples():
    spec = _lower_small_d1(directions=np.array([[1], [-1]]))
    assert spec.directions == ((1.0,), (-1.0,))


@pytest.mark.parametrize("fn", [
    lambda spec, x: evaluate(spec, 0.5, x),
    in_cone,
    lambda spec, x: product_form(spec, 0.5, x),
], ids=["evaluate", "in_cone", "product_form"])
def test_points_need_d_coordinates(fn):
    # a d = 1 spec once read (3, 4) as |x| = 5
    spec = _lower_small_d1(directions=((1.0,), (-1.0,)))
    for x in (np.array([3.0, 4.0]), np.ones((4, 2)), np.ones((2, 2, 1)),
              np.float64(5.0), [[1.0], [2.0, 3.0]]):
        with pytest.raises(DomainError, match="d = 1 coordinates"):
            fn(spec, x)


def test_points_must_not_be_nan():
    # a nan point once read as the origin: the peak t^(-d/a) of an upper
    spec = _upper_small(PolyTempered(3.0))
    with pytest.raises(DomainError, match="nan"):
        evaluate(spec, 0.5, np.array([[1.0], [math.nan]]))


def test_one_point_gives_python_scalars():
    spec = _lower_small_d1(directions=((1.0,),))
    assert type(evaluate(spec, 0.5, np.array([2.0]))) is float
    assert type(product_form(spec, 0.5, np.array([2.0]))) is float
    assert in_cone(spec, np.array([2.0])) is True
    assert in_cone(spec, np.array([-2.0])) is False
    vals = evaluate(spec, 0.5, np.array([[0.0], [2.0], [-2.0]]))
    assert vals.shape == (3,) and math.isnan(vals[2])
    assert vals[0] == 0.5 ** -1.0


def _specs(d: int, angles):
    dirs = (tuple((float(c),) for c in np.sign(np.cos(angles))) if d == 1
            else tuple((math.cos(a), math.sin(a)) for a in angles))
    out = []
    for side in ("upper", "lower"):
        for regime, beta in (("small_t", None), ("large_t", 2.0)):
            out.append(EnvelopeSpec(
                side=side, regime=regime, d=d, alpha=1.3, gamma=1.0,
                profile=ExpTempered(a=0.5, c1=2.0), beta=beta,
                directions=dirs if side == "lower" else None))
    return out


@settings(derandomize=True, deadline=None, max_examples=40)
@given(d=st.sampled_from([1, 2]),
       angles=st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=3),
       log_r=st.lists(st.floats(-3.0, 1.7), min_size=1, max_size=6),
       others=st.lists(st.floats(-30.0, 30.0), min_size=2, max_size=8),
       t_small=st.floats(0.01, 1.0), t_large=st.floats(1.01, 100.0))
def test_point_arrays_match_per_point_calls(d, angles, log_r, others,
                                           t_small, t_large):
    # the origin, points on the rays of A0 and points anywhere (off the
    # cone for most lower specs)
    specs = _specs(d, angles)
    rays = np.asarray(specs[-1].directions)
    on = (10.0 ** np.asarray(log_r))[:, None, None] * rays[None, :, :]
    pts = np.vstack([np.zeros((1, d)), on.reshape(-1, d),
                     np.asarray(others[:len(others) // d * d]).reshape(-1, d)])
    for spec in specs:
        t = t_small if spec.regime == "small_t" else t_large
        vals = evaluate(spec, t, pts)
        one = np.array([evaluate(spec, t, x) for x in pts])
        np.testing.assert_allclose(vals, one, rtol=1e-15, atol=0.0)
        inside = in_cone(spec, pts)
        np.testing.assert_array_equal(inside, [in_cone(spec, x) for x in pts])
        np.testing.assert_array_equal(np.isnan(vals), ~inside)
        np.testing.assert_array_equal(np.isnan(one), ~inside)
        np.testing.assert_allclose(
            product_form(spec, t, pts),
            [product_form(spec, t, x) for x in pts], rtol=1e-15, atol=0.0)

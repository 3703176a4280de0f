"""Characteristic exponent: closed forms, quadrature, growth checks."""
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from templevy import charexp
from templevy.charexp import (
    check_lower_growth,
    phi,
    phi_on_points,
    psi_quad,
    psi_vector,
    stable_constant,
)
from templevy.decomp import default_eps, split
from templevy.density import invert
from templevy.errors import DegeneracyError, DomainError, NumericError
from templevy.model import (
    LevyModel,
    SpectralMeasure,
    cauchy_model,
    exp_model,
    poly_model,
    radial_tail_mass,
    relativistic_model,
    stable_model,
    truncated_second_moment,
)
from templevy.profiles import (Constant, Custom, ExpTempered, PolyTempered,
                               Relativistic, Truncated)


def _c_alpha_gamma(alpha: float) -> float:
    # int_0^inf (1 - cos v) v^{-1-a} dv = Gamma(2-a) cos(pi a/2) / (a (1-a))
    if abs(alpha - 1.0) < 1e-12:
        return math.pi / 2.0
    return (gamma_fn(2.0 - alpha) * math.cos(math.pi * alpha / 2.0)
            / (alpha * (1.0 - alpha)))


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 1.0, 1.2, 1.5, 1.9, 1.97,
                                   1.98, 1.99])
def test_stable_constant_gamma_identity(alpha):
    assert stable_constant(alpha) == pytest.approx(
        _c_alpha_gamma(alpha), rel=1e-12)


@pytest.mark.parametrize("u", [0.5, 10.0, 1e3])
def test_psi_quad_stable_near_two(u):
    # q = 1 makes psi the stable exponent c_alpha u^alpha, also as alpha -> 2
    assert psi_quad(Constant(1.0), 1.98, u) == pytest.approx(
        stable_constant(1.98) * u ** 1.98, rel=1e-10)


@pytest.mark.parametrize("u", [1e6, 1e8])
def test_psi_quad_small_scale_limit(u):
    # psi_q(u) -> q(0+) c_alpha u^alpha as u -> inf; for (1+s)^-3 at
    # alpha = 1 the deficit is about 3 log(u) / (c_1 u) < 1e-4
    ratio = psi_quad(PolyTempered(3.0), 1.0, u) / (stable_constant(1.0) * u)
    assert ratio == pytest.approx(1.0, abs=1e-4)


def test_phi_zero():
    for m in (cauchy_model(), poly_model(3.0, 1.0), relativistic_model(1.0)):
        assert phi(m, np.zeros(m.d)).value == pytest.approx(0.0, abs=1e-14)


def test_phi_cauchy_closed_form():
    # two unit atoms, q = 1, alpha = 1: Phi(xi) = pi |xi|
    ev = phi(cauchy_model(), np.array([3.0]))
    assert ev.value == pytest.approx(3.0 * math.pi, rel=1e-8)


def test_phi_symmetric():
    m = poly_model(2.0, 1.3)
    xi = np.array([2.7])
    assert phi(m, xi).value == pytest.approx(phi(m, -xi).value, rel=1e-10)


def test_phi_doubling_inequality():
    m = exp_model(1.5)
    for u in np.logspace(-2, 2, 12):
        xi = np.array([u])
        assert phi(m, 2 * xi).value <= 4.0 * phi(m, xi).value * (1 + 1e-9)


def test_phi_rejects_unknown_method():
    with pytest.raises(DomainError):
        phi(cauchy_model(), 1.0, method="bogus")


def test_phi_on_points_shape_d1():
    m = poly_model(3.0, 1.0)
    assert phi_on_points(m, 2.0).shape == ()
    assert phi_on_points(m, np.array([2.0])).shape == (1,)
    xi = np.linspace(0.5, 4.0, 5)
    vals = phi_on_points(m, xi)
    assert vals.shape == (5,)
    np.testing.assert_array_equal(phi_on_points(m, xi[:, None]), vals)
    assert float(phi_on_points(m, np.array([2.0]))[0]) == float(
        phi_on_points(m, 2.0))


def _uniform_circle(alpha):
    """The uniform circle under q = 1, and Phi at xi in closed form."""
    sp = SpectralMeasure(d=2, density=lambda ang: np.ones_like(ang))
    m = LevyModel(d=2, alpha=alpha, spectral=sp, profile=Constant(1.0))
    ang_int = (2.0 * math.sqrt(math.pi) * gamma_fn((alpha + 1.0) / 2.0)
               / gamma_fn(alpha / 2.0 + 1.0))
    c = _c_alpha_gamma(alpha) * ang_int
    return m, lambda xi: c * np.linalg.norm(xi, axis=-1) ** alpha


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_phi_uniform_circle_density(alpha):
    # g = 1 on the circle, q = 1: Phi(xi) = c_alpha |xi|^alpha
    # * int_0^{2 pi} |cos a|^alpha da
    m, oracle = _uniform_circle(alpha)
    xi = np.array([[2.0, 0.0], [0.3, -0.4], [-3.0, 7.0]])
    np.testing.assert_allclose(phi_on_points(m, xi), oracle(xi), rtol=1e-3)


#: the kink of |cos a|^alpha sits on a node at xi = (2, 0) and half a
#: node off it at the second xi, where the two every-other rules agree
_KINK_XI = ([2.0, 0.0], [math.cos(math.pi / 512), math.sin(math.pi / 512)])


def test_phi_error_covers_the_angular_rule():
    m, oracle = _uniform_circle(0.5)
    for xi in _KINK_XI:
        ev = phi(m, xi, method="quadrature")
        assert abs(ev.value - oracle(xi)) <= ev.error


def test_phi_on_a_density_measure_takes_closed_forms(quad_calls):
    # every pair's psi has a closed form: no quadrature, and the error is
    # the angular rule's
    m, oracle = _uniform_circle(0.5)
    for xi in _KINK_XI:
        ev = phi(m, xi)
        assert ev.method == "closed-form"
        assert abs(ev.value - oracle(xi)) <= ev.error
    assert quad_calls == []


def test_cut_exponent_below_full_relativistic():
    # the relativistic closed form holds for the whole measure only: the
    # cut exponent leaves out the jumps beyond eps and is strictly smaller
    m = relativistic_model(1.0)
    xi = np.array([0.5, 2.0, 10.0])
    cut = phi_on_points(split(m, 0.5).small, xi)
    full = phi_on_points(m, xi)
    assert np.all(cut < full)
    np.testing.assert_allclose(full, np.sqrt(xi ** 2 + 1.0) - 1.0,
                               rtol=1e-12)


def _exp_oracle(c: float, alpha: float, u: float) -> float:
    """psi of a = 0 pure exponential tempering e^(-c s):
    Gamma(-alpha) c^alpha (1 - rho^alpha cos(alpha theta)), with x = u / c,
    rho = sqrt(1 + x^2) and theta = atan(x), written without cancellation
    for small u (alpha != 1)."""
    x = u / c
    th = math.atan(x)
    return gamma_fn(-alpha) * c ** alpha * (
        2.0 * math.sin(0.5 * alpha * th) ** 2
        - math.expm1(0.5 * alpha * math.log1p(x * x)) * math.cos(alpha * th))


def test_psi_exponential_closed_form():
    alpha = 0.5
    for c, u in ((1.0, 0.3), (1.0, 1.0), (1.0, 5.0), (1.0, 40.0),
                 (0.25, 1e-6), (0.8, 1e-6)):
        # psi is about 1e-12 at u = 1e-6: no absolute slack
        assert psi_quad(ExpTempered(a=0.0, c1=c), alpha, u) == pytest.approx(
            _exp_oracle(c, alpha, u), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("u", [773.1, 999.0])
def test_psi_vector_exponential_closed_form_off_nodes(u):
    # two points where a table of psi_quad nodes was 1.5e-4 off
    assert psi_vector(ExpTempered(c1=1.25), 0.3, [u])[0] == pytest.approx(
        _exp_oracle(1.25, 0.3, u), rel=1e-10, abs=0.0)


def test_phi_quadrature_error_covers_its_miss():
    # QAWF misses psi at u = 715 by 1.2e-4 relative; the error phi
    # reports is QUADPACK's own estimate, which covers it
    ev = phi(exp_model(0.3, 0.0, 1.25), [715.0], method="quadrature")
    assert ev.error >= abs(ev.value - 2.0 * _exp_oracle(1.25, 0.3, 715.0))


def test_psi_finite_cutoff_per_period_oracle():
    # direct summation over half-periods of the oscillation, with
    # 1 - cos(us) as 2 sin^2(us/2), free of cancellation near s = 0
    for q, alpha, u, upper in (
            (PolyTempered(1.0), 1.2, 0.7, 2.0),
            (PolyTempered(1.0), 1.2, 15.0, 0.1),
            (PolyTempered(1.0), 1.2, 40.0, 3.0),
            (PolyTempered(1.0), 1.2, 300.0, 1.0),
            (PolyTempered(3.0), 0.3, 2054.0, 0.1),
            (ExpTempered(c1=1.0), 1.0, 226.0, 1.0)):
        f = lambda s: (2.0 * math.sin(u * s / 2.0) ** 2 * s ** (-1 - alpha)
                       * float(q(s)))
        edges = [0.0]
        k = 1
        while edges[-1] < upper:
            edges.append(min(k * math.pi / u, upper))
            k += 1
        oracle = sum(quad(f, a, b, epsabs=1e-15, epsrel=1e-13)[0]
                     for a, b in zip(edges, edges[1:]))
        assert psi_quad(Truncated(upper, q), alpha, u) == pytest.approx(
            oracle, rel=1e-8)


def test_psi_long_cutoff_against_full_measure():
    # psi cut at upper = psi - W(upper) + u^alpha int_V^inf cos(v) wtil(v) dv
    # with V = u upper = 1e7 and wtil(v) = v^(-1-alpha) q(v / u)
    q, alpha, u, upper = PolyTempered(3.0), 1.9, 1e3, 1e4
    wtil = lambda v: v ** (-1.0 - alpha) * float(q(v / u))
    beyond, _ = quad(wtil, u * upper, np.inf, weight="cos", wvar=1.0,
                     epsabs=1e-13, limlst=400, limit=400)
    oracle = (psi_quad(q, alpha, u) - radial_tail_mass(q, alpha, upper)
              + u ** alpha * beyond)
    assert psi_quad(Truncated(upper, q), alpha, u) == pytest.approx(
        oracle, rel=1e-12)


def test_psi_quad_raises_where_qawf_overflows():
    # QAWF returns the largest float, with an error of 4e-14, for this
    # rising-then-tempered profile; the sweep has the value (mpmath:
    # 21.975475058504653)
    q, alpha, u = ExpTempered(a=3.0, c1=0.1), 0.7, 0.015399265260594912
    with pytest.raises(NumericError, match="did not converge"):
        psi_quad(q, alpha, u)
    assert psi_vector(q, alpha, [u])[0] == pytest.approx(
        21.975475058504653, rel=1e-10)


def test_psi_cut_beyond_reliable_range_raises():
    with pytest.raises(NumericError, match="exceeds 1e\\+08"):
        psi_quad(Truncated(1e4, PolyTempered(3.0)), 1.0, 1e5)


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty psi-table cache for one test (the process cache is kept)."""
    cache = lru_cache(maxsize=None)(charexp.PsiTable)
    monkeypatch.setattr(charexp, "_psi_table", cache)
    return cache


@pytest.fixture
def quad_calls(monkeypatch):
    """The arguments of every psi_quad call charexp makes in one test."""
    calls = []
    quad = charexp.psi_quad
    monkeypatch.setattr(charexp, "psi_quad",
                        lambda *a, **kw: calls.append(a) or quad(*a, **kw))
    return calls


@pytest.mark.parametrize("q, alpha", [
    (PolyTempered(3.0), 1.0),
    (ExpTempered(c1=1.0), 1.5),
    (Truncated(0.5, PolyTempered(3.0)), 1.0),
], ids=["poly3", "exp1", "poly3-cut"])
def test_psi_vector_matches_scalar(fresh_tables, q, alpha):
    psi_vector(q, alpha, np.logspace(-2, 1, 4))
    # the same table serves u up to 1e5
    u = np.logspace(-2, 5, 15)
    vec = psi_vector(q, alpha, u)
    assert fresh_tables.cache_info().misses == 1
    for ui, vi in zip(u, vec):
        assert vi == pytest.approx(psi_quad(q, alpha, float(ui)), rel=1e-6)


def test_custom_cut_takes_the_cut_rule(fresh_tables, quad_calls):
    # a cut of a Custom base takes the Gauss rule up to the seam; psi_quad
    # gives its uncut base's psi once per node past it, and nowhere else
    base = Custom(lambda s: (1.0 + s) ** -3.0)
    q, alpha = Truncated(0.5, base), 1.0
    vals = psi_vector(q, alpha, [1e2, 1e4])
    table = fresh_tables(q, alpha)
    assert table.filled_by == "cut rule"
    assert len(table.log_u) == 16 * 48 + 1
    nodes = np.exp(table.log_u)
    past = nodes[nodes * q.s0 > table.rule_v]
    assert [c[:2] for c in quad_calls] == [(base, alpha)] * len(past)
    np.testing.assert_allclose([c[2] for c in quad_calls], past, rtol=1e-15)
    for u, v in zip([1e2, 1e4], vals):
        assert v == pytest.approx(psi_quad(q, alpha, u), rel=1e-8)


def test_cut_far_below_overflow_falls_back_to_quadrature():
    # at s0 = 1e-150 and alpha = 1.95, s^-alpha overflows near the rule's
    # s_min = 1e-14 s0: psi_quad fills the table
    q, alpha = Truncated(1e-150, PolyTempered(3.0)), 1.95
    table = charexp.PsiTable(q, alpha)
    assert table.filled_by == "quad"
    assert table(np.array([1.0]))[0] == pytest.approx(
        psi_quad(q, alpha, 1.0), rel=1e-10)


@pytest.mark.parametrize("model", [cauchy_model(), poly_model(3.0, 1.0),
                                   exp_model(1.0)],
                         ids=["cauchy", "poly3", "exp1"])
def test_split_cut_tables_make_no_quadrature(fresh_tables, quad_calls,
                                             model):
    # the cut profiles of verify_decomposition's nine (model, t) cases,
    # read up to u = 1e3 (their grids reach |xi| = 804)
    for t in (0.1, 0.5, 1.0):
        small = split(model, default_eps(model, t)).small
        for _, q, _ in small.pairs:
            psi_vector(q, model.alpha, np.logspace(-6, 3, 10))
            table = fresh_tables(q, model.alpha)
            assert table.filled_by == "cut rule"
            # the rule takes every node up to the seam, and none past it
            assert (charexp.CUT_RULE_V / 10.0 ** (1.0 / 48.0) < table.rule_v
                    <= charexp.CUT_RULE_V)
    assert quad_calls == []


@pytest.mark.parametrize("q, alpha", [
    (PolyTempered(3.0), 0.3),
    (Truncated(0.05, ExpTempered(c1=2.0)), 1.4),
], ids=["poly3", "exp2-cut"])
def test_table_is_the_same_however_first_read(q, alpha):
    # a table is filled once over its whole range: a first read at
    # u = 0.1 or at u = 1e5 gives the same nodes, and reading changes none
    low, high = charexp.PsiTable(q, alpha), charexp.PsiTable(q, alpha)
    low(np.array([0.1]))
    high(np.array([1e5]))
    np.testing.assert_array_equal(low.log_psi, high.log_psi)
    before = dict(vars(low))
    log_u, log_psi = low.log_u.copy(), low.log_psi.copy()
    low(np.logspace(-8, 10, 37))
    assert vars(low) == before
    assert all(vars(low)[k] is v for k, v in before.items())
    np.testing.assert_array_equal(low.log_u, log_u)
    np.testing.assert_array_equal(low.log_psi, log_psi)


def test_tables_raise_above_u_hi():
    assert psi_vector(PolyTempered(3.0), 1.0, [1e10])[0] > 0
    with pytest.raises(DomainError, match="U_HI = 1e\\+10"):
        psi_vector(PolyTempered(3.0), 1.0, [2e10])
    with pytest.raises(DomainError, match="U_HI = 1e\\+10"):
        phi_on_points(poly_model(3.0, 1.0), np.array([[1.0], [2e10]]))


def test_one_table_per_model_across_times(fresh_tables, quad_calls):
    m = poly_model(3.0, 1.0)
    for t in (0.1, 1.0, 10.0):
        invert(m, t)
    assert fresh_tables.cache_info().misses == 1
    # an uncut profile's table comes from the sweep alone
    assert quad_calls == []


@st.composite
def uncut_profiles(draw, kind):
    """(q, alpha): a built-in profile of the kind that declares its tail,
    off the closed forms."""
    alpha = draw(st.floats(0.05, 1.95))
    if kind == "poly":
        q = PolyTempered(draw(st.floats(0.5, 4.0)))
    elif kind == "exp":
        q = ExpTempered(a=draw(st.floats(0.0, 2.0)),
                        c1=draw(st.floats(0.25, 4.0)))
    else:
        q = Relativistic(draw(st.sampled_from([1, 2])),
                         draw(st.floats(0.1, 1.9)))
        assume(not charexp._closed_psi(q, alpha))
    return q, alpha


@pytest.mark.parametrize("kind", ["poly", "exp", "relativistic"])
@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_sweep_matches_psi_quad(kind, data):
    # the node u = 1e-6 * 10^(k / 48), up to 1e3, of a fresh table, within
    # psi_quad's own error estimate (and 1e-8 relative, the sweep's
    # roundoff at small alpha)
    q, alpha = data.draw(uncut_profiles(kind))
    u = charexp.U_LO * 10.0 ** (data.draw(st.integers(0, 9 * 48)) / 48)
    val = float(charexp.PsiTable(q, alpha)(np.array([u]))[0])
    ref, err = psi_quad(q, alpha, u, with_error=True)
    assert abs(val - ref) <= 1e-8 * ref + 2.0 * err


@st.composite
def cut_profiles(draw, kind):
    """(Truncated(s0, q), alpha): a built-in base q of the kind, Constant
    included, cut at s0 in [0.01, 10]."""
    if kind == "constant":
        q, alpha = Constant(draw(st.floats(0.5, 2.0))), draw(
            st.floats(0.05, 1.95))
    else:
        q, alpha = draw(uncut_profiles(kind))
    return Truncated(10.0 ** draw(st.floats(-2.0, 1.0)), q), alpha


@pytest.mark.parametrize("kind", ["constant", "poly", "exp", "relativistic"])
@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_cut_table_matches_psi_quad(kind, data):
    # a node up to u = 1e5 of a fresh cut table, or one of the five about
    # u s0 = CUT_RULE_V: the Gauss rule, the seam and the by-parts
    # branch, within the bound of test_sweep_matches_psi_quad
    q, alpha = data.draw(cut_profiles(kind))
    seam = round(48 * math.log10(charexp.CUT_RULE_V / (q.s0 * charexp.U_LO)))
    k = data.draw(st.one_of(st.integers(0, 11 * 48),
                            st.integers(-2, 2).map(lambda j: seam + j)))
    u = charexp.U_LO * 10.0 ** (min(k, 11 * 48) / 48)
    val = float(charexp.PsiTable(q, alpha)(np.array([u]))[0])
    ref, err = psi_quad(q, alpha, u, with_error=True)
    assert abs(val - ref) <= 1e-8 * ref + 2.0 * err


@pytest.mark.parametrize("alpha", [0.05, 0.5, 1.5])
def test_cut_tail_by_parts_matches_the_rule_past_the_seam(monkeypatch,
                                                          alpha):
    # on V = u s0 in (1e3, 1e4] the by-parts branch against the Gauss
    # rule taken that far; two terms of the tail are off by 2e-10 here
    for q in (Truncated(0.01, Constant(1.0)),
              Truncated(1.0, PolyTempered(3.0))):
        parts, _ = charexp._cut_psi(q, alpha)
        with monkeypatch.context() as m:
            m.setattr(charexp, "CUT_RULE_V", 1e4)
            rule, _ = charexp._cut_psi(q, alpha)
        V = np.exp(charexp._LOG_U) * q.s0
        past = (V > 1e3) & (V <= 1e4)
        np.testing.assert_allclose(parts[past], rule[past], rtol=1e-11)


def test_cut_table_past_qawo_range_against_full_measure():
    # u s0 = 1e9, where psi_quad raises: the table's node against the
    # oracle of test_psi_long_cutoff_against_full_measure, for a cut of a
    # built-in base and of a Custom one
    alpha, u, upper = 0.3, 1e8, 10.0
    for q in (PolyTempered(0.5), Custom(lambda s: (1.0 + s) ** -0.5)):
        wtil = lambda v: v ** (-1.0 - alpha) * float(q(v / u))
        beyond, _ = quad(wtil, u * upper, np.inf, weight="cos", wvar=1.0,
                         epsabs=1e-13, limlst=400, limit=400)
        oracle = (psi_quad(q, alpha, u) - radial_tail_mass(q, alpha, upper)
                  + u ** alpha * beyond)
        table = charexp.PsiTable(Truncated(upper, q), alpha)
        assert table(np.array([u]))[0] == pytest.approx(oracle, rel=1e-8)
        assert table.filled_by == "cut rule"


@pytest.mark.parametrize("u", [math.nan, -math.inf], ids=["nan", "inf"])
def test_psi_vector_rejects_non_finite(u):
    with pytest.raises(DomainError, match=f"u = {u} is not finite"):
        psi_vector(PolyTempered(3.0), 1.0, [1.0, u, 2.0])


@pytest.mark.parametrize("xi", [[math.inf], [math.nan]], ids=["inf", "nan"])
@pytest.mark.parametrize("d", [1, 2])
def test_phi_on_points_rejects_non_finite(xi, d):
    pts = np.array([[0.5] * (d - 1) + xi])
    with pytest.raises(DomainError, match="not finite"):
        phi_on_points(poly_model(3.0, 1.0, d=d), pts)


def test_relativistic_closed_form():
    m = relativistic_model(1.0)
    ev = phi(m, np.array([2.0]))
    assert ev.value == pytest.approx(math.sqrt(5.0) - 1.0, rel=1e-12)
    assert ev.method == "closed-form"


def test_relativistic_quadrature_vs_closed_form():
    m = relativistic_model(1.0)
    for u in (0.5, 2.0, 10.0, 50.0):
        byq = phi(m, np.array([u]), method="quadrature").value
        closed = math.sqrt(u * u + 1.0) - 1.0
        assert abs(byq - closed) <= 1e-6 * (1.0 + abs(closed))


def test_stable_scaling_homogeneity():
    m = stable_model(1.4)
    base = phi(m, np.array([1.3])).value
    for lam in (2.0, 4.0, 8.0):
        assert phi(m, np.array([1.3 * lam])).value == pytest.approx(
            lam ** 1.4 * base, rel=1e-8)


def test_check_lower_growth_relativistic():
    m = relativistic_model(1.0)
    c = check_lower_growth(m, exponent=1.0,
                           radii=np.logspace(0, 2, 30))
    assert c >= 0.41


def test_check_lower_growth_exp_beta2():
    m = exp_model(1.0)
    c = check_lower_growth(m, exponent=2.0,
                           radii=np.logspace(-3, 0, 25))
    assert c > 0.0


def test_check_lower_growth_degenerate():
    sp = SpectralMeasure(d=2,
                         directions=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                         weights=np.array([1.0, 1.0]))
    m = LevyModel(d=2, alpha=1.0, spectral=sp, profile=PolyTempered(3.0))
    with pytest.raises(DegeneracyError):
        check_lower_growth(m, exponent=1.0, radii=np.logspace(-2, 2, 40))


def test_growth_checks_in_d2_probe_directions_off_the_axes():
    # the probe set adds 8 evenly spaced directions to the axis atoms
    m = exp_model(1.5, d=2)
    dirs = charexp._direction_set(m)
    assert len(dirs) == 10
    assert np.any(np.all(np.abs(dirs) > 0.5, axis=1))  # a diagonal
    inf_g = check_lower_growth(m, exponent=2.0, radii=np.logspace(-3, 0, 25))
    assert 0.0 < inf_g < math.inf


def test_small_xi_taylor_limit():
    # Phi(xi)/|xi|^2 -> (1/2) int <theta, y>^2 nu(dy) as xi -> 0
    m = exp_model(1.0)
    sig2 = truncated_second_moment(m, 1e6)
    u = 1e-3
    val = phi(m, np.array([u])).value
    assert val / u ** 2 == pytest.approx(0.5 * sig2, rel=1e-3)

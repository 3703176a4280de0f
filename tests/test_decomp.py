"""Truncated-measure decomposition: split, local part, compound Poisson."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import fftconvolve

from templevy.decomp import (
    bounded_cell_masses,
    compound_poisson,
    convolution_ball_check,
    default_eps,
    frequency_identity_defect,
    local_auto_grid,
    local_density,
    local_lower_check,
    local_moment,
    recompose,
    split,
)
from templevy.charexp import phi
from templevy.density import GridSpec, invert
from templevy.errors import DomainError
from templevy.model import (LevyModel, cauchy_model, exp_model, poly_model,
                            relativistic_model)
from templevy.profiles import Truncated


def test_split_rate_cauchy():
    # lambda = nu(B(0,1)^c) = 2 int_1^inf s^-2 ds = 2
    sm = split(cauchy_model(), 1.0)
    assert sm.lam == pytest.approx(2.0, rel=1e-10)


def test_split_rate_poly_m2():
    # 2 int_1^inf s^-2 (1+s)^-2 ds = 3 - 4 ln 2 (partial fractions)
    sm = split(poly_model(2.0, 1.0), 1.0)
    assert sm.lam == pytest.approx(3.0 - 4.0 * math.log(2.0), rel=1e-10)


def test_split_rate_small_eps():
    # 1/eps - 3 log(1/eps) - 1 <= nu(B(0,eps)^c) / 2 <= 1/eps for (1+s)^-3
    sm = split(poly_model(3.0, 1.0), 1e-7)
    assert sm.lam > 0
    assert sm.lam == pytest.approx(2e7, rel=1e-4)


def test_small_model_cuts_every_profile():
    sm = split(relativistic_model(1.0), 0.5)
    # the cut measure has no closed form: its exponent is the cut psi
    assert phi(sm.small, [2.0]).method == "quadrature"
    assert sm.small.profile == Truncated(0.5, sm.model.profile)
    assert [w for w, _ in sm.small.profiles_and_weights()] == [
        w for w, _ in sm.model.profiles_and_weights()]
    # a cut of a cut keeps the smaller radius over the inner base
    hard = LevyModel(d=1, alpha=1.0, spectral=sm.model.spectral,
                     profile=Truncated(0.2))
    assert split(hard, 0.5).small.profile == Truncated(0.2)
    assert split(hard, 0.1).small.profile == Truncated(0.1)


def test_default_eps_regimes():
    m = exp_model(1.0)           # beta = 2
    assert default_eps(m, 0.25) == pytest.approx(0.25)       # t^{1/alpha}
    assert default_eps(m, 4.0) == pytest.approx(2.0)         # t^{1/beta}


def test_bounded_cell_masses_total():
    sm = split(cauchy_model(), 1.0)
    g = GridSpec(1, 256.0, 2 ** 14)
    masses = bounded_cell_masses(sm, g)
    # gridded nubar keeps lambda up to the mass beyond the window
    assert masses.sum() == pytest.approx(sm.lam, rel=1e-2)
    assert masses.sum() < sm.lam


def test_eps_cell_keeps_its_mass():
    # h = 16 >> eps = 1: the cell [eps, h/2] is integrated exactly, so the
    # only mass missing from the window is the Cauchy mass beyond it
    g = GridSpec(1, 2048.0, 256)
    cp = compound_poisson(split(cauchy_model(), 1.0), 1.0, g)
    exact = 1.0 / (g.L - g.h / 2.0) + 1.0 / (g.L + g.h / 2.0)
    assert cp.overflow == pytest.approx(exact, abs=1e-6)


def test_local_density_mass_and_symmetry():
    sm = split(poly_model(3.0, 1.0), 0.5)
    fld = local_density(sm, 0.5)
    assert abs(fld.mass - 1.0) < 1e-6
    assert fld.symmetry_defect() <= 1e-9 * float(fld.values.max())


def test_local_moment_scaling():
    # the 2n-th truncated-semigroup moment scales like t^{2n/alpha}
    m = exp_model(1.0)
    ts = [2.0 ** -k for k in range(8, 2, -1)]
    for n in (1, 2):
        logs = [math.log(local_moment(split(m, default_eps(m, t)), t, n))
                for t in ts]
        slope = np.polyfit(np.log(ts), logs, 1)[0]
        assert slope == pytest.approx(2.0 * n, rel=0.05)


def test_frequency_identity():
    # fast-decaying profile so the big-jump mass outside the window is
    # negligible and the product identity holds to grid accuracy
    sm = split(poly_model(3.0, 1.0), 1.0)
    defect = frequency_identity_defect(sm, 1.0, GridSpec(1, 1024.0, 2 ** 16))
    assert defect < 1e-5


def test_frequency_identity_rejects_d2():
    sm = split(poly_model(3.0, 1.5, d=2), 0.3)
    with pytest.raises(DomainError):
        frequency_identity_defect(sm, 1.0, GridSpec(2, 16.0, 64))


def test_recompose_matches_direct():
    m = cauchy_model()
    t = 1.0
    g = GridSpec(1, 2048.0, 2 ** 17)
    sm = split(m, default_eps(m, t))
    local = local_density(sm, t, g)
    cp = compound_poisson(sm, t, g)
    together = recompose(local, cp)
    direct = invert(m, t, g)
    err = (np.max(np.abs(together.values - direct.values))
           / np.max(direct.values))
    assert err < 1e-4
    # mass is short exactly by the big-jump tail outside the window,
    # which the compound-Poisson field reports in its tail bound
    assert abs(together.mass - 1.0) <= cp.tail_bound + 1e-5


@pytest.mark.parametrize("n", [2 ** 15, 2 ** 17])
@pytest.mark.parametrize("m", [cauchy_model(), poly_model(3.0, 1.0),
                               exp_model(1.0)], ids=["cauchy", "poly3", "exp1"])
def test_recompose_is_the_linear_convolution(m, n):
    # the padded transform has period 2N > 2N - 1, the span of the linear
    # convolution, so nothing wraps
    t = 0.5
    g = GridSpec(1, 2048.0, n)
    sm = split(m, default_eps(m, t))
    local = local_density(sm, t, g)
    cp = compound_poisson(sm, t, g)
    conv = fftconvolve(local.values, cp.ac)[n // 2:n // 2 + n] * g.h
    ref = np.clip(cp.atom_weight * local.values + conv, 0.0, None)
    rec = recompose(local, cp).values
    assert np.max(np.abs(rec - ref)) <= 1e-15 * ref.max()


def test_compound_poisson_total_mass():
    sm = split(poly_model(3.0, 1.0), 1.0)
    g = GridSpec(1, 512.0, 2 ** 15)
    cp = compound_poisson(sm, 2.0, g)
    # atom weight + a.c. mass sum to 1 within the reported tail bound
    total = cp.atom_weight + cp.ac_mass()
    assert abs(total - 1.0) <= cp.tail_bound + 1e-8


def _exact_lattice_ac(masses, t, lam):
    """e^(-t lam) sum_n t^n m^(n*) / n! on the window, by full convolutions.

    No window and no wrap-around: every power keeps its whole support, and
    the series stops once the Poisson weight falls below 1e-16.
    """
    mu, n2 = t * lam, len(masses) // 2
    law = np.zeros(2 * n2)
    conv, lo, coeff, n = np.ones(1), 0, math.exp(-mu), 0
    while True:
        n += 1
        conv = np.convolve(conv, masses)
        lo -= n2  # offset of conv[0]
        coeff *= t / n
        a, b = max(-n2, lo), min(n2, lo + len(conv))
        law[a + n2:b + n2] += coeff * conv[a - lo:b - lo]
        if n > mu and math.exp(-mu) * mu ** n / math.factorial(n) < 1e-16:
            return law


@pytest.mark.parametrize("case", ["poly3", "cauchy", "cauchy-truncated"])
def test_tail_bound_is_proven(case):
    # deficit + L1 window error against the exact lattice law <= tail_bound
    if case == "poly3":
        g, t, m = GridSpec(1, 16.0, 256), 1.0, poly_model(3.0, 1.0)
    elif case == "cauchy":
        g, t, m = GridSpec(1, 2048.0, 1024), 2.0, cauchy_model()
    else:
        # Cauchy jumps cut at the box edge: nothing falls outside the grid,
        # so only the fold-back term covers the wrapped-around mass
        g, t = GridSpec(1, 8.0, 256), 2.0
        m = LevyModel(d=1, alpha=1.0, spectral=cauchy_model().spectral,
                      profile=Truncated(8.0 - g.h / 2.0))
    sm = split(m, 1.0)
    cp = compound_poisson(sm, t, g)
    exact = _exact_lattice_ac(bounded_cell_masses(sm, g), t, sm.lam)
    deficit = 1.0 - cp.atom_weight - cp.ac_mass()
    l1 = float(np.abs(cp.ac * g.h - exact).sum())
    assert deficit + l1 <= cp.tail_bound
    if case == "cauchy-truncated":
        # without the fold-back term the bound would be the deficit plus
        # t * overflow - (1 - e^(-t overflow)): the window error exceeds that
        ov = max(cp.overflow, 0.0)
        assert l1 > 1e-5 > t * ov + math.expm1(-t * ov)


@pytest.mark.parametrize("eps", [0.01, 0.002])
def test_compound_poisson_large_rate(eps):
    # t lambda = 177 and 968: the law stays finite and recomposes the
    # direct density (968 > 700 takes the exp branch, not expm1)
    m, t = poly_model(3.0, 1.0), 1.0
    g = GridSpec(1, 64.0, 2 ** 16)
    sm = split(m, eps)
    cp = compound_poisson(sm, t, g)
    assert np.all(np.isfinite(cp.ac))
    assert abs(cp.atom_weight + cp.ac_mass() - 1.0) <= cp.tail_bound
    together = recompose(local_density(sm, t, g), cp)
    direct = invert(m, t, g)
    err = (np.max(np.abs(together.values - direct.values))
           / np.max(direct.values))
    assert err < 1e-4


def test_convolution_ball_oracle_n2():
    # nubar^{2*}(B(x, r)) against a brute-force double quadrature
    m = cauchy_model()
    sm = split(m, 1.0)
    rows = convolution_ball_check(sm, 2, [10.0], GridSpec(1, 256.0, 2 ** 15))
    row = next(r for r in rows
               if r["n"] == 2 and r["rule"] == "eps/3" and r["admissible"])
    x, r = row["x"], row["r"]

    def f(s):  # density of nubar on the line (both atoms)
        return abs(s) ** -2.0 if abs(s) > 1.0 else 0.0

    def inner(y):  # nubar(B(x - y, r)), split where f jumps
        lo, hi = x - r - y, x + r - y
        return quad(f, lo, hi, points=[p for p in (-1.0, 1.0) if lo < p < hi],
                    epsabs=1e-13, epsrel=1e-10)[0]

    # over the whole line, split where f jumps and where inner has kinks
    edges = sorted([-np.inf, -1.0, 1.0, x - r - 1.0, x - r + 1.0,
                    x + r - 1.0, x + r + 1.0, np.inf])
    oracle = sum(quad(lambda y: f(y) * inner(y), a, b, epsabs=1e-13,
                      epsrel=1e-10)[0] for a, b in zip(edges, edges[1:]))
    assert row["ball"] == pytest.approx(oracle, rel=1e-4)


def test_convolution_ball_ratio_span():
    sm = split(poly_model(3.0, 1.0), 1.0)
    rows = convolution_ball_check(sm, 5, [6.0, 10.0, 14.0])
    by_n = {}
    for r in rows:
        if r.get("admissible") and "ratio" in r and r["ratio"] > 0:
            by_n.setdefault(r["n"], []).append(r["ratio"] ** (1.0 / r["n"]))
    vals = [v for lst in by_n.values() for v in lst]
    assert max(vals) / min(vals) < 10.0


def test_local_moment_in_d2_is_twice_its_marginal():
    # |x|^2 = x_1^2 + x_2^2 under a product law whose factors are the 1-D
    # small-jump law (each axis pair weighs 2, as the d = 1 pair does)
    t, L, n = 1.0, 40.0, 1024
    m2 = local_moment(split(poly_model(3.0, 1.5, d=2), 0.3), t, 1,
                      GridSpec(2, L, n))
    m1 = local_moment(split(poly_model(3.0, 1.5), 0.3), t, 1,
                      GridSpec(1, L, n))
    assert m2 == pytest.approx(2.0 * m1, rel=1e-9)


def test_local_lower_check_in_d2_is_the_square_of_the_d1_centre():
    t_set = [0.5, 2.0]
    rows = local_lower_check(exp_model(1.0, d=2), t_set)
    for t, (t_row, scaled) in zip(t_set, rows):
        g = local_auto_grid(split(exp_model(1.0, d=2), t), t)
        p1 = local_density(split(exp_model(1.0), t), t,
                           GridSpec(1, g.L, g.N)).values[g.N // 2]
        assert t_row == t
        assert scaled == pytest.approx(t ** 2 * p1 ** 2, rel=1e-12, abs=0.0)


def test_local_lower_check_bounded():
    rows = local_lower_check(poly_model(3.0, 1.0), [0.05, 0.1, 0.2, 0.4])
    vals = [v for _, v in rows]
    assert min(vals) > 0.0
    assert max(vals) / min(vals) < 2.0

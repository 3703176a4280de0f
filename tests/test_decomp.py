"""Truncated-measure decomposition: split, local part, compound Poisson."""
import collections
import math
import os
import signal
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.signal import fftconvolve

from templevy import decomp
from templevy.decomp import (
    CompoundPoissonField,
    SplitMeasure,
    _nubar_hat,
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
from templevy.density import DensityField, GridSpec, invert
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
    # on the split's own fields: the symmetric transforms have period 3N
    # and reflect about +-3N/4, so the window's images lie outside
    # [-N, N - 2], the support of the linear convolution
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


@pytest.mark.parametrize("case", ["poly3", "cauchy", "cauchy-truncated",
                                  "cauchy-wrapped"])
def test_tail_bound_is_proven(case):
    # deficit + L1 window error against the exact lattice law <= tail_bound
    if case == "poly3":
        g, t, m = GridSpec(1, 16.0, 256), 1.0, poly_model(3.0, 1.0)
    elif case == "cauchy":
        g, t, m = GridSpec(1, 2048.0, 1024), 2.0, cauchy_model()
    else:
        # Cauchy jumps cut at the box edge: nothing falls outside the grid,
        # so only the fold-back term covers the wrapped-around mass.  On
        # the short box at t = 4 sums of two or three jumps reach |S| >= 2L,
        # which the period 3L folds onto the window.
        g, t = ((GridSpec(1, 8.0, 256), 2.0) if case == "cauchy-truncated"
                else (GridSpec(1, 4.0, 128), 4.0))
        m = LevyModel(d=1, alpha=1.0, spectral=cauchy_model().spectral,
                      profile=Truncated(g.L - g.h / 2.0))
    sm = split(m, 1.0)
    cp = compound_poisson(sm, t, g)
    exact = _exact_lattice_ac(bounded_cell_masses(sm, g), t, sm.lam)
    deficit = 1.0 - cp.atom_weight - cp.ac_mass()
    l1 = float(np.abs(cp.ac * g.h - exact).sum())
    assert deficit + l1 <= cp.tail_bound
    if case.startswith("cauchy-"):
        # without the fold-back term the bound would be the deficit plus
        # t * overflow - (1 - e^(-t overflow)): the window error exceeds that
        ov = max(cp.overflow, 0.0)
        assert l1 > 1e-5 > t * ov + math.expm1(-t * ov)


@pytest.mark.parametrize("n", [256, 2 ** 12])
def test_convolutions_run_on_half_length_transforms(monkeypatch, n):
    # decomp's scipy.fft is replaced by one that records each transform's
    # kind and length and has no other transform: compound_poisson takes
    # two DCT-Is of 3N/4 + 1 points, each a DCT-I on 3N/8 + 1 and a
    # DCT-III on 3N/4; recompose four forward and two inverse symmetric
    # transforms on 3N/4.  None reaches 3N/4 + 2 points.  The pairs run on
    # two threads in no fixed order, so the calls are counted, not listed.
    calls, lock = collections.Counter(), threading.Lock()

    def recorder(name):
        def transform(x, kind, overwrite_x=False):
            with lock:
                calls[name, kind, len(x)] += 1
            return getattr(scipy.fft, name)(x, kind, overwrite_x=overwrite_x)
        return transform

    m, t = poly_model(3.0, 1.0), 0.5
    g = GridSpec(1, 16.0, n)
    sm = split(m, default_eps(m, t))
    local = local_density(sm, t, g)
    monkeypatch.setattr(decomp, "sfft", types.SimpleNamespace(
        **{name: recorder(name) for name in ("dct", "dst", "idct", "idst")}))
    k = 3 * n // 4
    cp = compound_poisson(sm, t, g)
    assert calls == {("dct", 1, k // 2 + 1): 2, ("dct", 3, k): 2}
    calls.clear()
    recompose(local, cp)
    assert calls == {("dct", 3, k): 2, ("dst", 3, k): 2, ("idct", 3, k): 1,
                     ("idst", 3, k): 1}


def _on_cpus(cpus, fn, *args):
    """fn(*args) with decomp's usable CPU count set to cpus: at 1 every
    transform pair runs in turn on this thread, at 2 on two threads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomp, "_CPUS", cpus)
        return fn(*args)


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("name", ["cauchy", "poly3", "exp1"])
def test_concurrent_transforms_are_bitwise_serial(name, t):
    # verify_decomposition's nine (model, t) grids, at N = 2^17
    m = {"cauchy": cauchy_model(), "poly3": poly_model(3.0, 1.0),
         "exp1": exp_model(1.0)}[name]
    g = GridSpec(1, 2048.0, 2 ** 17)
    sm = split(m, default_eps(m, t))
    local = local_density(sm, t, g)
    serial, both = (_on_cpus(c, compound_poisson, sm, t, g) for c in (1, 2))
    assert serial.ac.tobytes() == both.ac.tobytes()
    assert serial.tail_bound.hex() == both.tail_bound.hex()
    assert serial.overflow.hex() == both.overflow.hex()
    assert (_on_cpus(1, recompose, local, serial).values.tobytes()
            == _on_cpus(2, recompose, local, both).values.tobytes())


@pytest.mark.parametrize("raiser", ["f", "g"])
def test_both_returns_only_once_both_halves_are_done(monkeypatch, raiser):
    # the half that does not raise still runs to its end before the error
    # reaches the caller: no transform writes into its buffers after that
    monkeypatch.setattr(decomp, "_CPUS", 2)
    done = []

    def slow():
        time.sleep(0.2)
        done.append(threading.get_ident())

    def fail():
        raise ValueError(f"{raiser} failed")

    f, g = (fail, slow) if raiser == "f" else (slow, fail)
    with pytest.raises(ValueError, match=f"{raiser} failed"):
        decomp._both(f, g)
    assert len(done) == 1
    assert (done[0] == threading.get_ident()) == (raiser == "f")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")
@pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_starts_its_own_helper(monkeypatch):
    # the parent's helper thread does not exist in the child, so the child
    # drops it and its first pair starts a helper of its own
    monkeypatch.setattr(decomp, "_CPUS", 2)
    assert decomp._both(lambda: 1, lambda: 2) == (1, 2)
    assert decomp._helper is not None
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            fresh = decomp._helper is None
            ran_on, _ = decomp._both(threading.get_ident, lambda: None)
            code = 0 if fresh and ran_on != threading.get_ident() else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.01)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's pair did not finish in 30 s")
    assert os.waitstatus_to_exitcode(status) == 0


@settings(derandomize=True, deadline=None, max_examples=30)
@given(log_n=st.integers(6, 12), seed=st.integers(0, 2 ** 32 - 1),
       atom=st.integers(0, 64), edges=st.tuples(st.integers(0, 255),
                                                st.integers(0, 255)))
def test_recompose_is_the_exact_linear_convolution(log_n, seed, atom, edges):
    # random non-symmetric fields of small integers on h = 1 with a dyadic
    # atom weight: np.convolve sums them exactly, so the reference has no
    # rounding (fftconvolve's own error here reaches 5e-16 of the peak).
    # The cells at -L take their own range, up to 16 times the rest.
    n = 2 ** log_n
    g = GridSpec(1, n / 2.0, n)
    rng = np.random.default_rng(seed)
    l, a = rng.integers(0, 16, (2, n)).astype(float)
    l[0], a[0] = edges
    w = atom / 64.0
    local = DensityField(grid=g, t=1.0, values=l, mass=1.0, trunc_error=0.0,
                         alias_error=0.0, min_raw=0.0)
    cp = CompoundPoissonField(grid=g, t=1.0, lam=1.0, atom_weight=w, ac=a,
                              tail_bound=0.0, overflow=0.0)
    exact = w * l + np.convolve(l, a)[n // 2:n // 2 + n]
    got = _on_cpus(2, recompose, local, cp).values
    serial = _on_cpus(1, recompose, local, cp).values
    assert np.max(np.abs(got - exact)) <= 1e-15 * exact.max()
    assert got.tobytes() == serial.tobytes()


def _padded_law(masses, t, lam, h):
    """The a.c. part and the cropped band mass of Pbar_t as a product of
    complex spectra: the grid zero-padded to 3N/2, one rfft, the complex
    exponential and one irfft (the 3N/2-point formula compound_poisson
    replaced)."""
    n2 = len(masses) // 2
    mu = t * lam
    atom = math.exp(-mu)
    padded = np.zeros(3 * n2)
    padded[:n2] = masses[n2:]
    padded[-n2:] = masses[:n2]
    spec = scipy.fft.rfft(padded) * t
    spec = np.expm1(spec) * atom if mu < 700.0 else np.exp(spec - mu) - atom
    law = scipy.fft.irfft(spec, 3 * n2)
    return np.concatenate((law[-n2:], law[:n2])) / h, float(law[n2:-n2].sum())


@settings(derandomize=True, deadline=None, max_examples=40)
@given(log_n=st.integers(6, 12), seed=st.integers(0, 2 ** 32 - 1),
       mu=st.one_of(st.floats(1e-3, 50.0), st.floats(600.0, 900.0)),
       heavy=st.integers(0, 3))
def test_compound_poisson_matches_the_padded_rfft_formula(log_n, seed, mu,
                                                          heavy):
    # symmetric random cells with up to three O(1) cells at +-L and an
    # O(1) cell at -L, against the reference above, at t lam on both sides
    # of 700.  Both formulas round the exponent t E, |t E| <= t lam, to
    # about eps t lam, so near 700 they differ by ~1.5e-13 of the peak:
    # the bound is 4 eps t lam, and 1e-14 below t lam = 11.
    n = 2 ** log_n
    n2 = n // 2
    g = GridSpec(1, 10.0, n)
    rng = np.random.default_rng(seed)
    half = rng.random(n2) * rng.uniform(1e-3, 1.0) / n2
    if heavy:
        half[-heavy:] = rng.uniform(0.0, 1.0, heavy)
    masses = np.empty(n)
    masses[n2:] = half
    masses[1:n2] = half[:0:-1]
    masses[0] = rng.uniform(0.0, 1.0)
    lam = float(masses.sum())
    t = mu / lam
    sm = SplitMeasure(model=None, eps=1.0, lam=lam, small=None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomp, "bounded_cell_masses",
                   lambda sm, grid: masses.copy())
        cp = compound_poisson(sm, t, g)
    ac, cropped = _padded_law(masses, t, lam, g.h)
    peak = np.max(np.abs(ac))
    tol = max(1e-14, 4.0 * np.finfo(float).eps * mu)
    assert np.max(np.abs(cp.ac - ac)) <= tol * peak
    # the tail bound's cropped band sums N/2 cells of the law, each within
    # tol * peak, and its other terms are the same formulas
    j2 = np.square(np.arange(n2, dtype=float))
    edge = g.L * masses[0]
    fold = ((t * (2.0 * g.h ** 2 * float(j2 @ masses[n2:]) + g.L * edge)
             + (t * edge) ** 2) / (2.0 * g.L - g.h) ** 2)
    tail = max(cropped, 0.0) + fold
    assert cp.tail_bound == pytest.approx(tail, rel=1e-12,
                                          abs=n2 * tol * peak * g.h)


#: tracemalloc peaks, in bytes, of compound_poisson and recompose for
#: cauchy_model() at t = 0.5 on GridSpec(1, 2048, 2^16), measured at commit
#: b10a2c9, where both stages took real FFTs of the grid padded to 3N/2
RFFT_PEAKS = {"compound_poisson": 3_146_408, "recompose": 2_360_136}


def test_stages_peak_no_higher_than_on_the_padded_rfft(monkeypatch):
    # compound_poisson's scratch goes on the traced heap here
    monkeypatch.setattr(decomp, "_scratch", np.zeros)
    m, t = cauchy_model(), 0.5
    g = GridSpec(1, 2048.0, 2 ** 16)
    sm = split(m, default_eps(m, t))
    local = local_density(sm, t, g)
    recompose(local, compound_poisson(sm, t, g))  # tables and plans
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cp = compound_poisson(sm, t, g)
        peaks = {"compound_poisson": tracemalloc.get_traced_memory()[1] - base}
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        recompose(local, cp)
        peaks["recompose"] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    for name, peak in peaks.items():
        assert peak <= RFFT_PEAKS[name], name


def test_frequency_identity_reads_the_cosine_sums_of_the_cell_masses():
    # nuhat(k pi / L) against sum_x m(x) cos(k pi x / L), no FFT involved
    g = GridSpec(1, 32.0, 2 ** 12)
    masses = bounded_cell_masses(split(cauchy_model(), 0.5), g)
    k = np.unique(np.geomspace(1, g.N // 2, 25).astype(int))
    k = np.concatenate((-k, [0], k))
    direct = np.cos(np.multiply.outer(k * math.pi / g.L, g.x_axis())) @ masses
    got = _nubar_hat(masses, k)
    assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))


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

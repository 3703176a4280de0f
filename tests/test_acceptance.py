"""Acceptance criteria: closed-form oracles plus stability properties.

Each criterion prints a single PASS/FAIL line on the live terminal.
Criterion 10 audits the normalization and symmetry of every density
field produced while running the preceding criteria.
"""
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from templevy.charexp import phi
from templevy.decomp import (
    convolution_ball_check,
    default_eps,
    local_moment,
    split,
)
from templevy.density import GridSpec, auto_grid, density_at, invert
from templevy.envelope import EnvelopeSpec, relativistic_lower_profile
from templevy.harness import verify_decomposition, verify_lower, verify_upper
from templevy.model import (
    cauchy_model,
    exp_model,
    nu_tail,
    poly_model,
    relativistic_model,
    stable_model,
)
from templevy.montecarlo import SamplerConfig, jump_counts, sample_many
from templevy.profiles import PolyTempered

FIELDS = []  # every DensityField produced below, audited by criterion 10


def _track(fld):
    FIELDS.append(fld)
    return fld


@pytest.fixture
def report(capsys, request):
    """Print one PASS/FAIL line per criterion on the live terminal."""
    outcome = {"ok": False, "note": ""}
    name = request.node.name.replace("test_", "")
    yield outcome
    with capsys.disabled():
        tag = "PASS" if outcome["ok"] else "FAIL"
        print(f"[{tag}] {name}: {outcome['note']}")


def _cauchy_pdf(t, x):
    return t / (x * x + (math.pi * t) ** 2)


def test_criterion_01_cauchy_oracle(report):
    t0 = time.monotonic()
    m = cauchy_model()
    # exponent: quadrature against pi |xi|
    err_phi = max(abs(phi(m, np.array([u]), method="quadrature").value
                      - math.pi * u) / (math.pi * u)
                  for u in np.linspace(0.5, 50.0, 25))
    assert err_phi <= 1e-8
    # density: grid inversion and pointwise quadrature against closed form
    worst = 0.0
    for t in (0.1, 1.0):
        fld = _track(invert(m, t, GridSpec(1, 12288.0, 2 ** 20)))
        ax = fld.grid.x_axis()
        sel = np.abs(ax) <= 10.0
        exact = _cauchy_pdf(t, ax[sel])
        worst = max(worst, float(np.max(
            np.abs(fld.values[sel] - exact) / exact)))
        for x in (0.0, 0.7, 3.0, 10.0):
            worst = max(worst, abs(density_at(m, t, x) - _cauchy_pdf(t, x))
                        / _cauchy_pdf(t, x))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-6
    assert elapsed < 10.0
    report["ok"] = True
    report["note"] = (f"phi rel err {err_phi:.2e}, density rel err "
                      f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_relativistic_oracle(report):
    # closed form of the exponent
    err_phi = 0.0
    for alpha in (0.5, 1.0, 1.5):
        m = relativistic_model(alpha)
        for u in np.linspace(0.5, 50.0, 15):
            closed = (u * u + 1.0) ** (alpha / 2.0) - 1.0
            err_phi = max(err_phi, abs(phi(m, np.array([u])).value - closed)
                          / (1.0 + closed))
    assert err_phi <= 1e-6

    # mass-parameter scaling p_t^m(x) = m^{d/alpha} p^1_{mt}(m^{1/alpha} x),
    # with p_t^m evaluated by independent cosine-transform quadrature
    alpha, t = 1.0, 0.5
    m1 = relativistic_model(alpha)
    err_scale = 0.0
    for mm in (2.0, 4.0):
        for x in (0.0, 0.5, 2.0):
            direct = (1.0 / math.pi) * quad(
                lambda u: math.cos(x * u) * math.exp(
                    -t * ((u * u + mm ** (2.0 / alpha)) ** (alpha / 2.0)
                          - mm)),
                0.0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=400)[0]
            scaled = mm ** (1.0 / alpha) * density_at(
                m1, mm * t, mm ** (1.0 / alpha) * x)
            err_scale = max(err_scale, abs(direct - scaled) / direct)
    assert err_scale <= 1e-4
    report["ok"] = True
    report["note"] = (f"phi rel err {err_phi:.2e}, "
                      f"scaling rel err {err_scale:.2e}")


def test_criterion_03_stable_scaling(report):
    alpha = 1.5
    m = stable_model(alpha)
    err = 0.0
    for t in (0.25, 1.0, 4.0):
        for x in (0.0, 0.5, 1.0, 2.0, 5.0):
            lhs = density_at(m, t, x)
            rhs = t ** (-1.0 / alpha) * density_at(
                m, 1.0, t ** (-1.0 / alpha) * x)
            err = max(err, abs(lhs - rhs) / rhs)
    assert err <= 1e-5
    report["ok"] = True
    report["note"] = f"max scaling defect {err:.2e} over t in {{0.25,1,4}}"


def test_criterion_04_decomposition_exactness(report):
    t0 = time.monotonic()
    worst = 0.0
    for m in (cauchy_model(), poly_model(3.0, 1.0), exp_model(1.0)):
        rep = verify_decomposition(m, [0.1, 0.5, 1.0], tol=1e-4,
                                   series_tol=1e-10)
        assert rep.passed(), rep.hypotheses
        worst = max(worst, rep.statistic)
    elapsed = time.monotonic() - t0
    assert worst <= 1e-4
    assert elapsed < 60.0
    report["ok"] = True
    report["note"] = f"max sup-norm defect {worst:.2e}, {elapsed:.1f}s"


def test_criterion_05_moment_scaling(report):
    ts = [2.0 ** -k for k in range(8, 2, -1)]
    note = []
    for m in (exp_model(1.0), poly_model(3.0, 1.0)):
        for n in (1, 2):
            logs = [math.log(local_moment(split(m, default_eps(m, t)), t, n))
                    for t in ts]
            slope = float(np.polyfit(np.log(ts), logs, 1)[0])
            target = 2.0 * n / m.alpha
            assert abs(slope - target) <= 0.05 * target, (n, slope)
            note.append(f"{slope:.3f}/{target:g}")
    report["ok"] = True
    report["note"] = "slopes " + ", ".join(note)


def test_criterion_06_small_t_envelopes(report):
    t_set = [2.0 ** -k for k in range(6, -1, -1)]
    up_spec = EnvelopeSpec(side="upper", regime="small_t", d=1, alpha=1.0,
                           gamma=1.0, profile=PolyTempered(3.0))
    up = verify_upper(poly_model(3.0, 1.0), up_spec, t_set,
                      model_id="poly3", spec_id="upper_small")
    assert up.passed(), (up.verdict, up.refinement_delta)
    assert 0.0 < up.statistic < math.inf

    lo_spec = EnvelopeSpec(side="lower", regime="small_t", d=1, alpha=1.0,
                           gamma=1.0,
                           profile=relativistic_lower_profile(1, 1.0),
                           directions=((1.0,), (-1.0,)))
    lo = verify_lower(relativistic_model(1.0), lo_spec, t_set,
                      model_id="relativistic", spec_id="lower_small")
    assert lo.passed(), (lo.verdict, lo.refinement_delta)
    assert 0.0 < lo.statistic < math.inf
    report["ok"] = True
    report["note"] = (f"upper sup {up.statistic:.3g} "
                      f"(drift {up.refinement_delta:.1e}), lower inf "
                      f"{lo.statistic:.3g} (drift {lo.refinement_delta:.1e})")


def test_criterion_07_large_t_envelopes(report):
    m = exp_model(1.0)   # beta = 2
    t_set = [2.0, 8.0, 32.0, 100.0]
    # on-diagonal: p_t(0) t^{d/beta} bounded, stable under refinement
    scaled = []
    drift = 0.0
    for t in t_set:
        g = auto_grid(m, t)
        a = _track(invert(m, t, g))
        b = _track(invert(m, t, g.refine(2)))
        pa = float(a.values[g.N // 2])
        pb = float(b.values[g.N])
        drift = max(drift, abs(pb - pa) / pa)
        scaled.append(pa * math.sqrt(t))
    assert drift < 0.10
    assert max(scaled) / min(scaled) < 2.0

    # off-diagonal: the admissible (doubling) upper profile is polynomial
    spec = EnvelopeSpec(side="upper", regime="large_t", d=1, alpha=1.0,
                        gamma=1.0, profile=PolyTempered(3.0), beta=2.0)
    rep = verify_upper(m, spec, t_set, extend_range=False,
                       model_id="exp", spec_id="upper_large")
    assert rep.passed(), (rep.verdict, rep.refinement_delta)
    assert 0.0 < rep.statistic < math.inf
    report["ok"] = True
    report["note"] = (f"diag span {max(scaled) / min(scaled):.3f}, "
                      f"diag drift {drift:.1e}, off-diag sup "
                      f"{rep.statistic:.3g} (drift {rep.refinement_delta:.1e})")


def _cauchy_bigjump_interval(a, b):
    """nubar_1 mass of [a, b] for the Cauchy realization (density s^-2
    outside [-1, 1], zero inside)."""
    def F(s):
        if s <= -1.0:
            return -1.0 / s
        if s < 1.0:
            return 1.0
        return 2.0 - 1.0 / s
    return max(0.0, F(b) - F(a))


def test_criterion_08_convolution_ball_bound(report):
    m = cauchy_model()
    sm = split(m, 1.0)
    grid = GridSpec(1, 256.0, 2 ** 17)

    # oracle: nubar^{2*}(B(x,r)) = int f(y) nubar([x-r-y, x+r-y]) dy
    def oracle(x, r):
        f = lambda y: y ** -2.0 * _cauchy_bigjump_interval(x - r - y,
                                                           x + r - y)
        val = 0.0
        for lo, hi in ((1.0, x - r - 1.0), (x - r - 1.0, x - r + 1.0),
                       (x - r + 1.0, x + r + 1.0), (x + r + 1.0, np.inf)):
            val += quad(f, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=400)[0]
        neg = quad(lambda y: y ** -2.0 * _cauchy_bigjump_interval(
            x - r + y, x + r + y), 1.0, np.inf,
            epsabs=1e-13, epsrel=1e-11, limit=400)[0]
        return val + neg

    rows = convolution_ball_check(sm, 2, [6.0, 10.0, 14.0], grid)
    checked, err = 0, 0.0
    for row in rows:
        if row["n"] == 2 and row["admissible"] and row["r"] > 0.3:
            err = max(err, abs(row["ball"] - oracle(row["x"], row["r"]))
                      / oracle(row["x"], row["r"]))
            checked += 1
    assert checked >= 5
    assert err <= 1e-4

    # n-th root of the ratios stays within one order of magnitude
    rows = convolution_ball_check(split(poly_model(3.0, 1.0), 1.0), 5,
                                  [6.0, 10.0, 14.0])
    roots = [row["ratio"] ** (1.0 / row["n"]) for row in rows
             if row.get("admissible") and row.get("ratio", 0.0) > 0.0]
    span = max(roots) / min(roots)
    assert span < 10.0
    report["ok"] = True
    report["note"] = (f"{checked} oracle points, rel err {err:.2e}, "
                      f"root-ratio span {span:.2f}")


def test_criterion_09_monte_carlo(report):
    t0 = time.monotonic()
    n = 100000
    notes = []
    for m, cdf_exact in (
            (cauchy_model(),
             lambda t, x: np.arctan(x / (math.pi * t)) / math.pi + 0.5),
            (poly_model(3.0, 1.0), None)):
        t, eps = 0.5, 0.01
        cfg = SamplerConfig(m, t=t, eps=eps, count=n, seed=42)
        x = np.sort(sample_many(cfg)[:, 0])
        if cdf_exact is not None:
            cdf = cdf_exact(t, x)
        else:
            fld = _track(invert(m, t, GridSpec(1, 512.0, 2 ** 16)))
            cdf = np.interp(x, fld.grid.x_axis(),
                            np.cumsum(fld.values) * fld.grid.h)
        emp = (np.arange(n) + 0.5) / n
        ks = float(np.max(np.abs(emp - cdf)))
        assert ks <= 0.01, ks
        lam = nu_tail(m, eps)
        counts = jump_counts(cfg)
        se = math.sqrt(t * lam / n)
        assert abs(counts.mean() - t * lam) <= 3.0 * se
        notes.append(f"KS {ks:.4f}")
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report["ok"] = True
    report["note"] = ", ".join(notes) + f", {elapsed:.1f}s"


def test_criterion_10_normalization_symmetry(report):
    # add representative fields in case earlier criteria were skipped
    FIELDS.append(invert(exp_model(1.5), 0.5, GridSpec(1, 128.0, 2 ** 14)))
    FIELDS.append(invert(relativistic_model(1.0), 1.0,
                         GridSpec(1, 128.0, 2 ** 14)))
    assert len(FIELDS) >= 2
    worst_mass, worst_sym = 0.0, 0.0
    for fld in FIELDS:
        peak = float(fld.values.max())
        worst_mass = max(worst_mass, abs(fld.mass - 1.0))
        worst_sym = max(worst_sym, fld.symmetry_defect() / peak)
    assert worst_mass <= 1e-6
    assert worst_sym <= 1e-9
    report["ok"] = True
    report["note"] = (f"{len(FIELDS)} fields, |mass-1| <= {worst_mass:.2e}, "
                      f"symmetry <= {worst_sym:.2e}")

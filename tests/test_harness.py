"""Verification harness: scans, reports, suite orchestration."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from templevy import charexp, density, harness
from templevy.density import MAX_N, GridSpec
from templevy.envelope import EnvelopeSpec, relativistic_lower_profile, spec_to_dict
from templevy.errors import DomainError, GridError
from templevy.harness import (
    DEFAULT_RADII,
    TOOLKIT_VERSION,
    _scan_grid,
    run_suite,
    scan_points,
    verify_lower,
    verify_upper,
)
from templevy.model import (LevyModel, SpectralMeasure, exp_model,
                            model_to_dict, poly_model, relativistic_model,
                            stable_model)
from templevy.profiles import Constant, ExpTempered, PolyTempered

T_SMALL = tuple(2.0 ** -k for k in range(6, -1, -1))
T_LARGE = (2.0, 8.0, 32.0, 100.0)


def test_scan_points_shape():
    pts = scan_points(poly_model(3.0, 1.0))
    # origin plus both directions at each default radius
    assert pts.shape == (1 + 2 * len(DEFAULT_RADII), 1)
    assert np.any(np.all(pts == 0.0, axis=1))


def test_scan_points_on_a_density_measure():
    # every 64th node of the angular rule: the 8 angles 2 pi k / 8
    sp = SpectralMeasure(d=2, density=lambda ang: np.ones_like(ang))
    m = LevyModel(d=2, alpha=1.0, spectral=sp, profile=PolyTempered(3.0))
    ang = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    radii = np.array([0.5, 2.0])
    np.testing.assert_array_equal(
        scan_points(m, radii)[1:], (radii[:, None, None] * dirs).reshape(-1, 2))


def test_empty_suite_exits_zero(tmp_path):
    code, bundle = run_suite({"suite_id": "empty", "checks": []},
                             out_dir=tmp_path)
    assert code == 0
    assert bundle["suite_id"] == "empty"
    assert bundle["toolkit_version"] == TOOLKIT_VERSION
    assert bundle["results"] == []
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {"suite_id", "toolkit_version", "results"}


def test_verify_upper_report_fields():
    m = poly_model(3.0, 1.0)
    spec = EnvelopeSpec(side="upper", regime="small_t", d=1, alpha=1.0,
                        gamma=1.0, profile=PolyTempered(3.0))
    rep = verify_upper(m, spec, [0.25, 1.0],
                       radii=np.logspace(-1, 1, 8), model_id="poly3")
    assert rep.kind == "upper"
    assert rep.passed() and rep.verdict == "PASS"
    assert np.isfinite(rep.statistic) and rep.statistic > 0
    assert np.isfinite(rep.refinement_delta)
    assert rep.hypotheses["pass"]
    assert rep.rows, "scan rows must be recorded"
    # rows carry (t, x..., p, env, ratio)
    assert len(rep.rows[0]) == 1 + m.d + 3


def test_verify_lower_relativistic():
    m = relativistic_model(1.0)
    spec = EnvelopeSpec(side="lower", regime="small_t", d=1, alpha=1.0,
                        gamma=1.0, profile=relativistic_lower_profile(1, 1.0),
                        directions=((1.0,), (-1.0,)))
    rep = verify_lower(m, spec, [0.25, 1.0], radii=np.logspace(-1, 0.9, 8))
    assert rep.passed()
    assert rep.statistic > 0


def test_suite_with_failing_hypotheses(tmp_path):
    from templevy.profiles import ExpTempered
    m = poly_model(3.0, 1.0)
    spec = EnvelopeSpec(side="upper", regime="small_t", d=1, alpha=1.0,
                        gamma=1.0, profile=ExpTempered(a=0.0, c1=1.0))
    config = {"suite_id": "bad", "checks": [{
        "kind": "upper", "model": model_to_dict(m),
        "spec": spec_to_dict(spec), "t_set": [0.5],
        "radii": [0.5, 1.0, 2.0]}]}
    code, bundle = run_suite(config, out_dir=tmp_path)
    assert code == 1
    assert bundle["results"][0]["verdict"] == "FAIL"
    csvs = list(tmp_path.glob("scan_*.csv"))
    assert len(csvs) == 1


def test_suite_large_t_check_keeps_its_range(tmp_path):
    # criterion 07's pair: a large-t sup sits at the edge of the diffusive
    # bulk, so the suite refines it without doubling the x-range
    spec = EnvelopeSpec(side="upper", regime="large_t", d=1, alpha=1.0,
                        gamma=1.0, profile=PolyTempered(3.0), beta=2.0)
    config = {"suite_id": "large_t", "checks": [{
        "kind": "upper", "model": model_to_dict(exp_model(1.0)),
        "spec": spec_to_dict(spec), "t_set": [2.0, 8.0, 32.0, 100.0]}]}
    code, bundle = run_suite(config)
    result = bundle["results"][0]
    assert code == 0 and result["verdict"] == "PASS"
    assert result["refinement_delta"] < 1e-3


def test_suite_writes_decomposition_rows(tmp_path):
    # t >= 0.3 runs on the 2^17 grid
    config = {"suite_id": "decomp", "checks": [{
        "kind": "decomposition", "model": model_to_dict(exp_model(1.0)),
        "t_set": [1.0]}]}
    code, bundle = run_suite(config, out_dir=tmp_path)
    assert code == 0 and bundle["results"][0]["verdict"] == "PASS"
    lines = (tmp_path / "scan_0_decomposition_model0.csv").read_text(
        ).splitlines()
    assert lines[0] == "t,eps,rel_defect,mass_defect"
    t, eps, defect, mass_defect = map(float, lines[1].split(","))
    assert len(lines) == 2 and t == 1.0
    assert defect == bundle["results"][0]["statistic"] <= 1e-4


def test_scan_grid_names_its_cap():
    # a scan too wide for the spacing raises instead of coarsening h
    with pytest.raises(GridError, match=f"MAX_N = {MAX_N[1]}"):
        _scan_grid(poly_model(3.0, 1.0), 0.01, 1e5)


SCAN_MODELS = {
    "stable": lambda a, d: stable_model(a, d=d),
    "exp": lambda a, d: exp_model(a, d=d),
    "poly3": lambda a, d: poly_model(3.0, a, d=d),
}


@settings(derandomize=True, deadline=None, max_examples=40)
@given(kind=st.sampled_from(sorted(SCAN_MODELS)), d=st.sampled_from([1, 2]),
       alpha=st.floats(0.3, 1.9), log2_t=st.floats(-6.0, 2.0),
       k=st.floats(-1.5, 1.5))
def test_scan_grid_holds_the_doubled_radii(kind, d, alpha, log2_t, k):
    """A scan's base grid holds 2.2 times the doubled radii in its L, up to
    rounding, and its refinement keeps that L; or _scan_grid raises
    GridError.  The scan reads the base grid's Phi off the refined grid's
    on this alone."""
    x_max = 2.0 * float((np.asarray(DEFAULT_RADII) * 10.0 ** k).max())
    try:
        grid = _scan_grid(SCAN_MODELS[kind](alpha, d), 2.0 ** log2_t, x_max)
    except GridError:
        return
    assert 2.2 * x_max <= grid.L * (1.0 + 1e-12)
    assert grid.refine(2).L == grid.L


def _upper_small(profile):
    return EnvelopeSpec(side="upper", regime="small_t", d=1, alpha=1.0,
                        gamma=1.0, profile=profile)


def test_scan_raises_on_a_grid_that_rings(monkeypatch):
    # invert's field on this grid rings below -1e-9 of its peak at t = 0.25
    monkeypatch.setattr(harness, "_scan_grid",
                        lambda *args: GridSpec(1, 44.0, 512))
    with pytest.raises(GridError, match="grid too coarse"):
        verify_upper(poly_model(3.0, 1.0), _upper_small(PolyTempered(3.0)),
                     [0.25, 1.0], radii=np.logspace(-1, 1, 8))


def test_scan_raises_on_a_spectral_tail_the_grid_cuts(monkeypatch):
    # the Cauchy field at t = 0.01 on this grid peaks at 4.74, not at
    # 1 / (pi t) = 31.8, with no negative node: invert passes it, but 0.72
    # of the peak lies in the spectral tail past xi_cut
    model, grid = stable_model(1.0), GridSpec(1, 20.0, 256)
    fld = density.invert(model, 0.01, grid)
    assert fld.min_raw > 0.0 and fld.trunc_error > 0.5 * fld.values.max()
    monkeypatch.setattr(harness, "_scan_grid", lambda *args: grid)
    with pytest.raises(GridError, match="spectral tail .* at t = 0.01"):
        verify_upper(model, _upper_small(Constant(1.0)), [0.01],
                     radii=np.logspace(-1, 0.6, 8))


def test_scans_make_no_inverse_fft(monkeypatch):
    # the scan reads p_t at its points from the half spectrum: neither
    # invert nor an inverse FFT of a scan grid runs
    def boom(*args, **kwargs):
        raise AssertionError("inverse transform of a scan grid")

    for mod, name in ((harness, "invert"), (density, "invert"),
                      (np.fft, "irfftn"), (np.fft, "irfft")):
        monkeypatch.setattr(mod, name, boom)
    t_set = [0.25, 1.0]
    up = verify_upper(poly_model(3.0, 1.0), _upper_small(PolyTempered(3.0)),
                      t_set)
    lo_spec = EnvelopeSpec(side="lower", regime="small_t", d=1, alpha=1.0,
                           gamma=1.0,
                           profile=relativistic_lower_profile(1, 1.0),
                           directions=((1.0,), (-1.0,)))
    lo = verify_lower(relativistic_model(1.0), lo_spec, t_set)
    assert up.passed() and lo.passed()


def test_scan_names_the_grid_cap_in_d2():
    # two oblique +- pairs: the scan sums the half plane, and its grid is
    # at MAX_N[2] = 2048, where no finer grid is on offer
    c, s = np.cos(0.3), np.sin(0.3)
    model = LevyModel(d=2, alpha=1.2, profile=PolyTempered(3.0),
                      spectral=SpectralMeasure(
                          d=2, directions=[[c, s], [-c, -s], [-s, c], [s, -c]],
                          weights=[1.0] * 4))
    spec = EnvelopeSpec(side="upper", regime="small_t", d=2, alpha=1.2,
                        gamma=1.0, profile=PolyTempered(3.0))
    with pytest.raises(GridError, match=rf"cap MAX_N\[2\] = {MAX_N[2]}"):
        verify_upper(model, spec, [0.5, 1.0], radii=np.logspace(-1, 0.5, 6))


def test_scans_evaluate_once_per_t_and_resolution(monkeypatch):
    # the envelope is read on the whole scan_points array per t: two t
    # values on the grid and on its refinement make four calls
    calls, evaluate = [], harness.evaluate

    def counted(spec, t, x):
        calls.append((t, np.shape(x)))
        return evaluate(spec, t, x)

    monkeypatch.setattr(harness, "evaluate", counted)
    t_set = [0.25, 1.0]
    rep = verify_upper(poly_model(3.0, 1.0), _upper_small(PolyTempered(3.0)),
                       t_set, radii=np.logspace(-1, 1, 8))
    assert rep.passed()
    assert [t for t, _ in calls] == t_set * 2
    assert [shape for _, shape in calls] == [(17, 1)] * 2 + [(33, 1)] * 2


@pytest.mark.parametrize("model", [
    poly_model(3.0, 1.0), poly_model(3.0, 1.5, d=2)], ids=["d1", "d2"])
def test_scans_read_each_spectrum_once(model, monkeypatch):
    # the refined scan grid keeps L: Phi is read once, on its half
    # spectrum up to the smallest t's live bound there, and Phi at the
    # cutoff once per grid for all t
    log, half_phi, axis_phi = [], harness._half_phi, density._axis_phi

    def half(m, g, live):
        log.append(("half", g, live))
        return half_phi(m, g, live)

    def cut(m, c):
        log.append(("cut", c))
        return axis_phi(m, c)

    t_set, radii = [0.25, 0.5, 1.0], np.logspace(-1, 0.5, 6)
    grid = _scan_grid(model, min(t_set), 2.0 * radii.max())
    monkeypatch.setattr(harness, "_half_phi", half)
    monkeypatch.setattr(density, "_axis_phi", cut)
    spec = EnvelopeSpec(side="upper", regime="small_t", d=model.d,
                        alpha=model.alpha, gamma=1.0,
                        profile=model.profile)
    verify_upper(model, spec, t_set, radii=radii)
    # auto_grid reads Phi at cutoffs before the scans begin
    scans = log[[entry[0] for entry in log].index("half"):]
    grid2 = grid.refine(2)
    live = math.log(grid2.N ** model.d / np.finfo(float).eps) / min(t_set)
    assert scans == [("half", grid2, live), ("cut", grid.xi_cut),
                     ("cut", grid2.xi_cut)]


def _small_t(side, d, alpha, profile, **kw):
    return EnvelopeSpec(side=side, regime="small_t", d=d, alpha=alpha,
                        gamma=1.0, profile=profile, **kw)


#: the four verifications of perfbench's envelope_warm workload (criteria
#: 06 and 07, and exp(1.5) at small t) and a d = 2 axis scan
PREFIX_SCANS = {
    "poly3-upper": (poly_model(3.0, 1.0), lambda m: verify_upper(
        m, _small_t("upper", 1, 1.0, PolyTempered(3.0)), T_SMALL)),
    "relativistic-lower": (relativistic_model(1.0), lambda m: verify_lower(
        m, _small_t("lower", 1, 1.0, ExpTempered(a=0.5, c1=2.0),
                    directions=((1.0,), (-1.0,))), T_SMALL)),
    "exp1-large-t": (exp_model(1.0), lambda m: verify_upper(
        m, EnvelopeSpec(side="upper", regime="large_t", d=1, alpha=1.0,
                        gamma=1.0, profile=PolyTempered(3.0), beta=2.0),
        T_LARGE, extend_range=False)),
    "exp1.5-upper": (exp_model(1.5), lambda m: verify_upper(
        m, _small_t("upper", 1, 1.5, PolyTempered(3.0)), T_SMALL)),
    "axes-d2": (poly_model(3.0, 1.5, d=2), lambda m: verify_upper(
        m, _small_t("upper", 2, 1.5, PolyTempered(3.0)), [0.25, 0.5, 1.0],
        radii=np.logspace(-1, 0.5, 6))),
}


def _hex(rep):
    rows = [tuple(None if v is None else float(v).hex() for v in row)
            for row in rep.rows]
    return rows, rep.statistic.hex(), rep.refinement_delta.hex()


@pytest.mark.parametrize("name", sorted(PREFIX_SCANS))
def test_a_prefix_read_scans_as_the_whole_read(name, phi_reads, monkeypatch):
    # Phi read only up to the live prefix gives bitwise the rows,
    # statistic and refinement delta of the whole read, which switching
    # the certificate off forces; and it reads fewer nodes
    model, run = PREFIX_SCANS[name]
    assert charexp._phi_monotone(model)
    prefix = run(model)
    read = sum(phi_reads)
    phi_reads.clear()
    monkeypatch.setattr(density, "_phi_monotone", lambda m: False)
    whole = run(model)
    assert _hex(prefix) == _hex(whole)
    assert read < sum(phi_reads)


def test_the_relativistic_scan_reads_its_live_prefix(phi_reads):
    # its refined half spectrum has 262,145 nodes, and the scan's sums use
    # the first 88,255: one probe, then no more than 1.1 times that
    model, run = PREFIX_SCANS["relativistic-lower"]
    run(model)
    probe, prefix = [n for n in phi_reads if n > 1]
    assert probe <= 2 + math.ceil(math.log(2 ** 18) / math.log(1.05))
    assert 88_255 <= prefix <= 1.1 * 88_255


def test_lower_verdict_needs_a_scan_point_in_the_cone():
    # A0 sits 0.01 rad off the axes the scan runs along: only x = 0 lies in
    # its cone, where every lower spec holds
    c, s = np.cos(0.01), np.sin(0.01)
    spec = EnvelopeSpec(side="lower", regime="small_t", d=2, alpha=1.5,
                        gamma=1.0, profile=ExpTempered(a=0.0, c1=1.0),
                        directions=((c, s), (-c, -s)))
    with pytest.raises(DomainError, match="cone over A0"):
        verify_lower(exp_model(1.5, d=2), spec, [0.5, 1.0],
                     radii=np.linspace(0.1, 3.0, 8))

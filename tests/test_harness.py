"""Verification harness: scans, reports, suite orchestration."""
import json

import numpy as np
import pytest

from templevy.density import MAX_N
from templevy.envelope import EnvelopeSpec, spec_to_dict
from templevy.errors import GridError
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
                            model_to_dict, poly_model, relativistic_model)
from templevy.profiles import PolyTempered


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
    from templevy.envelope import relativistic_lower_profile
    spec = EnvelopeSpec(side="lower", regime="small_t", d=1, alpha=1.0,
                        gamma=1.0, profile=relativistic_lower_profile(1, 1.0),
                        directions=((1.0,), (-1.0,)))
    rep = verify_lower(m, spec, [0.25, 1.0], radii=np.logspace(-1, 0.9, 8))
    assert rep.passed()
    assert rep.statistic > 0


def test_suite_with_failing_hypotheses(tmp_path):
    from templevy.envelope import spec_to_dict
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


def test_scan_grid_names_its_cap():
    # a scan too wide for the spacing raises instead of coarsening h
    with pytest.raises(GridError, match=f"MAX_N = {MAX_N[1]}"):
        _scan_grid(poly_model(3.0, 1.0), 0.01, 1e5)

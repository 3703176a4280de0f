"""Fourier inversion of exp(-t Phi): grids, pointwise values, caching."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import fftconvolve

from templevy.density import (
    CACHE_MAGIC,
    GridSpec,
    auto_grid,
    density_at,
    field_to_csv,
    invert,
    load_field,
    on_diagonal_scan,
    save_field,
)
from templevy.errors import DomainError, GridError
from templevy.model import (
    cauchy_model,
    exp_model,
    poly_model,
    relativistic_model,
    stable_model,
)


def _cauchy_pdf(t, x):
    return t / (x * x + (math.pi * t) ** 2)


def test_gridspec_validation():
    with pytest.raises(GridError):
        GridSpec(1, 10.0, 1000)       # not a power of two
    with pytest.raises(GridError):
        GridSpec(1, 10.0, 32)         # too small
    with pytest.raises(GridError):
        GridSpec(3, 10.0, 256)        # unsupported dimension
    g = GridSpec(1, 8.0, 256)
    assert g.h == pytest.approx(2 * 8.0 / 256)
    assert len(g.x_axis()) == 256
    assert g.refine(2).N == 512 and g.widen(2).L == 16.0


def test_cauchy_inversion():
    fld = invert(cauchy_model(), 1.0, GridSpec(1, 2048.0, 2 ** 18))
    ax = fld.grid.x_axis()
    sel = np.abs(ax) <= 10.0
    exact = _cauchy_pdf(1.0, ax[sel])
    rel = np.max(np.abs(fld.values[sel] - exact) / exact)
    assert rel < 1e-4
    assert abs(fld.mass - 1.0) < 1e-6


def test_field_symmetry_and_positivity():
    fld = invert(poly_model(3.0, 1.0), 0.5, GridSpec(1, 256.0, 2 ** 14))
    assert fld.symmetry_defect() <= 1e-9 * float(fld.values.max())
    assert np.all(fld.values >= 0.0)


def test_density_at_cauchy():
    for t in (0.01, 0.1, 1.0):
        # x = 3 pi t / 4 is where x U = 30 for the cutoff U = 40 / (pi t):
        # take x on both sides of it and far out in the tail
        for x in (0.0, 0.5, 3.0, 10.0, 300.0, 0.7 * math.pi * t,
                  0.8 * math.pi * t):
            assert density_at(cauchy_model(), t, x) == pytest.approx(
                _cauchy_pdf(t, x), rel=1e-9, abs=0.0)


def test_density_at_relativistic_origin():
    # p_1(0) = (1/pi) int_0^inf e^{-(sqrt(u^2+1)-1)} du
    #        = (e/pi) int_1^inf e^{-v} v / sqrt(v^2-1) dv
    oracle = math.e / math.pi * quad(
        lambda v: math.exp(-v) * v / math.sqrt(v * v - 1.0),
        1.0, np.inf, epsabs=1e-13)[0]
    assert density_at(relativistic_model(1.0), 1.0, 0.0) == pytest.approx(
        oracle, rel=1e-8)


def test_grid_matches_pointwise():
    m = exp_model(1.5)
    fld = invert(m, 0.5, GridSpec(1, 64.0, 2 ** 13))
    for x in (0.0, 1.0, 2.5):
        assert fld.at(np.array([x])) == pytest.approx(
            density_at(m, 0.5, x), rel=1e-6)


def test_at_outside_grid_raises():
    fld = invert(cauchy_model(), 1.0, GridSpec(1, 16.0, 1024))
    with pytest.raises(DomainError):
        fld.at(np.array([15.999]))


def test_chapman_kolmogorov():
    # p_{2t} = p_t * p_t
    m = poly_model(3.0, 1.0)
    g = GridSpec(1, 256.0, 2 ** 15)
    p1 = invert(m, 0.5, g)
    p2 = invert(m, 1.0, g)
    n2 = g.N // 2
    conv = g.h * fftconvolve(p1.values, p1.values)[n2:n2 + g.N]
    assert np.max(np.abs(conv - p2.values)) < 1e-5


def test_refinement_stability():
    m = exp_model(1.0)
    g = GridSpec(1, 128.0, 2 ** 14)
    a = invert(m, 0.5, g)
    b = invert(m, 0.5, g.refine(2))
    assert np.max(np.abs(b.values[::2] - a.values)) < 1e-7


def test_auto_grid_reasonable():
    g = auto_grid(cauchy_model(), 0.5)
    assert g.N >= 256 and g.L >= 5.0
    fld = invert(cauchy_model(), 0.5, g)
    assert abs(fld.mass - 1.0) < 1e-6


def test_cache_roundtrip(tmp_path):
    fld = invert(cauchy_model(), 0.25, GridSpec(1, 64.0, 2 ** 12))
    path = tmp_path / "field.tlvd"
    save_field(fld, path)
    raw = path.read_bytes()
    assert raw[:4] == CACHE_MAGIC == b"TLVD"
    back = load_field(path)
    assert back.t == fld.t
    assert back.grid == fld.grid
    np.testing.assert_array_equal(back.values, fld.values)
    assert back.mass == pytest.approx(fld.mass)


def test_field_csv(tmp_path):
    fld = invert(cauchy_model(), 0.25, GridSpec(1, 16.0, 256))
    path = tmp_path / "field.csv"
    field_to_csv(fld, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 256 + 1
    assert lines[0].split(",")[-1] == "p"


def test_two_dimensional_inversion_mass():
    m = stable_model(1.0, d=2)
    fld = invert(m, 1.0, GridSpec(2, 64.0, 1024))
    assert abs(fld.mass - 1.0) < 1e-4
    assert fld.symmetry_defect() <= 1e-9 * float(fld.values.max())


def test_on_diagonal_scan_small_t_rate():
    rows = on_diagonal_scan(stable_model(1.5), [0.25, 0.5, 1.0])
    # pure stable: p_t(0) t^{d/alpha} is constant in t
    scaled = [r[2] for r in rows]
    assert max(scaled) / min(scaled) < 1.0 + 1e-4

"""Fourier inversion of exp(-t Phi): grids, pointwise values, caching."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.signal import fftconvolve

from templevy import density
from templevy.charexp import phi_on_points
from templevy.decomp import split
from templevy.density import (
    CACHE_MAGIC,
    MAX_N,
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
    LevyModel,
    SpectralMeasure,
    cauchy_model,
    exp_model,
    poly_model,
    relativistic_model,
    stable_model,
)
from templevy.profiles import ExpTempered, PolyTempered


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


def test_at_needs_one_coordinate_per_axis():
    # one coordinate per axis: a d = 1 field does not read x_1 of a 2-D point
    f1 = invert(cauchy_model(), 1.0, GridSpec(1, 16.0, 1024))
    f2 = invert(poly_model(3.0, 1.5, d=2), 1.0, GridSpec(2, 20.0, 64))
    with pytest.raises(DomainError, match="d = 1 coordinates, not 2"):
        f1.at([0.5, 0.5])
    with pytest.raises(DomainError, match="d = 2 coordinates, not 1"):
        f2.at(0.5)
    assert f1.at(0.5) == f1.at([0.5])


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


def test_field_csv_in_d2_writes_every_node(tmp_path):
    fld = invert(poly_model(3.0, 1.5, d=2), 1.0, GridSpec(2, 20.0, 64))
    path = tmp_path / "field.csv"
    field_to_csv(fld, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,p"
    assert len(lines) == 64 ** 2 + 1
    ax = fld.grid.x_axis()
    for i, j in ((0, 0), (0, 63), (17, 40), (32, 32), (63, 5)):
        row = [float(c) for c in lines[1 + 64 * i + j].split(",")]
        assert row == [ax[i], ax[j], fld.values[i, j]]


def test_at_on_an_axis_field_in_d2_is_the_product_of_its_marginals():
    # p_t(x) = p1(x_1) p1(x_2), and bilinear interpolation of an outer
    # product is the product of the linear interpolations
    t, L, n = 0.5, 20.0, 512
    f2 = invert(exp_model(1.0, d=2), t, GridSpec(2, L, n))
    f1 = invert(exp_model(1.0), t, GridSpec(1, L, n))
    rng = np.random.default_rng(7)
    for x in rng.uniform(-3.0, 3.0, (40, 2)):
        assert f2.at(x) == pytest.approx(f1.at(x[0]) * f1.at(x[1]),
                                         rel=1e-15, abs=0.0)


def test_on_diagonal_scan_in_d2_is_the_square_of_the_d1_centre():
    m2, m1 = exp_model(1.0, d=2), exp_model(1.0)
    t_set = [0.5, 2.0]
    for t, row in zip(t_set, on_diagonal_scan(m2, t_set)):
        g = auto_grid(m2, t)
        p1 = invert(m1, t, GridSpec(1, g.L, g.N)).values[g.N // 2]
        assert row[1] == pytest.approx(p1 ** 2, rel=1e-12, abs=0.0)
        assert row[2] == pytest.approx(row[1] * t ** 2, rel=1e-12)


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


def _full_grid_values(model, t, grid):
    """The inversion on the whole dual grid, as a complex FFT of
    exp(-t Phi) at every frequency (fft2 in d = 2), before the clip."""
    xi = grid.xi_axis()
    if grid.d == 2:
        g1, g2 = np.meshgrid(xi, xi, indexing="ij")
        xi = np.stack([g1, g2], axis=-1)
    fhat = np.exp(-t * phi_on_points(model, xi))
    scale = (math.pi / grid.L / (2.0 * math.pi)) ** grid.d
    sgn = np.where(np.arange(grid.N) % 2 == 0, 1.0, -1.0)
    if grid.d == 1:
        return scale * sgn * np.fft.fft(sgn * fhat).real
    ph = np.outer(sgn, sgn)
    return scale * ph * np.fft.fft2(ph * fhat).real


def _d2_model(directions, weights, profiles, alpha=1.2):
    """A d = 2 atomic model with one profile per atom."""
    return LevyModel(d=2, alpha=alpha,
                     spectral=SpectralMeasure(d=2, directions=directions,
                                              weights=weights),
                     atom_profiles=profiles)


#: +-e1 and +-e2 with unlike profiles and weights: p_t(x1, x2) is a product
#: whose factors differ, so a transposed outer product would not match
UNLIKE_AXES = _d2_model([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                        [1.0, 1.0, 0.5, 0.5],
                        [PolyTempered(3.0)] * 2 + [ExpTempered(0.0, 2.0)] * 2)
#: the axes turned by 0.3: no pair on an axis, so Phi is no sum of axis terms
_C, _S = math.cos(0.3), math.sin(0.3)
OBLIQUE = _d2_model([[_C, _S], [-_C, -_S], [-_S, _C], [_S, -_C]],
                    [1.0] * 4, [PolyTempered(3.0)] * 4)


@pytest.mark.parametrize("model, t, grid", [
    (cauchy_model(), 1.0, GridSpec(1, 2048.0, 2 ** 17)),
    (poly_model(3.0, 1.0), 0.5, GridSpec(1, 256.0, 2 ** 16)),
    (exp_model(1.5), 0.1, GridSpec(1, 64.0, 2 ** 15)),
    (relativistic_model(1.0), 1.0, GridSpec(1, 128.0, 2 ** 14)),
    (split(poly_model(3.0, 1.0), 0.5).small, 0.5, GridSpec(1, 20.0, 2 ** 12)),
    (exp_model(1.5, d=2), 0.5, GridSpec(2, 32.0, 256)),
    (exp_model(1.2, d=2), 1.0, GridSpec(2, 16.0, 512)),
    (UNLIKE_AXES, 1.0, GridSpec(2, 32.0, 512)),
    (OBLIQUE, 0.5, GridSpec(2, 32.0, 512)),
], ids=["cauchy", "poly3", "exp1.5", "relativistic", "small", "exp1.5-d2",
        "exp1.2-d2", "unlike-axes-d2", "oblique-d2"])
def test_half_spectrum_inversion_matches_full_grid(model, t, grid):
    fld = invert(model, t, grid)
    ref = _full_grid_values(model, t, grid)
    assert fld.min_raw == pytest.approx(float(ref.min()),
                                        abs=1e-13 * float(ref.max()))
    np.testing.assert_allclose(fld.values, np.clip(ref, 0.0, None), rtol=0,
                               atol=1e-13 * float(ref.max()))


@pytest.mark.parametrize("model, grid, points", [
    (exp_model(1.5), GridSpec(1, 32.0, 2 ** 12), 2 ** 11 + 1),
    # pairs on the axes: the two half axes, (m pi/L, 0) and (0, m pi/L)
    (exp_model(1.5, d=2), GridSpec(2, 32.0, 128), 2 * 65),
    (OBLIQUE, GridSpec(2, 16.0, 128), 128 * 65),
], ids=["1-4096", "2-128", "2-128-oblique"])
def test_invert_reads_phi_on_the_half_spectrum(monkeypatch, model, grid,
                                               points):
    sizes = []

    def counted(model, xi):
        out = phi_on_points(model, xi)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(density, "phi_on_points", counted)
    invert(model, 0.5, grid)
    # one point per axis for the truncation estimate, then the half spectrum
    assert sorted(sizes) == [grid.d, points]


@pytest.mark.parametrize("alpha, c1, t, n", [
    (1.5, 0.8, 0.1, None), (1.0, 1.0, 0.1, 512), (1.2, 1.0, 0.1, 256),
    (0.5, 1.0, 1.0, 256), (1.0, 2.0, 0.3, 1024)])
def test_trunc_error_bounds_the_neglected_mass_in_d2(alpha, c1, t, n):
    # exp(-t Phi) = a(xi_1) a(xi_2) for an axis model: outside the square
    # [-Xi, Xi]^2 lies (2 A T - T^2) / (2 pi)^2, with A the integral of
    # a = exp(-t Phi_1) over the line and T its part beyond |xi_1| = Xi
    model = exp_model(alpha, 0.0, c1, d=2)
    grid = auto_grid(model, t)
    if n is not None:
        grid = GridSpec(2, grid.L, n)
    line = exp_model(alpha, 0.0, c1)
    a = lambda u: math.exp(-t * float(phi_on_points(line, [[u]])[0]))
    cut = grid.xi_cut
    inner, beyond = (2.0 * quad(a, lo, hi, epsabs=0.0, epsrel=1e-10,
                                limit=200)[0]
                     for lo, hi in ((0.0, cut), (cut, math.inf)))
    whole = inner + beyond
    neglected = (2.0 * whole * beyond - beyond ** 2) / (2.0 * math.pi) ** 2
    # the estimate invert attaches, read without the field: the coarse
    # grids here fail the ringing check
    trunc = density._trunc_estimate(model, t, grid)
    assert neglected <= trunc <= 100.0 * neglected


def test_axis_field_in_d2_peaks_near_its_size():
    model, t = exp_model(1.0, d=2), 0.1
    assert auto_grid(model, t).N == MAX_N[2]
    tracemalloc.start()
    try:
        fld = invert(model, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 32 MB field: no grid-sized Phi temporaries, no 2-D transform
    assert fld.values.nbytes == 8 * MAX_N[2] ** 2
    assert peak < 2.5 * fld.values.nbytes


def test_ringing_names_the_grid_cap():
    model, t = exp_model(0.5, 0.0, 1.0, d=2), 0.1
    assert auto_grid(model, t).N == MAX_N[2]
    with pytest.raises(GridError, match=rf"cap MAX_N\[2\] = {MAX_N[2]}"):
        invert(model, t)
    # below the cap a finer grid exists, and the message does not say cap
    with pytest.raises(GridError, match="grid too coarse$"):
        invert(model, t, GridSpec(2, 20.0, 256))


AXIS_MODELS = {
    "stable": lambda a: stable_model(a, d=2),
    "exp": lambda a: exp_model(a, d=2),
    "poly3": lambda a: poly_model(3.0, a, d=2),
}


@settings(derandomize=True, deadline=None, max_examples=30)
@given(kind=st.sampled_from(sorted(AXIS_MODELS)),
       alpha=st.floats(0.3, 1.95), log_t=st.floats(-2.0, 1.0))
def test_axis_fields_in_d2_keep_mass_and_symmetry(kind, alpha, log_t):
    """On auto_grid an axis model in d = 2 gives a field of mass 1 within
    its error estimates, symmetric under x -> -x and x1 <-> x2, or raises a
    GridError that names the cap that bound."""
    model, t = AXIS_MODELS[kind](alpha), 10.0 ** log_t
    try:
        fld = invert(model, t)
    except GridError as err:
        assert f"MAX_N[2] = {MAX_N[2]}" in str(err)
        return
    v = fld.values
    peak = float(v.max())
    assert abs(fld.mass - 1.0) <= 1e-6 + fld.trunc_error + fld.alias_error
    assert fld.symmetry_defect() <= 1e-12 * peak
    assert float(np.max(np.abs(v - v.T))) <= 1e-12 * peak

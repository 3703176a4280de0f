"""Transition densities by Fourier inversion of exp(-t Phi).

The density of the semigroup at time t is

    p_t(x) = (2 pi)^(-d) int exp(-i<x,xi>) exp(-t Phi(xi)) dxi,

computed on symmetric uniform grids (d = 1, 2) and pointwise in d = 1 by
adaptive (Fourier-weighted) quadrature.  The Levy measure is symmetric,
so Phi is real and even: a grid reads Phi on the half spectrum only,
xi_d = m pi / L for m = 0..N/2 on the last axis, and one real inverse
FFT (irfftn) divided by h^d gives the continuous transform on the
grid, centred by fftshift.  When every +- pair of the model lies on a
coordinate axis (each direction has exactly one nonzero entry: every
d = 1 model and every d = 2 factory model), Phi(xi) is the sum of the
Phi(xi_i e_i) and the semigroup is a product, p_t(x) = prod_i p_i(x_i):
Phi is read on the d half axes only, each is inverted by a 1-D irfft, and
the field is their outer product, with a d = 1 field as its one factor.
Oblique atoms and density spectral measures in d = 2 take the 2-D
transform.  Every other field operation is written once for every d,
the dimension being an index tuple or a loop bound.  Both
spectral-truncation and spatial-aliasing error estimates are attached
to every field.  The small-jump law of a
split measure is a model of its own (decomp.split cuts every profile at
eps) and goes through the same invert.
"""
from __future__ import annotations

import functools
import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .charexp import phi_on_points
from .errors import DomainError, GridError, NumericError, DegeneracyError
from .model import LevyModel, nu_tail
from .profiles import Truncated, tail_index

__all__ = [
    "GridSpec",
    "DensityField",
    "auto_grid",
    "invert",
    "density_at",
    "on_diagonal_scan",
    "save_field",
    "load_field",
    "field_to_csv",
]

CACHE_MAGIC = b"TLVD"
CACHE_VERSION = 1

#: fields clip ringing below zero only up to this fraction of the peak
RINGING_TOL = 1e-9

#: largest number of grid points per axis, by dimension
MAX_N = {1: 2 ** 22, 2: 2 ** 11}
#: auto_grid aims for spectral mass e^(-t Phi) below TAIL_TARGET past the
#: cutoff, and for jump mass t nu(|y| > L) below ALIAS_TARGET past the box
TAIL_TARGET, ALIAS_TARGET = 1e-12, 1e-10


@dataclass(frozen=True)
class GridSpec:
    """Symmetric uniform grid on [-L, L)^d with N points per axis.

    Spacing h = 2L/N; the dual grid has spacing pi/L and cutoff Xi = pi/h,
    so h * Xi = pi always.
    """

    d: int
    L: float
    N: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise GridError("d must be 1 or 2")
        if self.L <= 0:
            raise GridError("half-extent L must be positive")
        n = self.N
        if n < 64 or (n & (n - 1)) != 0:
            raise GridError("N must be a power of two, at least 64")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def xi_cut(self) -> float:
        return math.pi / self.h

    def x_axis(self) -> np.ndarray:
        return (np.arange(self.N) - self.N // 2) * self.h

    def xi_axis(self) -> np.ndarray:
        return (np.arange(self.N) - self.N // 2) * (math.pi / self.L)

    def refine(self, factor: int = 2) -> "GridSpec":
        return GridSpec(self.d, self.L, self.N * factor)

    def widen(self, factor: float = 2.0) -> "GridSpec":
        """Double the extent keeping the spacing (N scales with L)."""
        n = self.N
        while n * self.h / 2.0 < self.L * factor:
            n *= 2
        return GridSpec(self.d, self.L * factor, n)


@dataclass(frozen=True)
class DensityField:
    """p_t sampled on a GridSpec, with error estimates.

    values are clipped at zero after checking that pre-clip ringing stayed
    above -RINGING_TOL * max; trunc_error bounds the neglected spectral
    tail, alias_error estimates folded-in mass from beyond the box.
    """

    grid: GridSpec
    t: float
    values: np.ndarray = field(repr=False)
    mass: float
    trunc_error: float
    alias_error: float
    min_raw: float

    def __post_init__(self):
        self.values.setflags(write=False)

    def symmetry_defect(self) -> float:
        """max |p(x) - p(-x)| over the grid (excluding the unpaired edge)."""
        w = self.values[(slice(1, None),) * self.grid.d]
        return float(np.max(np.abs(w - np.flip(w))))

    def at(self, x) -> float:
        """Multilinear interpolation: the 2^d nodes around x, contracted
        one axis at a time (linear in d = 1, bilinear in d = 2)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        g = self.grid
        if x.shape != (g.d,):
            raise DomainError(f"a point needs d = {g.d} coordinates, "
                              f"not {x.size}")
        if (np.abs(x) >= g.L - g.h).any():
            raise DomainError("point outside the grid")
        idx = (x + g.L) / g.h
        i0 = np.floor(idx).astype(int)
        # Python scalars: numpy scalars cost about a third more per call
        v = self.values[tuple(slice(i, i + 2) for i in i0.tolist())]
        for f in (idx - i0).tolist():
            v = (1 - f) * v[0] + f * v[1]
        return float(v)


def _axis_phi(model: LevyModel, cut: float) -> float:
    """min over the axes e_i of Phi(cut e_i), where the grid is weakest:
    for an axis model the diagonal point of the circle |xi| = cut has the
    largest Phi on it."""
    return float(phi_on_points(model, cut * np.eye(model.d)).min())


def _trunc_estimate(model: LevyModel, t: float, grid: GridSpec) -> float:
    """Neglected spectral mass (1/2pi)^d int_{|xi|>Xi} exp(-t Phi)."""
    cut = grid.xi_cut
    pc = _axis_phi(model, cut)
    a = model.alpha
    decay = max(t * pc * a, 1.0)
    surface = 2.0 if model.d == 1 else 2.0 * math.pi * cut
    return surface * cut * math.exp(-t * pc) / decay / (2 * math.pi) ** model.d


def invert(model: LevyModel, t: float, grid: GridSpec = None) -> DensityField:
    """Density field p_t on the grid (auto-sized when grid is None)."""
    if t <= 0:
        raise DomainError("t must be positive")
    if grid is None:
        grid = auto_grid(model, t)
    if model.d != grid.d:
        raise GridError("grid dimension does not match the model")
    if model.d == 2 and model.degenerate:
        raise DegeneracyError("degenerate spectral measure in d=2: "
                              "the density may not exist")
    trunc = _trunc_estimate(model, t, grid)
    # exp(-t Phi) on the half spectrum, xi_d = m pi / L for m = 0..N/2
    # (the other axis in FFT order): Phi is real and even, so the inverse
    # transform is one real inverse FFT, over h^d for the continuous one
    n, step = grid.N, math.pi / grid.L
    xi = np.arange(n // 2 + 1) * step
    product = all(np.count_nonzero(theta) == 1 for _, _, theta in model.pairs)
    if product:
        # every pair on an axis (always so in d = 1): Phi(xi) is the sum of
        # Phi(xi_i e_i), so p_t is the product of the p_i(x_i), one row of
        # xi per axis (psi(0) = 0)
        xi = np.eye(grid.d)[:, None, :] * xi[:, None]
    else:
        xi = np.stack(np.meshgrid(np.fft.fftfreq(n, 1.0 / n) * step, xi,
                                  indexing="ij", copy=False), axis=-1)
    fhat = phi_on_points(model, xi)
    fhat *= -t  # in place: at N = 2^11 in d = 2 every copy costs 17 MB
    np.exp(fhat, out=fhat)
    k = 1 if product else grid.d  # transformed axes, the last k
    axes = tuple(range(-k, 0))
    v = np.fft.irfftn(fhat, s=(n,) * k, axes=axes)
    v = np.fft.fftshift(v, axes=axes)  # x = 0 to index N/2
    v /= grid.h ** k
    if product:
        v = functools.reduce(np.multiply.outer, v)  # axis 0 is x_1
    mn = float(v.min())
    if mn < -RINGING_TOL * max(float(v.max()), 1e-300):
        cap = (f", and N is at the cap MAX_N[{grid.d}] = {n}"
               if n == MAX_N[grid.d] else "")
        raise GridError(f"negative ringing {mn:.3e} exceeds tolerance: "
                        f"grid too coarse{cap}")
    # v is fresh, so d = 2 clips in place (32 MB at the cap); d = 1 keeps
    # the copy its perfbench timings were taken with
    v = np.clip(v, 0.0, None, out=v if grid.d == 2 else None)
    # aliasing estimate: edge value approximates the folded tail density
    edge = max(float(np.take(v, 0, axis=i).max()) for i in range(grid.d))
    return DensityField(grid=grid, t=t, values=v,
                        mass=float(v.sum()) * grid.h ** grid.d,
                        trunc_error=trunc, alias_error=2.0 * edge, min_raw=mn)


def auto_grid(model: LevyModel, t: float) -> GridSpec:
    """Default grid: extent from the jump tail, cutoff from Phi growth."""
    a = model.alpha
    L = max(10.0 * t ** (1.0 / a), 10.0)
    # grow the box until the mass the process can park beyond it is tiny
    # (capped: folded-back tail mass is reported via alias_error instead)
    while t * nu_tail(model, L) > ALIAS_TARGET and L < 4096.0:
        L *= 2.0
    target = -math.log(TAIL_TARGET)
    cut = _cutoff(model, t, target)
    n = 2 ** int(math.ceil(math.log2(max(2.0 * L * cut / math.pi, 64.0))))
    n_cap = MAX_N[model.d]
    n = min(max(n, 256), n_cap)
    # the power-law inversion above misjudges the cutoff when it falls in
    # the quadratic regime of Phi; verify against the actual exponent
    while n < n_cap:
        if t * _axis_phi(model, GridSpec(model.d, L, n).xi_cut) >= target:
            break
        n *= 2
    return GridSpec(model.d, L, n)


def _cutoff(model: LevyModel, t: float, target: float) -> float:
    """Radius |xi| where t Phi reaches `target`, taking Phi = c |xi|^alpha.

    c is read off Phi on the diagonal at the radius u0 = max(10, 10 / s0),
    past the quadratic regime of a measure cut at s0 (profiles.Truncated).
    """
    a = model.alpha
    s0 = min((q.s0 for _, q in model.profiles_and_weights()
              if isinstance(q, Truncated)), default=math.inf)
    u0 = max(10.0, 10.0 / s0)
    e = np.ones(model.d) / math.sqrt(model.d)
    c_est = float(phi_on_points(model, (u0 * e)[None, :])[0]) / u0 ** a
    return (target / max(t * c_est, 1e-300)) ** (1.0 / a)


def density_at(model: LevyModel, t: float, x: float) -> float:
    """Pointwise p_t(x) in d = 1 by cosine-weighted quadrature."""
    if model.d != 1:
        raise DomainError("pointwise evaluation is d=1 only")
    if t <= 0:
        raise DomainError("t must be positive")
    x = abs(float(np.asarray(x, dtype=float).reshape(())))
    g = lambda xi: math.exp(-t * float(phi_on_points(model, xi)))
    U = _cutoff(model, t, 40.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(g, 0.0, U, weight="cos", wvar=x, epsabs=1e-13,
                        epsrel=1e-11, limit=500)
    if not math.isfinite(val) or err > 1e-6 * max(abs(val), 1e-9):
        raise NumericError("pointwise inversion did not converge",
                           estimate=val)
    return max(val / math.pi, 0.0)


def on_diagonal_scan(model: LevyModel, t_set) -> list:
    """Rows (t, p_t(0), p_t(0) t^(d/alpha), p_t(0) t^(d/beta))."""
    beta = max(tail_index(q, model.alpha)
               for _, q in model.profiles_and_weights())
    rows = []
    for t in sorted(t_set):
        if model.d == 1:
            p0 = density_at(model, t, 0.0)  # pointwise exists in d = 1 only
        else:
            fld = invert(model, t)
            p0 = float(fld.values[(fld.grid.N // 2,) * model.d])
        rows.append((float(t), p0,
                     p0 * t ** (model.d / model.alpha),
                     p0 * t ** (model.d / beta)))
    return rows


# ---------------------------------------------------------------------------
# binary cache and CSV export

_HEADER = struct.Struct("<4sIIIddd")


def save_field(fld: DensityField, path) -> None:
    with open(path, "wb") as f:
        f.write(_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, fld.grid.d,
                             fld.grid.N, fld.grid.L, fld.t, fld.trunc_error))
        f.write(struct.pack("<dd", fld.alias_error, fld.min_raw))
        f.write(np.ascontiguousarray(fld.values, dtype="<f8").tobytes())


def load_field(path) -> DensityField:
    with open(path, "rb") as f:
        hdr = f.read(_HEADER.size)
        if len(hdr) < _HEADER.size:
            raise DomainError("truncated density cache file")
        magic, ver, d, n, L, t, trunc = _HEADER.unpack(hdr)
        if magic != CACHE_MAGIC:
            raise DomainError("not a density cache file")
        if ver != CACHE_VERSION:
            raise DomainError(f"unsupported cache version {ver}")
        alias, min_raw = struct.unpack("<dd", f.read(16))
        grid = GridSpec(d, L, n)
        vals = np.frombuffer(f.read(), dtype="<f8").reshape((n,) * d).copy()
    mass = float(vals.sum()) * grid.h ** d
    return DensityField(grid=grid, t=t, values=vals, mass=mass,
                        trunc_error=trunc, alias_error=alias, min_raw=min_raw)


def field_to_csv(fld: DensityField, out) -> None:
    """Write the field as CSV to `out`, a path or an open text stream."""
    if not hasattr(out, "write"):
        with open(out, "w") as f:
            field_to_csv(fld, f)
        return
    d = fld.grid.d
    out.write("x,p\n" if d == 1
              else "".join(f"x{i + 1}," for i in range(d)) + "p\n")
    cols = np.meshgrid(*(fld.grid.x_axis(),) * d, indexing="ij")
    np.savetxt(out, np.column_stack([c.ravel() for c in cols]
                                    + [fld.values.ravel()]),
               fmt="%.17g", delimiter=",")

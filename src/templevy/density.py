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
values_at, which sums only the live nodes, reads each half axis only up
to where Phi passes the live bound of its smallest t, when every pair's
psi is certified non-decreasing (charexp.PsiTable.monotone), and whole
otherwise.  Oblique atoms and density spectral measures in d = 2 take
the 2-D transform.  Every other field operation is written once for
every d, the dimension being an index tuple or a loop bound.  Both
spectral-truncation and spatial-aliasing error estimates are attached
to every field.  The small-jump law of a
split measure is a model of its own (decomp.split cuts every profile at
eps) and goes through the same invert.
"""
from __future__ import annotations

import bisect
import functools
import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .charexp import U_HI, _phi_monotone, phi_on_points
from .errors import DomainError, GridError, NumericError, DegeneracyError
from .model import LevyModel, nu_tail
from .profiles import Truncated

__all__ = [
    "GridSpec",
    "DensityField",
    "auto_grid",
    "invert",
    "values_at",
    "density_at",
    "save_field",
    "load_field",
    "field_to_csv",
]

CACHE_MAGIC = b"TLVD"
CACHE_VERSION = 1

#: fields clip ringing below zero only up to this fraction of the peak
RINGING_TOL = 1e-9

#: spectral nodes per block of values_at's matrix product
BLOCK = 256
#: a prefix read of Phi (_half_phi) ends at the first node where Phi
#: exceeds the live bound by PREFIX_MARGIN, relative, found on probe nodes
#: about PROBE_RATIO apart
PREFIX_MARGIN, PROBE_RATIO = 1e-12, 1.05

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

    def widen(self, factor: float) -> "GridSpec":
        """Scale L by factor at no coarser spacing: N doubles to cover it."""
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


def _trunc_estimate(model: LevyModel, t, grid: GridSpec):
    """Neglected spectral mass (1/2pi)^d int_{|xi|>Xi} exp(-t Phi), at a
    float t, or a list of one per t of a sequence, on one read of Phi at
    the cutoff."""
    cut = grid.xi_cut
    pc = _axis_phi(model, cut)
    a = model.alpha
    surface = 2.0 if model.d == 1 else 2.0 * math.pi * cut
    est = [surface * cut * math.exp(-tk * pc) / max(tk * pc * a, 1.0)
           / (2 * math.pi) ** model.d for tk in np.ravel(t).tolist()]
    return est if np.ndim(t) else est[0]


def _too_coarse(grid: GridSpec) -> str:
    """The end of a GridError on resolution; it names the cap when N is at
    or above it, where no finer grid is on offer."""
    n_cap = MAX_N[grid.d]
    cap = (f", and N = {grid.N} is at or above the cap MAX_N[{grid.d}] = "
           f"{n_cap}" if grid.N >= n_cap else "")
    return "grid too coarse" + cap


def _check_grid(model: LevyModel, grid: GridSpec) -> None:
    if model.d != grid.d:
        raise GridError("grid dimension does not match the model")
    if model.d == 2 and model.degenerate:
        raise DegeneracyError("degenerate spectral measure in d=2: "
                              "the density may not exist")


def _half_phi(model: LevyModel, grid: GridSpec, live: float = None) -> tuple:
    """(product, Phi) on the half spectrum, xi_d = m pi / L for m = 0..N/2
    (the other axis in FFT order, m = fftfreq(N, 1/N)).

    product: every pair lies on an axis (always so in d = 1), so Phi(xi)
    is the sum of the Phi(xi_i e_i) and p_t the product of the p_i(x_i);
    Phi is then read on the d half axes, one row per axis (psi(0) = 0).

    live: the largest live bound its caller will sum (values_at).  When
    it is given on the product path and Phi is certified non-decreasing
    along the axes (charexp._phi_monotone), each row is read only up to
    the first node where Phi exceeds live by PREFIX_MARGIN, found on one
    probe of geometrically spaced nodes; the nodes past it are +inf.
    Every node beyond holds a Phi at least as large, past every live
    prefix.  Otherwise, and on the 2-D path, the half spectrum is read
    whole.  Every node read holds the same Phi either way.
    """
    _check_grid(model, grid)
    n, step = grid.N, math.pi / grid.L
    xi = np.arange(n // 2 + 1) * step
    product = all(np.count_nonzero(theta) == 1 for _, _, theta in model.pairs)
    if not product:
        xi = np.stack(np.meshgrid(np.fft.fftfreq(n, 1.0 / n) * step, xi,
                                  indexing="ij", copy=False), axis=-1)
        return product, phi_on_points(model, xi)
    axes = np.eye(grid.d)[:, None, :]
    if live is None or not _phi_monotone(model):
        return product, phi_on_points(model, axes * xi[:, None])
    last = n // 2
    probe = np.unique(np.geomspace(1, last, 2 + math.ceil(
        math.log(last) / math.log(PROBE_RATIO))).round().astype(int))
    over = phi_on_points(model, axes * xi[probe, None]) > live * (
        1.0 + PREFIX_MARGIN)
    phi = np.full((grid.d, last + 1), math.inf)
    for row, ax, hit in zip(phi, axes, over):
        k = probe[np.argmax(hit)] + 1 if hit.any() else last + 1
        row[:k] = phi_on_points(model, ax * xi[:k, None])
    return product, phi


def _sub_half(half: tuple, n: int) -> tuple:
    """The half spectrum of n points per axis, taken from `half`, _half_phi
    read on the refined scan grid (the same L, twice the n points): its
    nodes include these, m on the last axis and, in FFT order, on the
    other, so this is a slice, bitwise the same Phi."""
    product, phi = half
    if not product:
        k = phi.shape[0]
        phi = phi[np.r_[:n // 2, k - n // 2:k]]
    return product, phi[..., :n // 2 + 1]


def invert(model: LevyModel, t: float, grid: GridSpec = None) -> DensityField:
    """Density field p_t on the grid (auto-sized when grid is None)."""
    if t <= 0:
        raise DomainError("t must be positive")
    if grid is None:
        grid = auto_grid(model, t)
    trunc = _trunc_estimate(model, t, grid)
    # Phi is real and even, so the inverse transform is one real inverse
    # FFT, over h^d for the continuous one
    n = grid.N
    product, fhat = _half_phi(model, grid)
    fhat *= -t  # in place: at N = 2^11 in d = 2 every copy costs 17 MB
    np.exp(fhat, out=fhat)
    k = 1 if product else grid.d  # transformed axes, the last k
    axes = tuple(range(-k, 0))
    v = np.fft.irfftn(fhat, s=(n,) * k, axes=axes)
    v = np.fft.fftshift(v, axes=axes)  # x = 0 to index N/2
    v /= grid.h ** k
    if product:
        # the extremes of an outer product are products of its factors'
        # extremes, and rounding is monotone: these are the field's own
        ranges = [(float(f.min()), float(f.max())) for f in v]
        mn, peak = _outer_range(ranges)
        # the edge x_i = -L: f_i(-L) times the other factors
        edge = max(_outer_range(ranges[:i] + [(float(f[0]),) * 2]
                                + ranges[i + 1:])[1] for i, f in enumerate(v))
        v = functools.reduce(np.multiply.outer, v)  # axis 0 is x_1
    else:
        mn, peak = float(v.min()), float(v.max())
        edge = max(float(np.take(v, 0, axis=i).max()) for i in range(grid.d))
    if mn < -RINGING_TOL * max(peak, 1e-300):
        raise GridError(f"negative ringing {mn:.3e} exceeds tolerance: "
                        f"{_too_coarse(grid)}")
    # v is fresh, so d = 2 clips in place (32 MB at the cap); d = 1 keeps
    # the copy its perfbench timings were taken with
    v = np.clip(v, 0.0, None, out=v if grid.d == 2 else None)
    # aliasing estimate: the clipped edge value approximates the folded
    # tail density
    return DensityField(grid=grid, t=t, values=v,
                        mass=float(v.sum()) * grid.h ** grid.d,
                        trunc_error=trunc, alias_error=2.0 * max(0.0, edge),
                        min_raw=mn)


def _outer_range(ranges: list) -> tuple:
    """(min, max) of the outer product of factors with these (min, max)."""
    lo, hi = ranges[0]
    for a, b in ranges[1:]:
        ends = (lo * a, lo * b, hi * a, hi * b)
        lo, hi = min(ends), max(ends)
    return lo, hi


def values_at(model: LevyModel, t_set, grid: GridSpec, points) -> np.ndarray:
    """p_t at arbitrary points, one row per t of t_set, one column per point.

    Each value is the trapezoid sum that invert's irfftn takes, read at
    the point instead of at the nodes (at a node it is invert's value
    before the clip): (2L)^-d sum_m w_m exp(-t Phi(xi_m)) cos(<xi_m, x>)
    over invert's half spectrum, w_m = 2 but 1 where m_d is 0 or N/2.
    Phi is read once and shared by every t (a scan that holds the half
    spectrum already passes it to _values_at).  Each t sums only the live
    nodes, those before t Phi passes ln(N^d / eps) for good: every node
    left out holds less than eps / N^d of the node at xi = 0, where
    Phi = 0, so all of them together hold less than eps of p_t(0).  On
    the axis path Phi is read only up to the live prefix of the smallest
    t when its certificate allows (_half_phi; an uncertified Phi is read
    whole), and each 1-D sum is a cosine series, read once per distinct
    |x_i|: x and -x give bitwise the same value there.
    """
    return _values_at(model, t_set, grid, points)


def _live(grid: GridSpec, t) -> np.ndarray:
    """ln(N^d / eps) / t per t: the live bound of values_at."""
    return math.log(grid.N ** grid.d / np.finfo(float).eps) / np.asarray(
        t, dtype=float)


def _values_at(model: LevyModel, t_set, grid: GridSpec, points,
               half: tuple = None) -> np.ndarray:
    """values_at on `half`, grid's _half_phi (read here when None)."""
    t = np.asarray(t_set, dtype=float).reshape(-1)
    if not np.all(t > 0):
        raise DomainError("t must be positive")
    _check_grid(model, grid)
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[1] != grid.d:
        raise DomainError(f"points need d = {grid.d} coordinates each")
    if (np.abs(x) > grid.L).any():
        raise DomainError("point outside the grid")
    theta = x * (math.pi / grid.L)  # <xi_m, x> = <m, theta>
    live = _live(grid, t)
    product, phi = (half if half is not None
                    else _half_phi(model, grid, float(live.max())))
    if product:
        # one 1-D sum per axis, their product the value
        out = functools.reduce(np.multiply, (
            _line_sums(row, t, live, th) for row, th in zip(phi, theta.T)))
    else:
        out = _plane_sums(phi, t, live, theta)
    return out / (2.0 * grid.L) ** grid.d


def _phases(m: np.ndarray, theta: np.ndarray) -> tuple:
    """cos and sin of m theta, one row per m, one column per theta."""
    a = np.multiply.outer(m, theta)
    return np.cos(a), np.sin(a)


def _line_sums(phi: np.ndarray, t: np.ndarray, live: np.ndarray,
               theta: np.ndarray) -> np.ndarray:
    """sum_m w_m exp(-t phi_m) cos(m theta) for m = 0..M, w_m = 2 but 1
    at both ends: one row per t, summed up to the last m with
    phi_m <= live, one column per theta.  phi may be +inf past the nodes
    read (a prefix read of _half_phi); the ends come from those read, by
    one binary search per t where they are non-decreasing, else by their
    suffix minimum.

    A cosine series is even in theta, so each distinct |theta| is summed
    once and its column copied to every theta of that size.  The
    prefixes of every t are cut into blocks of BLOCK nodes,
    m = b BLOCK + j, and stacked: one matrix product with the table of
    e^(i j theta) sums each block, and the phase e^(i b BLOCK theta)
    puts it in place."""
    theta, back = np.unique(np.abs(theta), return_inverse=True)
    # the nodes read: phi is finite up to there and +inf past it
    read = phi[:bisect.bisect_left(phi, math.inf)]
    if (read[1:] >= read[:-1]).all():
        ends = np.searchsorted(read, live, side="right")
    else:
        # no node beyond the last with phi <= max(live) ends a prefix
        top = read.size - int(np.argmax(read[::-1] <= live.max()))
        tail_min = np.minimum.accumulate(read[top - 1::-1])[::-1]
        ends = np.searchsorted(tail_min, live, side="right")
    # ends >= 1: phi_0 = 0
    blocks = -(-ends // BLOCK)
    terms = np.zeros(int(blocks.sum()) * BLOCK)
    w = np.full(int(ends.max()), 2.0)
    w[0] = 1.0
    w[phi.size - 1:] = 1.0  # m = M, where a prefix reaches it
    start = 0
    for tk, end, nb in zip(t, ends, blocks):
        seg = terms[start:start + end]
        np.multiply(phi[:end], -tk, out=seg)
        np.exp(seg, out=seg)
        seg *= w[:end]
        start += nb * BLOCK
    cos_j, sin_j = _phases(np.arange(BLOCK), theta)
    sums = terms.reshape(-1, BLOCK) @ np.hstack([cos_j, sin_j])
    cos_b, sin_b = _phases(np.arange(int(blocks.max())) * BLOCK, theta)
    b = np.concatenate([np.arange(nb) for nb in blocks])
    k = theta.size
    placed = cos_b[b] * sums[:, :k] - sin_b[b] * sums[:, k:]
    starts = np.cumsum(blocks) - blocks
    return np.add.reduceat(placed, starts, axis=0)[:, back]


def _plane_sums(phi: np.ndarray, t: np.ndarray, live: np.ndarray,
                theta: np.ndarray) -> np.ndarray:
    """sum_k w_k exp(-t phi_k) cos(<k, theta>) over the half plane of
    _half_phi (k_1 in FFT order, w = 2 but 1 where k_2 is 0 or N/2), one
    row per t, one column per point: cos(a + b) = cos a cos b -
    sin a sin b makes it two matrix products per t.  A t sums only the
    rows and columns that hold a node with phi <= live."""
    n = phi.shape[0]
    k1 = np.fft.fftfreq(n, 1.0 / n)
    k2 = np.arange(phi.shape[1])
    w = np.full(k2.size, 2.0)
    w[[0, -1]] = 1.0
    row_min, col_min = phi.min(axis=1), phi.min(axis=0)
    out = np.empty((t.size, theta.shape[0]))
    for i, (tk, lk) in enumerate(zip(t, live)):
        rows = np.flatnonzero(row_min <= lk)
        cols = np.flatnonzero(col_min <= lk)
        f = np.exp(-tk * phi[np.ix_(rows, cols)]) * w[cols]
        cos_1, sin_1 = _phases(k1[rows], theta[:, 0])
        cos_2, sin_2 = _phases(k2[cols], theta[:, 1])
        out[i] = ((cos_1 * (f @ cos_2)).sum(axis=0)
                  - (sin_1 * (f @ sin_2)).sum(axis=0))
    return out


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
    """Pointwise p_t(x) in d = 1 by cosine-weighted quadrature on [0, U].

    U starts at the power-law guess _cutoff(model, t, 40) and doubles
    until t Phi(U) reaches 40 on the actual Phi (a guess that reaches it
    up to rounding stays), since the guess falls short where Phi is still
    quadratic.  Where Phi is certified non-decreasing
    (charexp._phi_monotone), t Phi >= 40 then holds on all of [U, inf).
    A U that would pass the psi tables' range raises NumericError.
    """
    if model.d != 1:
        raise DomainError("pointwise evaluation is d=1 only")
    if t <= 0:
        raise DomainError("t must be positive")
    x = abs(float(np.asarray(x, dtype=float).reshape(())))
    g = lambda xi: math.exp(-t * float(phi_on_points(model, xi)))
    U = _cutoff(model, t, 40.0)
    while t * float(phi_on_points(model, U)) < 40.0 * (1.0 - 1e-12):
        U *= 2.0
        if U > U_HI:
            raise NumericError("t Phi reaches 40 only above the psi tables' "
                               f"range, U_HI = {U_HI:g}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(g, 0.0, U, weight="cos", wvar=x, epsabs=1e-13,
                        epsrel=1e-11, limit=500)
    if not math.isfinite(val) or err > 1e-6 * max(abs(val), 1e-9):
        raise NumericError("pointwise inversion did not converge",
                           estimate=val)
    return max(val / math.pi, 0.0)


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

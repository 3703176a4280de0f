"""Splitting the jump measure at radius eps.

nu is cut into a small-jump part (radii < eps), a model of its own whose
profiles are cut at eps (profiles.Truncated) and whose semigroup density
p~_t is smooth and obtained by density.invert, and a finite big-jump part
nubar with total mass lambda, whose semigroup is the compound Poisson law

    Pbar_t = e^(-t lambda) sum_n t^n nubar^(n*) / n!
           = e^(-t lambda) exp(t nubar)   (convolution exponential),

computed on the grid as one exponential in frequency space by FFT, not as
a truncated series.  Every convolution here, recompose's too, is a
product of real FFTs on the grid zero-padded to 2N.

The product identity p_t = p~_t * Pbar_t is the main quantitative check:
both sides are computed by independent discretizations and compared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.fft as sfft

from .charexp import phi_on_points
from .density import MAX_N, DensityField, GridSpec, _cutoff, invert
from .errors import DomainError, GridError
from .model import LevyModel, _tail_table, nu_tail
from .profiles import Truncated, tail_index

__all__ = [
    "SplitMeasure",
    "CompoundPoissonField",
    "default_eps",
    "split",
    "local_auto_grid",
    "local_density",
    "local_moment",
    "bounded_cell_masses",
    "compound_poisson",
    "recompose",
    "frequency_identity_defect",
    "convolution_ball_check",
    "local_lower_check",
]

@dataclass(frozen=True)
class SplitMeasure:
    """nu cut at eps: big-jump mass lam, small-jump model with cut profiles."""

    model: LevyModel
    eps: float
    lam: float
    small: LevyModel


@dataclass(frozen=True)
class CompoundPoissonField:
    """Pbar_t on a grid: atom at zero plus an absolutely continuous part."""

    grid: GridSpec
    t: float
    lam: float
    atom_weight: float
    ac: np.ndarray = field(repr=False)
    tail_bound: float
    overflow: float

    def ac_mass(self) -> float:
        return float(self.ac.sum()) * self.grid.h ** self.grid.d


def default_eps(model: LevyModel, t: float) -> float:
    """Cut radius matched to the diffusive scale of each time regime."""
    if t <= 1.0:
        return t ** (1.0 / model.alpha)
    beta = max(tail_index(q, model.alpha)
               for _, q in model.profiles_and_weights())
    return t ** (1.0 / beta)


def split(model: LevyModel, eps: float) -> SplitMeasure:
    if eps <= 0:
        raise DomainError("eps must be positive")
    cut = lambda q: q and Truncated(eps, q)  # None stays None
    small = replace(model, profile=cut(model.profile),
                    atom_profiles=model.atom_profiles and tuple(
                        map(cut, model.atom_profiles)))
    return SplitMeasure(model=model, eps=eps, lam=nu_tail(model, eps),
                        small=small)


def local_auto_grid(sm: SplitMeasure, t: float,
                    extent_mult: float = 20.0) -> GridSpec:
    """Grid sized to the small-jump semigroup at scale t^(1/alpha)."""
    if t <= 0:
        raise DomainError("t must be positive")
    m = sm.small
    L = max(extent_mult * t ** (1.0 / m.alpha), extent_mult * sm.eps)
    cut = _cutoff(m, t, 45.0)
    n = 2 ** int(math.ceil(math.log2(max(2.0 * L * cut / math.pi, 64.0))))
    return GridSpec(m.d, L, min(max(n, 512), MAX_N[m.d]))


def local_density(sm: SplitMeasure, t: float,
                  grid: GridSpec = None) -> DensityField:
    """p~_t, the density of the small-jump model sm.small, by inversion."""
    return invert(sm.small, t, grid or local_auto_grid(sm, t))


def local_moment(sm: SplitMeasure, t: float, n: int,
                 grid: GridSpec = None) -> float:
    """2n-th absolute moment of p~_t on the grid, with a tail sanity check."""
    if n not in (1, 2, 3):
        raise DomainError("moment order n must be 1, 2, or 3")
    if grid is None:
        grid = local_auto_grid(sm, t, extent_mult=30.0)
    fld = local_density(sm, t, grid)
    r2 = sum(g**2 for g in np.meshgrid(*(grid.x_axis(),) * grid.d,
                                       indexing="ij"))
    contrib = r2 ** n * fld.values * grid.h ** grid.d
    moment = float(contrib.sum())
    tail = float(contrib[np.sqrt(r2) > 0.9 * grid.L].sum())
    if tail > 0.01 * moment:
        raise GridError("grid too small: moment tail correction exceeds 1%")
    return moment


def bounded_cell_masses(sm: SplitMeasure, grid: GridSpec) -> np.ndarray:
    """Big-jump measure nubar per grid cell (d = 1).

    Along each atom the cell [x - h/2, x + h/2] holds w (W(a) - W(b)) with
    its edges a < b taken as radii and clipped below at eps, W being the
    model's tail table.  The cells at +-kh see the same radii: each +-
    pair reads W once on the N/2 + 2 distinct ones, eps and (j - 1/2) h
    for j = 1..N/2 + 1, and mirrors its half-pair masses onto the grid.
    The origin cell holds both atoms of a pair; the cell at -L, whose
    outer edge -L - h/2 has no partner, only the atom at -1.  The masses
    telescope to w W(eps) less the mass beyond the window.
    """
    if grid.d != 1:
        raise DomainError("gridded big-jump measure is d=1 only")
    n2 = grid.N // 2
    radii = np.maximum(np.arange(n2 + 1) * grid.h + grid.h / 2.0, sm.eps)
    half = np.zeros(n2 + 1)  # one atom's cells at 0, h, ..., L
    for w, q, _ in sm.model.pairs:
        tail = _tail_table(q, sm.model.alpha)(np.append(sm.eps, radii))
        half -= w / 2.0 * np.diff(tail)
    masses = np.empty(grid.N)
    masses[n2:] = half[:n2]
    masses[:n2] = half[:0:-1]
    masses[n2] *= 2.0
    return masses


def _padded_rfft(values: np.ndarray) -> np.ndarray:
    """rfft of a field on [-L, L) zero-padded to 2N, x = 0 at index 0.

    The padded grid has period 4L, so frequency m pi / L is bin 2|m|.  Two
    fields span 2N - 1 points together: the product of their transforms
    is their linear convolution, with no wrap.
    """
    n2 = len(values) // 2
    padded = np.zeros(4 * n2)
    padded[:n2] = values[n2:]
    padded[-n2:] = values[:n2]
    return sfft.rfft(padded)


def _window(padded: np.ndarray) -> np.ndarray:
    """The N-point window [-L, L) of a 2N-point array indexed as above."""
    n2 = len(padded) // 4
    return np.concatenate((padded[-n2:], padded[:n2]))


def compound_poisson(sm: SplitMeasure, t: float, grid: GridSpec,
                     tol: float = 1e-10) -> CompoundPoissonField:
    """Pbar_t on the grid as one exponential in frequency space (d = 1).

    The a.c. part is e^(-t lam) IFFT(expm1(t nuhat)) on the grid padded to
    2N, cropped to the window: the transform carries every convolution
    power of nubar (recompose convolves on the same padded transform,
    _padded_rfft).  `tail_bound` bounds the mass deficit plus the L1
    error on the window against the exact lattice law: the cropped mass,
    the mass folded back by the period 4L (Chebyshev, |S| >= 3L), and the
    mass of nubar beyond the window.  `tol` changes no output, since the
    gate on that mass is decided by its 1e-3 clause; it stays, validated,
    because callers (perfbench's split workload) pass it positionally.
    """
    if grid.d != 1:
        raise DomainError("the compound-Poisson law is d=1 only")
    if not 0.0 < tol <= 1e-3:
        raise DomainError("tol must lie in (0, 1e-3]")
    lam = sm.lam
    mu = t * lam
    atom = math.exp(-mu)
    if mu == 0.0:
        return CompoundPoissonField(grid=grid, t=t, lam=lam, atom_weight=1.0,
                                    ac=np.zeros(grid.N), tail_bound=0.0,
                                    overflow=0.0)
    masses = bounded_cell_masses(sm, grid)
    overflow = lam - float(masses.sum())
    if overflow > max(tol, 1e-6 * lam) and overflow > 1e-3:
        raise GridError(
            f"big-jump mass {overflow:.3e} falls outside the grid")
    # e^(-mu) (exp(t nuhat) - 1), in place on the transform
    spec = _padded_rfft(masses)
    spec *= t
    if mu < 700.0:
        # |t nuhat| <= mu: expm1 cannot overflow, and keeps small mu exact
        np.expm1(spec, out=spec)
        spec *= atom
    else:
        spec -= mu
        np.exp(spec, out=spec)
        spec -= atom
    padded = sfft.irfft(spec, 2 * grid.N)
    ac = _window(padded)
    cropped = float(padded.sum()) - float(ac.sum())
    # E S^2 of the lattice law: variance plus the squared mean (the mean
    # is the unpaired edge cell's alone)
    ax = grid.x_axis()
    moment2 = t * float(ax ** 2 @ masses) + (t * float(ax @ masses)) ** 2
    fold = moment2 / (3.0 * grid.L - grid.h) ** 2
    tail = max(cropped, 0.0) + fold + t * max(overflow, 0.0)
    ac /= grid.h
    return CompoundPoissonField(grid=grid, t=t, lam=lam, atom_weight=atom,
                                ac=ac, tail_bound=tail, overflow=overflow)


def recompose(local: DensityField, cp: CompoundPoissonField) -> DensityField:
    """p_t = e^(-t lambda) p~_t + p~_t * (a.c. part of Pbar_t), the
    convolution a product of the fields' padded transforms."""
    if local.grid != cp.grid:
        raise DomainError("local density and compound Poisson grids differ")
    if local.t != cp.t:
        raise DomainError("mismatched times")
    g = local.grid
    spec = _padded_rfft(local.values) * _padded_rfft(cp.ac)
    conv = _window(sfft.irfft(spec, 2 * g.N)) * g.h
    vals = np.clip(cp.atom_weight * local.values + conv, 0.0, None)
    mass = float(vals.sum()) * g.h
    return DensityField(grid=g, t=local.t, values=vals, mass=mass,
                        trunc_error=local.trunc_error + cp.tail_bound,
                        alias_error=local.alias_error,
                        min_raw=local.min_raw)


def frequency_identity_defect(sm: SplitMeasure, t: float,
                              grid: GridSpec) -> float:
    """max | F(p~) F(Pbar) - exp(-t Phi) | over the dual grid (d = 1).

    F(Pbar) comes from the gridded big-jump measure, so the two sides rest
    on independent discretizations of nu.  There is no such check in d = 2,
    where both sides would be sums over the same psi tables.
    """
    if sm.model.d != 1 or grid.d != 1:
        raise DomainError("the frequency identity check is d=1 only")
    # a subsample of the dual grid bounds the exponent evaluations
    step = max(1, grid.N // 2048)
    xi = grid.xi_axis()[::step]
    phit = phi_on_points(sm.small, xi)
    # frequency m pi / L is bin 2|m| of the padded transform
    m = np.arange(-(grid.N // 2), grid.N // 2, step)
    coshat = _padded_rfft(bounded_cell_masses(sm, grid)).real[2 * np.abs(m)]
    fbar = np.exp(t * (coshat - sm.lam))
    direct = np.exp(-t * phi_on_points(sm.model, xi))
    return float(np.max(np.abs(np.exp(-t * phit) * fbar - direct)))


def convolution_ball_check(sm: SplitMeasure, n_max: int, x_set,
                           grid: GridSpec = None,
                           gamma: float = 1.0) -> list:
    """Ratios of gridded nubar^(n*) ball masses to the power-law reference.

    Reference: r^gamma (eps^-alpha q(eps))^(n-1) |x|^(-alpha-gamma) q(|x|),
    evaluated at both admissible radii r = eps/3 and r = |x| / 5^n.
    Rows outside the admissible range are flagged and skipped.
    """
    if n_max > 5:
        raise DomainError("n_max at most 5")
    m = sm.model
    if grid is None:
        grid = GridSpec(1, 256.0, 2 ** 15)
    nuhat = _padded_rfft(bounded_cell_masses(sm, grid))
    ax = grid.x_axis()
    a = m.alpha
    q = m.profiles_and_weights()[0][1]
    qeps = float(q(sm.eps))
    rows = []
    for n in range(1, n_max + 1):
        conv = _window(sfft.irfft(nuhat ** n, 2 * grid.N))
        for x in x_set:
            for r, which in ((sm.eps / 3.0, "eps/3"),
                             (abs(x) / 5.0 ** n, "x/5^n")):
                admissible = r <= max(sm.eps / 3.0, abs(x) / 5.0 ** n)
                row = {"n": n, "x": float(x), "r": float(r), "rule": which,
                       "admissible": bool(admissible)}
                if admissible and r > 0:
                    ball = _ball_mass(conv, ax, grid.h, x, r)
                    ref = (r ** gamma * (sm.eps ** (-a) * qeps) ** (n - 1)
                           * abs(x) ** (-a - gamma)
                           * float(q(abs(x))))
                    row["ball"] = ball
                    row["ref"] = ref
                    row["ratio"] = ball / ref if ref > 0 else math.inf
                rows.append(row)
    return rows


def _ball_mass(masses: np.ndarray, ax: np.ndarray, h: float,
               x: float, r: float) -> float:
    """Mass of cells in [x-r, x+r], edge cells weighted by overlap."""
    lo, hi = x - r, x + r
    left = np.clip((np.minimum(ax + h / 2, hi)
                    - np.maximum(ax - h / 2, lo)) / h, 0.0, 1.0)
    return float(np.dot(left, masses))


def local_lower_check(model: LevyModel, t_set, a: float = 1.0) -> list:
    """Rows (t, t^(d/alpha) p~_t(0)) with cut radius a t^(1/alpha)."""
    if not 0.0 < a <= 1.0:
        raise DomainError("a must lie in (0, 1]")
    rows = []
    for t in sorted(t_set):
        sm = split(model, a * t ** (1.0 / model.alpha))
        fld = local_density(sm, t)
        p0 = float(fld.values[(fld.grid.N // 2,) * model.d])
        rows.append((float(t), t ** (model.d / model.alpha) * p0))
    return rows

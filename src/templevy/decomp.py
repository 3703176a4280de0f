"""Splitting the jump measure at radius eps.

nu is cut into a small-jump part (radii < eps), a model of its own whose
profiles are cut at eps (profiles.Truncated) and whose semigroup density
p~_t is smooth and obtained by density.invert, and a finite big-jump part
nubar with total mass lambda, whose semigroup is the compound Poisson law

    Pbar_t = e^(-t lambda) sum_n t^n nubar^(n*) / n!
           = e^(-t lambda) exp(t nubar)   (convolution exponential),

computed on the grid as one exponential in frequency space, not as a
truncated series.  Every convolution here, recompose's too, is that of
the circle of 3N/2 points, the shortest on which the linear convolution
of two N-point fields is exact on the window (_padded_rfft).  Both
stages take it from the even and odd halves of their fields, on real
trig transforms of 3N/4 (+ 1) points (Martucci's symmetric convolution,
IEEE Trans. Signal Process. 42, 1994), with the cell at -L, which has no
partner, as a term of its own: compound_poisson on DCT-Is, recompose on
DCT-III and DST-III.  convolution_ball_check keeps the real FFT of the
padded grid.

Where the process may run on two CPUs or more, recompose takes its three
pairs of transforms two at a time, one on a helper thread started on
first use (_both): the DCT-IIIs of the two even rows, the DST-IIIs of the
two odd rows, then the inverse DCT-III and DST-III.  Each transform keeps
its input, length and flags, so every output is bitwise that of the
serial order, which runs on one CPU.  compound_poisson's transforms stay
serial: the scratch scipy allocates on the helper thread stays resident
in that thread's malloc arena, and its DCT-I halves on two threads raised
the peak resident set of a decomposition at N = 2^20 by a tenth.

The product identity p_t = p~_t * Pbar_t is the main quantitative check:
both sides are computed by independent discretizations and compared.
"""
from __future__ import annotations

import math
import mmap
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from functools import partial

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
    """rfft of a field on [-L, L) zero-padded to 3N/2, x = 0 at index 0.

    The padded grid has period 3L.  Two fields on the window have a linear
    convolution supported on the indices [-N, N - 2]; the window's indices
    k in [-N/2, N/2) alias k +- 3N/2, which fall outside that support, so
    the product of their transforms is the linear convolution on the
    window.  3N/2 is the shortest such circle: on 3N/2 - 1 points the
    index N/2 - 1 aliases -N, inside the support.
    """
    n2 = len(values) // 2
    padded = np.zeros(3 * n2)
    padded[:n2] = values[n2:]
    padded[-n2:] = values[:n2]
    return sfft.rfft(padded)


def _window(padded: np.ndarray) -> np.ndarray:
    """The N-point window [-L, L) of a 3N/2-point array indexed as above."""
    n2 = len(padded) // 3
    return np.concatenate((padded[-n2:], padded[:n2]))


def _scratch(n: int) -> np.ndarray:
    """n zeroed floats on an anonymous mapping of their own.

    The mapping goes back to the system when the last view of it goes.
    compound_poisson is the first call to transform on 3N/4 points, and
    scipy keeps the plans it makes then for the process: on the heap, its
    scratch would lie under them and stay resident once freed.
    """
    return np.frombuffer(mmap.mmap(-1, 8 * n))


def _dct1(x: np.ndarray, work: np.ndarray) -> None:
    """scipy's unnormalized DCT-I of x (K + 1 points, K even), in place.

    scipy takes a DCT-I by a real FFT of 2K points.  Pairing x_j with
    x_(K-j) halves it: the even outputs are the DCT-I of x_j + x_(K-j) on
    K/2 + 1 points (the middle entry 2 x_(K/2)), the odd outputs the
    DCT-III of x_j - x_(K-j) on K/2 points.  That DCT-III is the head of
    one on K points of the same row with a zero after each entry, the
    length recompose transforms on, so both stages share one plan.  `work`
    holds the 3K/2 + 1 points of the two rows.
    """
    k2 = len(x) // 2
    u, z = work[:k2 + 1], work[k2 + 1:]
    np.add(x[:k2], x[:k2:-1], out=u[:k2])
    u[k2] = 2.0 * x[k2]
    np.subtract(x[:k2], x[:k2:-1], out=z[::2])
    z[1::2] = 0.0
    x[::2] = sfft.dct(u, 1, overwrite_x=True)
    x[1::2] = sfft.dct(z, 3, overwrite_x=True)[:k2]


#: omega^(-rs), omega = e^(2 pi i / 3): the transform on Z_3 that takes
#: the three values of exp(t m0 omega^k) to the weights beta_s
_THIRDS = np.exp(-2j * math.pi / 3.0 * np.outer(np.arange(3), np.arange(3)))


def compound_poisson(sm: SplitMeasure, t: float, grid: GridSpec,
                     tol: float = 1e-10) -> CompoundPoissonField:
    """Pbar_t on the grid as one exponential in frequency space (d = 1).

    The a.c. part is e^(-t lam) (exp(t nuhat) - 1) on the circle of 3N/2
    points (period 3L), cropped to the window: the transform carries every
    convolution power of nubar, and the linear convolution of two window
    fields is exact on the window of that circle (_padded_rfft).  The
    paired cells are even, so their part E of nuhat is real: a DCT-I of
    the cells at 0, h, ..., 3L/2 (_dct1), and the inverse transform is one
    more.  The unpaired cell m0 at -L adds m0 omega^k to bin k, omega =
    e^(2 pi i / 3), which takes three values, so exp(t m0 omega^k) =
    sum_s beta_s omega^(ks), beta_s the terms of e^(t m0) of degree s
    mod 3 (three jumps to -L wrap round to 0), and omega^(ks) shifts by
    -sL.  With g the inverse DCT-I of expm1(t E), the law is e^(-t lam)
    sum_s beta_s (delta + g)(x + sL), all in real arithmetic; at t lam >=
    700 it is taken from exp(t (E + m0) - t lam) and e^(-t m0) beta_s,
    both at most 1.

    `tail_bound` bounds the mass deficit plus the L1 error on the window
    against the exact lattice law: the cropped mass, the mass folded back
    by the period 3L (Chebyshev, |S| >= 2L), and the mass of nubar beyond
    the window.  `tol` changes no output, since the gate on that mass is
    decided by its 1e-3 clause; it stays, validated, because callers
    (perfbench's split workload) pass it positionally.
    """
    if grid.d != 1:
        raise DomainError("the compound-Poisson law is d=1 only")
    if not 0.0 < tol <= 1e-3:
        raise DomainError("tol must lie in (0, 1e-3]")
    lam = sm.lam
    mu = t * lam
    atom = math.exp(-mu)
    masses = bounded_cell_masses(sm, grid)
    overflow = lam - float(masses.sum())
    if overflow > max(tol, 1e-6 * lam) and overflow > 1e-3:
        raise GridError(
            f"big-jump mass {overflow:.3e} falls outside the grid")
    n2 = grid.N // 2
    k = 3 * n2 // 2  # the 3N/2 circle folded at its middle
    # E S^2 of the lattice law: variance plus the squared mean.  The cells
    # at +-jh hold equal masses, so the mean is the unpaired edge cell's
    # alone and the second moment sums j^2 over one side.
    m0 = float(masses[0])
    edge = grid.L * m0
    j2 = np.square(np.arange(n2, dtype=float))
    moment2 = (t * (2.0 * grid.h ** 2 * float(j2 @ masses[n2:])
                    + grid.L * edge) + (t * edge) ** 2)
    rows = _scratch(5 * k // 2 + 2)
    g, work = rows[:k + 1], rows[k + 1:]
    g[:n2] = masses[n2:]
    # freed before the first transform, so that plans made there can take
    # their place on the heap (_scratch)
    del masses, j2
    _dct1(g, work)
    g *= t
    omega_z = t * m0 * np.exp(2j * math.pi / 3.0 * np.arange(3))
    if mu < 700.0:
        # |t E| <= mu: expm1 cannot overflow, and keeps small mu exact;
        # beta_s - [s = 0] from the expm1s too, since sum_r omega^(-rs) = 0
        np.expm1(g, out=g)
        beta = (np.expm1(omega_z) @ _THIRDS).real / 3.0
        coef = atom * (beta + (1.0, 0.0, 0.0))
        at0, at_minus, at_plus = atom * beta
    else:
        # e^(-mu) exp(t m0 omega^k) = exp(t m0 - mu) sum_s beta~_s
        # omega^(ks), beta~_s = e^(-t m0) beta_s: both factors stay <= 1
        g += omega_z[0].real - mu
        np.exp(g, out=g)
        coef = (np.exp(omega_z - omega_z[0]) @ _THIRDS).real / 3.0
        at0, at_minus, at_plus = -atom, 0.0, 0.0
    _dct1(g, work)
    g /= 3 * n2  # g at x = 0, h, ..., 3L/2: even, with period 3L
    # the window [-L, L) takes g(x), g(x + L) and g(x - L), read off that
    # half period by g(-x) = g(x) = g(3L - x); the deltas at 0 and -L
    # complete it, and the delta at +L falls in the band [L, 2L)
    ac = np.empty(grid.N)
    q, shifted = grid.N // 4, work[:k + 1]
    np.multiply(g[:n2], coef[0], out=ac[n2:])
    np.multiply(g[n2:0:-1], coef[0], out=ac[:n2])
    np.multiply(g, coef[1], out=shifted)
    ac[:k + 1] += shifted
    ac[k + 1:] += shifted[k - 1:n2:-1]
    np.multiply(g, coef[2], out=shifted)
    ac[:q] += shifted[n2:k]
    ac[q:] += shifted[k:0:-1]
    ac[n2] += at0
    ac[0] += at_minus
    # the band [L, 2L) that the window crops, the delta at +L with it
    cropped = (coef[0] * (float(g[n2:].sum()) + float(g[n2 + 1:k].sum()))
               + coef[1] * float(g[1:n2 + 1].sum())
               + coef[2] * float(g[:n2].sum()) + at_plus)
    fold = moment2 / (2.0 * grid.L - grid.h) ** 2
    tail = max(cropped, 0.0) + fold + t * max(overflow, 0.0)
    ac /= grid.h
    return CompoundPoissonField(grid=grid, t=t, lam=lam, atom_weight=atom,
                                ac=ac, tail_bound=tail, overflow=overflow)


#: CPUs this process may run on, read once: _both runs its two calls on
#: two threads only where there are at least two
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
_helper = None  # _both's one-thread executor, started on its first call
_helper_lock = threading.Lock()


def _drop_helper() -> None:
    """In a forked child: the helper's thread stayed in the parent."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helper)


def _both(f, g) -> tuple:
    """(f(), g()), with f on a helper thread while g runs on this one.

    scipy.fft's transforms release the GIL, so a pair of them takes both
    CPUs.  Each call keeps its input, length and flags, so the results are
    bitwise those of f() then g().  The call returns, or raises what f or
    g raised, only once both are done: neither writes into the caller's
    buffers after that.  With one usable CPU, f() and g() run in turn.
    """
    if _CPUS < 2:
        return f(), g()
    global _helper
    with _helper_lock:
        if _helper is None:
            _helper = ThreadPoolExecutor(1, thread_name_prefix="templevy")
        first = _helper.submit(f)
    try:
        second = g()
    finally:
        wait((first,))
    return first.result(), second


def _even_odd(x: np.ndarray, even: np.ndarray, odd: np.ndarray) -> None:
    """Even and odd halves of a window field (x = 0 at index N/2) as rows.

    even[j] = (x_j + x_-j) / 2 for j = 0..N/2 - 1 and odd[j - 1] =
    (x_j - x_-j) / 2 for j = 1..N/2 - 1; the rows' other entries are 0.
    The cell at -L has no partner and is left out.
    """
    n2 = len(x) // 2
    pos, neg = x[n2 + 1:], x[n2 - 1:0:-1]
    even[0] = x[n2]
    np.add(pos, neg, out=even[1:n2])
    even[1:n2] *= 0.5
    even[n2:] = 0.0
    np.subtract(pos, neg, out=odd[:n2 - 1])
    odd[:n2 - 1] *= 0.5
    odd[n2 - 1:] = 0.0


def recompose(local: DensityField, cp: CompoundPoissonField) -> DensityField:
    """p_t = e^(-t lambda) p~_t + p~_t * (a.c. part of Pbar_t).

    The convolution is the linear one on the window, taken from the
    fields' even and odd halves (_even_odd) by symmetric convolution on
    3N/4 points.  DCT-III and DST-III transform an even and an odd row as
    sequences of period 3N, even or odd about 0 and odd or even about
    +-3N/4.  The rows leave out the cells at -L, so the linear convolution
    of the rest lies on [-(N - 2), N - 2], and the window's reflections
    about +-3N/4 lie N or more from 0: nothing wraps onto the window.  The
    product of the even parts less that of the odd parts is the even part
    of the convolution, the cross products its odd part.  The two cells at
    -L enter as rank-one terms: each shifts the other field by -L, onto
    the window's negative half.  The transforms run in pairs (_both).
    """
    if local.grid != cp.grid:
        raise DomainError("local density and compound Poisson grids differ")
    if local.t != cp.t:
        raise DomainError("mismatched times")
    g = local.grid
    n2 = g.N // 2
    l, a = local.values, cp.ac
    vals = np.empty(g.N)
    cl, sl, ca, sa = (np.empty(3 * n2 // 2) for _ in range(4))
    _even_odd(l, cl, sl)
    _even_odd(a, ca, sa)
    cl, ca = _both(partial(sfft.dct, cl, 3, overwrite_x=True),
                   partial(sfft.dct, ca, 3, overwrite_x=True))
    sl, sa = _both(partial(sfft.dst, sl, 3, overwrite_x=True),
                   partial(sfft.dst, sa, 3, overwrite_x=True))
    co = np.multiply(cl, sa, out=vals[:len(cl)])
    cl *= ca
    ca *= sl
    co += ca
    sl *= sa
    cl -= sl
    ce, co = _both(partial(sfft.idct, cl, 3, overwrite_x=True),
                   partial(sfft.idst, co, 3, overwrite_x=True))
    # conv(+-j) = ce_j +- co_(j-1); co may share vals' head, so the
    # positive half and conv(-L) are written before the negative half
    np.add(ce[1:n2], co[:n2 - 1], out=vals[n2 + 1:])
    ce[1:n2] -= co[:n2 - 1]
    vals[0] = ce[n2] - co[n2 - 1]
    vals[1:n2] = ce[n2 - 1:0:-1]
    vals[n2] = ce[0]
    scratch = sl[:n2]
    np.multiply(a[n2:], l[0], out=scratch)
    vals[:n2] += scratch
    np.multiply(l[n2:], a[0], out=scratch)
    vals[:n2] += scratch
    vals *= g.h
    for half in (slice(None, n2), slice(n2, None)):
        np.multiply(l[half], cp.atom_weight, out=scratch)
        vals[half] += scratch
    np.clip(vals, 0.0, None, out=vals)
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
    k = np.arange(-(grid.N // 2), grid.N // 2, step)
    fbar = np.exp(t * (_nubar_hat(bounded_cell_masses(sm, grid), k) - sm.lam))
    direct = np.exp(-t * phi_on_points(sm.model, xi))
    return float(np.max(np.abs(np.exp(-t * phit) * fbar - direct)))


def _nubar_hat(masses: np.ndarray, k: np.ndarray) -> np.ndarray:
    """sum_x m(x) cos(k pi x / L) over a field's cells, for integers k.

    At these frequencies x k pi / L = 2 pi j k / N for the cell x = jh, so
    the sums are bins |k| of the real part of the N-point rfft of the field
    with x = 0 at index 0: the same sums, with no wrap."""
    return sfft.rfft(sfft.ifftshift(masses)).real[np.abs(k)]


def convolution_ball_check(sm: SplitMeasure, n_max: int, x_set,
                           grid: GridSpec = None) -> list:
    """Ratios of gridded nubar^(n*) ball masses to the power-law reference.

    Reference: r (eps^-alpha q(eps))^(n-1) |x|^(-alpha-1) q(|x|), the
    gamma = 1 form of atoms in d = 1, evaluated at both admissible radii
    r = eps/3 and r = |x| / 5^n.
    Rows outside the admissible range are flagged and skipped.  The powers
    are taken on the grid padded to 3N/2 (_padded_rfft): nubar^(2*) is exact
    on the window, and a higher power folds back its mass at |S| >= 2L.
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
        conv = _window(sfft.irfft(nuhat ** n, 3 * grid.N // 2))
        for x in x_set:
            for r, which in ((sm.eps / 3.0, "eps/3"),
                             (abs(x) / 5.0 ** n, "x/5^n")):
                admissible = r <= max(sm.eps / 3.0, abs(x) / 5.0 ** n)
                row = {"n": n, "x": float(x), "r": float(r), "rule": which,
                       "admissible": bool(admissible)}
                if admissible and r > 0:
                    ball = _ball_mass(conv, ax, grid.h, x, r)
                    ref = (r * (sm.eps ** (-a) * qeps) ** (n - 1)
                           * abs(x) ** (-a - 1.0) * float(q(abs(x))))
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


def local_lower_check(model: LevyModel, t_set) -> list:
    """Rows (t, t^(d/alpha) p~_t(0)) with cut radius t^(1/alpha)."""
    rows = []
    for t in sorted(t_set):
        sm = split(model, t ** (1.0 / model.alpha))
        fld = local_density(sm, t)
        p0 = float(fld.values[(fld.grid.N // 2,) * model.d])
        rows.append((float(t), t ** (model.d / model.alpha) * p0))
    return rows

"""Characteristic exponent Phi(xi) = int (1 - cos<xi,y>) nu(dy).

For spectral-radial measures the exponent reduces to a sum over the
model's +- pairs of atoms (LevyModel.pairs, weight w(theta) + w(-theta))
of the one-dimensional oscillatory integral

    psi_q(u) = int_0^inf (1 - cos(u s)) s^(-1-alpha) q(s) ds,

which has a closed form for constant q and for the relativistic kernel
Relativistic(1, alpha) (psi_vector), and is otherwise evaluated by
adaptive quadrature in v = u s: the singular head v < 1 by a smoothing
substitution split at the profile's own scales, the tail as the jump mass
W(1/u) minus one cosine-weighted (QAWF) integral.  A profile cut at s0
(profiles.Truncated, the small-jump part of a split measure) takes the
mass W(1/u) - W(s0) of its base and the QAWO integral up to V = u s0;
cuts with u s0 > 1e8 raise NumericError.  Grid fills go through a log-log
cubic spline of psi, one per (profile, alpha) for the whole process, on
48 log nodes per tenfold of u from u = 1e-6.  A table starts at u = 10 and
grows tenfold at a time when a larger |u| is asked for, computing only
the new nodes; below 1e-6 it follows the power law of its first node.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.interpolate import CubicSpline

from .errors import DegeneracyError, DomainError, NumericError
from .model import (LevyModel, _knees, radial_tail_mass,
                    relativistic_weight, truncated_second_moment)
from .profiles import Constant, RadialProfile, Relativistic, Truncated

__all__ = [
    "ExponentEvaluation",
    "stable_constant",
    "psi_quad",
    "psi_vector",
    "phi",
    "phi_on_points",
    "check_lower_growth",
    "check_two_sided",
    "second_moment",
]


@dataclass(frozen=True)
class ExponentEvaluation:
    xi: tuple
    value: float
    method: str  # "closed-form" | "quadrature"
    error: float


def _head_weight(z: float, p: float) -> float:
    """(1 - cos v) v^(-1-alpha) dv/dz at v = z^p, p = 2/(2 - alpha).

    Exactly (sin(v/2) / (v/2))^2 p z / 2: no power of z that can
    overflow as alpha -> 2, and the sinc factor tends to 1 as v -> 0.
    """
    h = 0.5 * z ** p
    sinc = math.sin(h) / h if h > 1e-8 else 1.0
    return 0.5 * sinc * sinc * p * z


def stable_constant(alpha: float) -> float:
    """c_alpha = int_0^inf (1 - cos v) v^(-1-alpha) dv, in closed form."""
    return math.pi / (2.0 * math.gamma(1.0 + alpha)
                      * math.sin(0.5 * math.pi * alpha))


#: beyond this u * s0 the finite-range Fourier quadrature loses accuracy
MAX_CUT_RANGE = 1e8
#: W(s0) of the base, the same for every node of a cut psi table
_cut_mass = lru_cache(maxsize=256)(radial_tail_mass)


def psi_quad(q: RadialProfile, alpha: float, u: float) -> float:
    """Scalar psi_q(u), adaptive; a cut profile integrates up to its s0.

    Works in the rescaled variable v = u s, so the oscillation is always
    cos(v) and the Fourier quadrature of the tail is well conditioned for
    every u.
    """
    u = abs(float(u))
    if u == 0.0:
        return 0.0
    # a cut integrates its base q up to s0
    q, s0 = (q.q, q.s0) if isinstance(q, Truncated) else (q, math.inf)
    if s0 <= 0:
        return 0.0
    V = u * s0  # may be inf
    if V > MAX_CUT_RANGE and math.isfinite(V):
        raise NumericError(f"u * s0 = {V:.6g} exceeds {MAX_CUT_RANGE:g}: "
                           "the cut cosine integral is unreliable there")
    A = min(1.0, V)
    # singular head on [0, A]: substitute v = z^p to flatten v^(1-alpha)
    p = 2.0 / (2.0 - alpha)
    head = lambda z: _head_weight(z, p) * float(q(z**p / u))
    zmax = A ** (1.0 / p)
    # break points at q's own scales: its knees times 0.1 to 100, in z
    pts = sorted({min((u * k * f) ** (1.0 / p), zmax)
                  for k in _knees(q, alpha) for f in (0.1, 1.0, 10.0, 100.0)}
                 - {0.0, zmax})
    i1, _ = quad(head, 0.0, zmax, points=pts or None,
                 epsabs=0.0, epsrel=1e-11, limit=512)
    if V <= A:
        return u**alpha * i1
    # tail: int_A^V (1 - cos v) wtil = jump mass on (A/u, s0) minus a
    # cosine-weighted integral (QAWF for V = inf, QAWO otherwise)
    wtil = lambda v: v ** (-1.0 - alpha) * float(q(v / u))
    mass = radial_tail_mass(q, alpha, A / u)  # already in s units
    if math.isfinite(V):
        mass -= _cut_mass(q, alpha, s0)
    with warnings.catch_warnings():
        # QUADPACK flags "bad integrand behavior" on tempered tails while
        # still meeting the requested tolerance; accuracy is pinned by the
        # closed-form oracles in the test suite.
        warnings.simplefilter("ignore", IntegrationWarning)
        cosint, _ = quad(wtil, A, V, weight="cos", wvar=1.0,
                         epsabs=1e-13, limlst=400, limit=400)
    val = u**alpha * (i1 - cosint) + mass
    if not math.isfinite(val):
        raise NumericError("oscillatory radial integral did not converge",
                           estimate=u**alpha * i1 + mass)
    return val


#: psi table nodes: U_LO * 10^(k / PER_TEN), k = 0, 1, ...
U_LO, PER_TEN = 1e-6, 48


class PsiTable:
    """Log-log cubic spline of psi_q on the nodes from U_LO up to u_hi."""

    def __init__(self, q: RadialProfile, alpha: float):
        self.q, self.alpha = q, alpha
        self.log_u, self.log_psi, self.u_hi = np.empty(0), np.empty(0), 1.0
        self._extend(10.0)

    def _extend(self, umax: float) -> None:
        """Grow u_hi tenfold until it covers umax, computing only new nodes."""
        while self.u_hi < umax:
            self.u_hi *= 10.0
        n = PER_TEN * round(math.log10(self.u_hi / U_LO)) + 1
        lg = math.log(U_LO) + math.log(10.0) / PER_TEN * np.arange(
            len(self.log_u), n)
        vals = np.array([psi_quad(self.q, self.alpha, math.exp(t))
                         for t in lg])
        if np.any(vals <= 0):
            raise NumericError("psi not positive on table range")
        self.log_u = np.concatenate((self.log_u, lg))
        self.log_psi = np.concatenate((self.log_psi, np.log(vals)))
        self._spline = CubicSpline(self.log_u, self.log_psi)
        self._slope = float(self._spline(self.log_u[0], 1))

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if u.size and u.max() > self.u_hi:
            self._extend(float(u.max()))
        out = np.zeros_like(u)
        pos = u > 0
        lu = np.log(u[pos])
        res = self._spline(lu)
        lo = lu < self.log_u[0]
        if lo.any():
            res[lo] = self.log_psi[0] + self._slope * (lu[lo] - self.log_u[0])
        out[pos] = np.exp(res)
        return out


#: one table per (q, alpha) for the whole process
_psi_table = lru_cache(maxsize=256)(PsiTable)


def _closed_psi(q: RadialProfile, alpha: float):
    """psi_q in closed form, or None.  Relativistic(1, alpha) gives Phi =
    (u^2 + 1)^(alpha/2) - 1 on a +-1 pair of relativistic_model's weight."""
    if isinstance(q, Constant):
        c = q.c * stable_constant(alpha)
        return lambda u: c * u**alpha
    if isinstance(q, Relativistic) and (q.d, q.alpha) == (1, alpha):
        w = 2.0 * relativistic_weight(1, alpha)
        return lambda u: ((u * u + 1.0) ** (alpha / 2.0) - 1.0) / w
    return None


def psi_vector(q: RadialProfile, alpha: float, u: np.ndarray) -> np.ndarray:
    """Vectorized psi_q(u): a closed form, else the cached spline."""
    u = np.asarray(u, dtype=float)
    # min and max see any nan or inf without a grid-sized temporary
    if u.size and not (math.isfinite(u.min()) and math.isfinite(u.max())):
        raise DomainError(f"u = {u[~np.isfinite(u)].flat[0]} is not finite")
    return (_closed_psi(q, alpha) or _psi_table(q, alpha))(np.abs(u))


def phi_on_points(model: LevyModel, xi: np.ndarray) -> np.ndarray:
    """Phi on frequency points, shape (..., d) or (...,) in d=1.

    The result has one value per point: psi is read once per +- pair of
    the model, at u = |xi . theta| with the pair's summed weight.
    """
    xi = np.asarray(xi, dtype=float)
    if model.d == 1 and (xi.ndim < 2 or xi.shape[-1] != 1):
        xi = xi[..., None]
    # min and max see any nan or inf without a grid-sized temporary
    if xi.size and not (math.isfinite(xi.min()) and math.isfinite(xi.max())):
        bad = xi[~np.isfinite(xi).all(axis=-1)][0]
        raise DomainError(f"frequency xi = {bad.tolist()} is not finite")
    total = 0.0
    for w, q, theta in model.pairs:
        # in d = 1 a pair's direction is +-1: u is |xi|, with no product
        u = np.abs(xi @ theta if model.d > 1 else xi[..., 0])
        total = total + w * (_closed_psi(q, model.alpha)
                             or _psi_table(q, model.alpha))(u)
    return total


def phi(model: LevyModel, xi, method: str = "auto") -> ExponentEvaluation:
    """Evaluate Phi(xi).

    method: "auto" picks a closed form when the measure is atomic and
    every pair's psi has one, "quadrature" forces the adaptive oscillatory
    integral once per +- pair, "closed" demands a closed form.
    """
    if method not in ("auto", "quadrature", "closed"):
        raise DomainError(f"unknown method {method!r}: "
                          "use 'auto', 'quadrature' or 'closed'")
    x = np.asarray(xi, dtype=float).reshape(model.d)
    # atoms whose psi all have closed forms: phi_on_points is exact
    closed = model.spectral.is_atomic and all(
        _closed_psi(q, model.alpha) is not None for _, q, _ in model.pairs)
    if method == "closed" and not closed:
        raise DomainError("no closed form for this model")
    if closed and method != "quadrature":
        val = float(phi_on_points(model, x[None, :])[0])
        return ExponentEvaluation(tuple(x), val, "closed-form", 0.0)
    val = sum(w * psi_quad(q, model.alpha, float(x @ th))
              for w, q, th in model.pairs)
    err = 1e-10 * (1.0 + abs(val))
    return ExponentEvaluation(tuple(x), float(val), "quadrature", err)


def _direction_set(model: LevyModel, n_extra: int = 8) -> np.ndarray:
    """Spectral directions plus a deterministic spread of extra directions."""
    dirs = []
    if model.spectral.is_atomic:
        dirs.extend(model.spectral.directions)
    if model.d == 1:
        dirs.append(np.array([1.0]))
    elif model.d == 2:
        ang = np.linspace(0.0, math.pi, n_extra, endpoint=False)
        dirs.extend(np.stack([np.cos(ang), np.sin(ang)], axis=1))
    else:
        rng = np.random.default_rng(0)
        v = rng.standard_normal((n_extra, model.d))
        dirs.extend(v / np.linalg.norm(v, axis=1, keepdims=True))
    return np.unique(np.round(np.array(dirs), 12), axis=0)


def check_lower_growth(model: LevyModel, exponent: float,
                       radii=None, n_radii: int = 40) -> float:
    """inf over a direction x log-radius grid of Phi(xi) / |xi|^exponent."""
    if model.degenerate:
        raise DegeneracyError("degenerate spectral measure: inf would vanish")
    if radii is None:
        radii = np.exp(np.linspace(math.log(1e-2), math.log(1e2), n_radii))
    radii = np.asarray(radii, dtype=float)
    dirs = _direction_set(model)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, model.d)
    vals = phi_on_points(model, pts)
    denom = np.repeat(radii, len(dirs)) ** exponent
    return float(np.min(vals / denom))


def second_moment(model: LevyModel, s_probe: float = 1e3,
                  s_check: float = 1e6) -> float:
    """int |y|^2 nu(dy), raising DomainError when the integral diverges."""
    total = truncated_second_moment(model, s_probe)
    check = truncated_second_moment(model, s_check)
    if check > total * (1.0 + 1e-6) + 1e-12:
        raise DomainError("infinite second moment (profile decays too slowly)")
    return check


def check_two_sided(model: LevyModel, radii=None, s0: float = 0.5) -> tuple:
    """Ratio scan of Phi(xi) against min(|xi|^2, |xi|^alpha).

    Returns (inf_ratio, sup_ratio).  Preconditions: nondegenerate angular
    second moment uniformly over small s, and finite second moment of nu.
    """
    if model.degenerate:
        raise DegeneracyError("degenerate spectral measure")
    # uniform angular nondegeneracy over s in (0, s0)
    s_grid = np.exp(np.linspace(math.log(1e-3 * s0), math.log(s0), 12))
    pairs = model.pairs
    # (eta . theta)^2 for every probe direction eta and pair theta
    cos2 = (_direction_set(model) @ np.array([th for *_, th in pairs]).T) ** 2
    worst = math.inf
    for s in s_grid:
        acc = cos2 @ np.array([w * float(q(s)) for w, q, _ in pairs])
        worst = min(worst, float(acc.min()))
    if worst <= 0:
        raise DegeneracyError("angular second moment vanishes for some direction")
    second_moment(model)  # raises if infinite
    if radii is None:
        radii = np.exp(np.linspace(math.log(1e-2), math.log(1e2), 60))
    radii = np.asarray(radii, dtype=float)
    dirs = _direction_set(model)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, model.d)
    vals = phi_on_points(model, pts)
    denom = np.minimum(np.repeat(radii, len(dirs)) ** 2,
                       np.repeat(radii, len(dirs)) ** model.alpha)
    ratios = vals / denom
    return float(np.min(ratios)), float(np.max(ratios))

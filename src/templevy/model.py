"""Levy measures of spectral-radial form and their elementary functionals.

A model is nu(D) = sum_i w_i * int_0^inf 1_D(s theta_i) s^(-1-alpha) q_i(s) ds
for atomic spectral measures, or the analogous angular integral when the
spectral measure has a bounded density on the sphere (d = 2 only).  A
density, which must not be negative, is discretized once into
ANGULAR_NODES atoms, the one angular rule behind the exponent, the
whole-sphere masses, the direction matrix and the sampler; only the ball
masses integrate the density itself, since a ball's arc may be narrower
than the rule's spacing.  The measure is symmetric: LevyModel groups the
atom set into +- pairs of equal weight, LevyModel.pairs, the one view of
it that the exponent, the nu masses and the sampler read.  Every
radial mass, from the tails nu(B(0,r)^c) and ball masses to the big-jump
cells of decomp and the sampler's radii, reads one cached TailTable of
W(r) = int_r^inf s^(-1-alpha) q(s) ds per (profile, alpha), filled once
on fixed nodes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, NumericError
from .profiles import (
    Constant,
    PolyTempered,
    ExpTempered,
    Relativistic,
    Truncated,
    RadialProfile,
    profile_from_dict,
    profile_to_dict,
)

__all__ = [
    "SpectralMeasure",
    "LevyModel",
    "nu_tail",
    "truncated_second_moment",
    "nu_ball",
    "gamma_estimate",
    "radial_tail_mass",
    "radial_second_moment",
    "cauchy_model",
    "stable_model",
    "poly_model",
    "exp_model",
    "relativistic_model",
    "model_to_dict",
    "model_from_dict",
    "load_model",
    "save_model",
    "MODEL_SCHEMA_VERSION",
]

MODEL_SCHEMA_VERSION = 1

_UNIT_TOL = 1e-12

#: trapezoid nodes on the circle that discretize a spectral density
ANGULAR_NODES = 512


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Finite measure on the unit sphere: atoms, or a bounded density (d=2)."""

    d: int
    directions: Optional[np.ndarray] = None  # (k, d) unit vectors
    weights: Optional[np.ndarray] = None  # (k,) positive
    density: Optional[Callable[[np.ndarray], np.ndarray]] = None  # g(angles)

    # the atom set: the atoms themselves, or the discretized density
    atom_directions: np.ndarray = field(init=False, repr=False)
    atom_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("dimension must be >= 1")
        if self.is_atomic:
            dirs = np.atleast_2d(np.asarray(self.directions, dtype=float))
            if dirs.shape[1] != self.d:
                raise DomainError("direction dimension mismatch")
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (dirs.shape[0],):
                raise DomainError("weights/directions length mismatch")
            if np.any(w <= 0):
                raise DomainError("weights must be positive")
            norms = np.linalg.norm(dirs, axis=1)
            if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
                raise DomainError("directions must be unit vectors (1e-12)")
            object.__setattr__(self, "directions", dirs)
            object.__setattr__(self, "weights", w)
        elif self.density is not None:
            if self.d != 2:
                raise DomainError("density spectral measures supported in d=2 only")
            ang = np.linspace(0.0, 2 * math.pi, ANGULAR_NODES, endpoint=False)
            dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            g = np.asarray(self.density(ang), dtype=float)
            bad = np.flatnonzero(~(g >= 0))
            if bad.size:
                i = bad[0]
                raise DomainError("spectral density must not be negative: "
                                  f"g({ang[i]:.12g}) = {g[i]:.6g}")
            w = g * (2 * math.pi / ANGULAR_NODES)
        else:
            raise DomainError("spectral measure needs atoms or a density")
        object.__setattr__(self, "atom_directions", dirs)
        object.__setattr__(self, "atom_weights", w)
        if self.total_mass <= 0 or not math.isfinite(self.total_mass):
            raise DomainError("total spectral mass must be finite and positive")

    @property
    def is_atomic(self) -> bool:
        return self.directions is not None

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.atom_weights))

    @property
    def probe_directions(self) -> np.ndarray:
        """The atoms, or 8 evenly spaced nodes of the angular rule."""
        return self.atom_directions[::1 if self.is_atomic
                                    else ANGULAR_NODES // 8]

    def direction_matrix(self) -> np.ndarray:
        """Second moment matrix sum w_i theta_i theta_i^T over the atom set."""
        th = self.atom_directions
        return (self.atom_weights[:, None] * th).T @ th

    @property
    def degenerate(self) -> bool:
        m = self.direction_matrix()
        eig = np.linalg.eigvalsh(m)
        return bool(eig[0] < 1e-10 * max(eig[-1], 1.0))


@dataclass(frozen=True, eq=False)
class LevyModel:
    """Symmetric spectral-radial Levy measure with alpha in (0, 2)."""

    d: int
    alpha: float
    spectral: SpectralMeasure
    profile: RadialProfile = None  # type: ignore[assignment]
    atom_profiles: Optional[Sequence[RadialProfile]] = None
    # (w(theta) + w(-theta), q, theta) per +- pair of the atom set
    pairs: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise DomainError("alpha must lie in (0, 2)")
        if self.d != self.spectral.d:
            raise DomainError("model/spectral dimension mismatch")
        if self.atom_profiles is not None:
            if not self.spectral.is_atomic:
                raise DomainError("per-atom profiles need an atomic spectral measure")
            if len(self.atom_profiles) != len(self.spectral.weights):
                raise DomainError("one profile per atom required")
            object.__setattr__(self, "atom_profiles", tuple(self.atom_profiles))
        elif self.profile is None:
            raise DomainError("model needs a profile")
        object.__setattr__(self, "pairs", self._pair_atoms())
        # finiteness of the defining integrals
        if not math.isfinite(nu_tail(self, 1.0)):
            raise DomainError("nu(B(0,1)^c) is not finite")
        if not math.isfinite(truncated_second_moment(self, 1.0)):
            raise DomainError("truncated second moment is not finite")

    def _pair_atoms(self) -> tuple:
        """Group the atoms by profile and by direction up to sign (to
        ~3e-8); within a group, the atoms at +theta and at -theta must
        weigh the same.  A group's pair takes the direction of its first
        atom.

        Each direction is flipped onto a half-sphere by the sign of its
        largest coordinate, which no direction within 3e-8 can change.
        Flipped directions that match are near in a generic projection:
        sorted by it, atoms are compared at lag 1, 2, ... while any are
        that near, in O(k) memory for k atoms.
        """
        w, th = self.spectral.atom_weights, self.spectral.atom_directions
        k = len(w)
        profs = self.atom_profiles or (self.profile,) * k
        first = {}
        kind = np.array([first.setdefault(q, i) for i, q in enumerate(profs)])
        sign = np.sign(th[np.arange(k), np.argmax(np.abs(th), axis=1)])
        key = th * sign[:, None]
        v = np.cos(np.arange(1.0, self.d + 1.0))
        p = key @ v
        order = np.argsort(p, kind="stable")
        p, tol = p[order], 4e-8 * np.linalg.norm(v)
        # parent: the earliest match in sorted order, by sorted position
        parent = np.arange(k)
        for lag in range(1, k):
            near = np.flatnonzero(p[lag:] - p[:-lag] <= tol)
            if near.size == 0:
                break
            i, j = order[near], order[near + lag]
            ok = (kind[i] == kind[j]) & (
                np.sum((key[i] - key[j]) ** 2, axis=1) <= 1e-15)
            np.minimum.at(parent, near[ok] + lag, near[ok])
        while np.any(parent[parent] != parent):
            parent = parent[parent]
        roots, g = np.unique(parent, return_inverse=True)
        group = np.empty(k, dtype=int)
        group[order] = g
        n = len(roots)
        head = np.full(n, k)
        np.minimum.at(head, group, np.arange(k))
        up = sign == sign[head[group]]
        w_up, w_down = (np.bincount(group, w * at, n) for at in (up, ~up))
        pairs = []
        for g in np.argsort(head):
            i = head[g]
            if abs(w_up[g] - w_down[g]) > 1e-9 * (1.0 + abs(w_up[g])):
                raise DomainError(
                    f"nu is not symmetric: atom {i} at {th[i].tolist()}, "
                    f"profile {profs[i]!r}, weight {w_up[g]:.12g} there "
                    f"and {w_down[g]:.12g} at its negation")
            pairs.append((float(w_up[g] + w_down[g]), profs[i], th[i]))
        return tuple(pairs)

    @property
    def degenerate(self) -> bool:
        return self.spectral.degenerate

    def profiles_and_weights(self):
        """Pairs (summed weight, profile), one per distinct profile, in
        order of first appearance."""
        summed = {}
        for w, q, _ in self.pairs:
            summed.setdefault(q, []).append(w)
        return [(math.fsum(ws), q) for q, ws in summed.items()]


# ---------------------------------------------------------------------------
# radial quadrature helpers

def radial_tail_mass(q: RadialProfile, alpha: float, r: float,
                     with_error: bool = False):
    """int_r^inf s^(-1-alpha) q(s) ds, adaptive: the scalar reference for W.

    with_error=True returns (W, error), the sum of QUADPACK's estimates.
    """
    if r <= 0:
        raise DomainError("r must be positive")
    # in y = log s, one decade per call below 1e-2 (where s^(-1-alpha)
    # spans decades), then split at the profile's knees
    edges = [r]
    while edges[-1] < 1e-2:
        edges.append(min(10.0 * edges[-1], 1e-2))
    edges = sorted(set(edges) | {p for p in q.knees() if p > r})
    wy = lambda y: math.exp(-alpha * y) * float(q(math.exp(y)))
    parts = [quad(wy, math.log(a), math.log(b), epsabs=0.0, epsrel=1e-12,
                  limit=256) for a, b in zip(edges, edges[1:])]
    # rescale s = lo*v so the infinite leg always starts at 1 (QUADPACK's
    # infinite-interval map degrades badly for large lower limits)
    lo = edges[-1]
    wv = lambda v: lo ** (-alpha) * v ** (-1.0 - alpha) * float(q(lo * v))
    parts.append(quad(wv, 1.0, np.inf, epsabs=1e-13, epsrel=1e-10,
                      limit=256))
    total, err = (sum(p) for p in zip(*parts))
    if not math.isfinite(total):
        raise NumericError("divergent tail integral", estimate=total)
    return (total, err) if with_error else total


def radial_second_moment(q: RadialProfile, alpha: float, r: float) -> float:
    """int_0^r s^(1-alpha) q(s) ds (finite for alpha < 2)."""
    if r <= 0:
        raise DomainError("r must be positive")
    w = lambda s: s ** (1.0 - alpha) * float(q(s))
    edges = [0.0]
    edges += sorted(p for p in set(q.knees()) if 0 < p < r)
    # split wide ranges by decades: a localized integrand on a huge
    # interval otherwise evades the adaptive sampler entirely
    e = max(edges[-1], 1.0)
    while e * 10.0 < r:
        e *= 10.0
        edges.append(e)
    edges.append(r)
    v = 0.0
    for a, b in zip(edges, edges[1:]):
        vi, _ = quad(w, a, b, epsabs=1e-13, epsrel=1e-10, limit=256)
        v += vi
    return v


#: tail table nodes 10^(k / TAIL_PER_TEN) from R_LO to R_HI: every power
#: of ten is a node
TAIL_PER_TEN, R_LO, R_HI = 128, 1e-12, 1e8
_STEP = math.log(10.0) / TAIL_PER_TEN
_K_LO = TAIL_PER_TEN * round(math.log10(R_LO))
#: the nodes' log r, shared by every table
_Y = _STEP * np.arange(_K_LO, TAIL_PER_TEN * round(math.log10(R_HI)) + 1)
#: W at or below this reads as 0 (exponential tails underflow past s ~ 700)
_W_FLOOR = 1e-300
#: the 8-point Gauss-Legendre rule applied on each node interval: its
#: weights, and its points' log s and s, node interval by node interval
_RULE_X, _RULE_W = np.polynomial.legendre.leggauss(8)
_RULE_Y = (_Y[:-1, None] + _STEP * (0.5 + 0.5 * _RULE_X)).ravel()
_RULE_S = np.exp(_RULE_Y)
_Y.setflags(write=False)


class TailTable:
    """W(r) = int_r^inf s^(-1-alpha) q(s) ds for one (q, alpha), any r > 0.

    A constant profile uses its closed form, and a cut at s0 reads its
    base's table as (W_q(r) - W_q(s0))_+.  Otherwise W is a cubic Hermite
    in (log r, log W) on the fixed nodes 10^(k / TAIL_PER_TEN) from R_LO
    to R_HI, with the exact slopes d log W / d log r = -r^(-alpha) q(r) /
    W(r).  The node values sum an 8-point Gauss-Legendre rule in log s
    between neighbouring nodes onto radial_tail_mass at the top node, R_HI;
    above it W follows the top slope, and below R_LO the closed leg
    W(R_LO) + q(0+) (r^(-alpha) - R_LO^(-alpha)) / alpha.  Every node is
    filled once, when the table is built, and reading the table changes
    nothing.  The inverse reads a guide, built on its first call: the
    exact node coordinate at about four levels per node, evenly spaced in
    log W over the nodes above the underflow floor.  Linear interpolation
    between them puts a share in its node interval, all but always at
    once.
    """

    def __init__(self, q: RadialProfile, alpha: float):
        self.q, self.alpha = q, alpha
        if isinstance(q, Truncated):
            # the cut: the base's table shifted down by its mass beyond s0
            self.base = _tail_table(q.q, alpha)
            self.w_cut = float(self.base(q.s0))
        elif not isinstance(q, Constant):
            f = np.exp(-alpha * _RULE_Y) * q(_RULE_S)  # q sees 1-d
            inc = _STEP / 2 * f.reshape(-1, len(_RULE_W)) @ _RULE_W
            w = np.append(np.cumsum(inc[::-1])[::-1], 0.0)
            w += radial_tail_mass(q, alpha, R_HI)
            if not math.isfinite(w[0]):
                raise NumericError("radial tail mass is not finite",
                                   estimate=float(w[0]))
            w = np.maximum(w, _W_FLOOR)
            self.q0, self.logw = float(q.q0), np.log(w)
            # slopes per node step, for the cubic in t = (y - y_i) / step
            self.slope = -_STEP * np.exp(-alpha * _Y) * q(np.exp(_Y)) / w
            self.logw.setflags(write=False)
            self.slope.setflags(write=False)

    def _cubic(self, i):
        """log W on node interval i as f0 + t (m0 + t (c2 + t c3))."""
        # [1:][i] reads node i + 1 with no index array for i + 1
        f0, m0, m1 = self.logw[i], self.slope[i], self.slope[1:][i]
        d = self.logw[1:][i] - f0
        return f0, m0, 3 * d - 2 * m0 - m1, m0 + m1 - 2 * d

    def __call__(self, r):
        """W at the radii r > 0."""
        r = np.asarray(r, dtype=float)
        r_min = float(r.min()) if r.size else 1.0
        if not r_min > 0:  # also nan
            raise DomainError(f"radius {r_min} is not positive")
        if isinstance(self.q, Truncated):
            return np.maximum(self.base(r) - self.w_cut, 0.0)
        if isinstance(self.q, Constant):
            return self.q.c * r ** -self.alpha / self.alpha
        leg = r_min < R_LO
        x = np.log10(np.maximum(r, R_LO) if leg else r) * TAIL_PER_TEN
        i = np.clip(np.floor(x) - _K_LO, 0, len(_Y) - 2).astype(int)
        x -= i + _K_LO  # offset in node interval i
        t = np.minimum(x, 1.0)  # above the top node: the top slope
        f0, m0, c2, c3 = self._cubic(i)
        f = f0 + t * (m0 + t * (c2 + t * c3)) + (x - t) * self.slope[-1]
        w = np.where(f > math.log(_W_FLOOR), np.exp(f), 0.0)
        if leg:
            a = self.alpha
            with np.errstate(over="ignore"):
                w += self.q0 / a * np.maximum(r ** -a - R_LO ** -a, 0.0)
            if not math.isfinite(w.max()):
                raise NumericError("radial tail mass is not finite",
                                   estimate=float(w.max()))
        return w

    def _newton(self, lw, i):
        """t in node interval i where its cubic meets log W = lw.

        Two Newton steps from the chord; past the top node, the top slope.
        """
        f0, m0, c2, c3 = self._cubic(i)
        t = (lw - f0) / (m0 + c2 + c3)
        for _ in range(2):
            t -= (f0 - lw + t * (m0 + t * (c2 + t * c3))) / (
                m0 + t * (2 * c2 + 3 * t * c3))
        top = lw < self.logw[-1]
        if np.any(top):
            t = np.where(top, 1.0 + (lw - self.logw[-1]) / self.slope[-1], t)
        return t

    @cached_property
    def guide(self) -> tuple:
        """Node coordinates at even steps of log W, ~4 per node."""
        n = max(int(np.count_nonzero(self.logw > math.log(_W_FLOOR))), 2) - 1
        levels = np.linspace(self.logw[0], self.logw[n], 4 * n + 1)
        i = np.clip(np.searchsorted(-self.logw, -levels) - 1, 0, n - 1)
        x = i + self._newton(levels, i)
        # node interval i spans logw[i] >= log W >= logw[i + 1], open
        # at both ends of the table
        hi, lo = self.logw[:-1].copy(), self.logw[1:].copy()
        hi[0], lo[-1] = np.inf, -np.inf
        return (levels[0], 4 * n / (levels[0] - levels[-1]),
                x, np.append(np.diff(x), 0.0), hi, lo)

    def _interval(self, lw):
        """The node interval i holding each log W = lw.

        The guide's linear interpolant finds it all but always at once; a
        share it misses steps one node at a time.
        """
        g0, per_level, x, dx, hi, lo = self.guide
        p = np.minimum((g0 - lw) * per_level, len(x) - 1)
        j = p.astype(int)
        i = np.minimum((x[j] + (p - j) * dx[j]).astype(int), len(hi) - 1)
        while True:
            up, down = lw < lo[i], lw > hi[i]
            if not (up.any() or down.any()):
                return i
            i += up
            i -= down

    def inverse(self, w):
        """The radius r with W(r) = w, for shares 0 < w < inf.

        The guide gives each log w its node interval with no search, and
        two Newton steps on that interval's cubic, from its chord, give r;
        a share above W(R_LO) solves the closed leg.  A share that is not
        positive and finite raises DomainError, and one whose radius
        underflows to 0 NumericError.
        """
        w = np.asarray(w, dtype=float)
        if w.size and not (w.min() > 0 and w.max() < math.inf):  # also nan
            bad = w[~((w > 0) & (w < math.inf))].flat[0]
            raise DomainError(f"share {bad} of W is not positive and finite")
        a = self.alpha
        if isinstance(self.q, Truncated):
            return self.base.inverse(w + self.w_cut)
        if isinstance(self.q, Constant):
            r = (a * w / self.q.c) ** (-1.0 / a)
        else:
            w0 = math.exp(self.logw[0])
            leg = w.size and w.max() > w0  # some r below R_LO: the closed leg
            lw = np.log(np.minimum(w, w0) if leg else w)
            if self.slope[-1] == 0 and w.size and lw.min() < self.logw[-1]:
                # W underflowed to the floor: a flat top has no radius
                raise NumericError(f"share {w.min()} is below the floor "
                                   f"{_W_FLOOR:g} that W underflows to")
            i = self._interval(lw)
            r = np.exp(_Y[i] + _STEP * self._newton(lw, i))
            if leg:
                r = np.where(w > w0, (R_LO ** -a + np.maximum(w - w0, 0.0)
                                      * (a / self.q0)) ** (-1.0 / a), r)
        if r.size and not r.min() > 0:
            raise NumericError(f"the radius of share {w[r == 0].flat[0]} "
                               "underflows to 0")
        return r


#: one tail table per (q, alpha) for the whole process
_tail_table = lru_cache(maxsize=256)(TailTable)


# ---------------------------------------------------------------------------
# model functionals

def nu_tail(model: LevyModel, r: float) -> float:
    """nu(B(0,r)^c)."""
    return sum(w * float(_tail_table(q, model.alpha)(r))
               for w, q in model.profiles_and_weights())


def truncated_second_moment(model: LevyModel, r: float) -> float:
    """int_{|y|<r} |y|^2 nu(dy)."""
    return sum(w * radial_second_moment(q, model.alpha, r)
               for w, q in model.profiles_and_weights())


def _ray_chord(x: np.ndarray, theta: np.ndarray, r: float):
    """Intersection [s-, s+] of the ray {s theta, s>0} with B(x, r), or None."""
    b = float(np.dot(theta, x))
    disc = r * r - (float(np.dot(x, x)) - b * b)
    if disc <= 0.0:
        return None
    root = math.sqrt(disc)
    lo, hi = b - root, b + root
    if hi <= 0.0:
        return None
    return max(lo, 1e-300), hi


def nu_ball(model: LevyModel, x, r: float) -> float:
    """nu(B(x, r)) by radial chords, W(a) - W(b), over atoms or angles."""
    if r <= 0:
        raise DomainError("r must be positive")
    x = np.asarray(x, dtype=float).reshape(model.d)
    if np.linalg.norm(x) <= r:
        # ball covers the origin: infinite unless it misses the small-jump cone
        raise DomainError("ball contains the origin; nu(B(x,r)) is infinite")

    def chord_mass(q, theta):
        chord = _ray_chord(x, theta, r)
        if chord is None:
            return 0.0
        wa, wb = _tail_table(q, model.alpha)(np.array(chord))
        return float(wa - wb)

    if model.spectral.is_atomic:
        return sum(w / 2 * (chord_mass(q, th) + chord_mass(q, -th))
                   for w, q, th in model.pairs)
    # density measure, d = 2: outer angular quadrature
    g = model.spectral.density
    per_angle = lambda a: float(g(np.array([a]))[0]) * chord_mass(
        model.profile, np.array([math.cos(a), math.sin(a)]))
    # the chord support in angle is an interval around the direction of x
    phi0 = math.atan2(x[1], x[0])
    half = math.asin(min(1.0, r / np.linalg.norm(x)))
    v, _ = quad(per_angle, phi0 - half, phi0 + half, epsabs=1e-12,
                epsrel=1e-8, limit=256)
    return v


def _sphere_ball_mass(spectral: SpectralMeasure, theta0: np.ndarray, r: float) -> float:
    """mu(B(theta0, r) intersected with the sphere)."""
    if spectral.is_atomic:
        dist = np.linalg.norm(spectral.directions - theta0, axis=1)
        return float(np.sum(spectral.weights[dist <= r]))
    # chordal ball on the circle -> angular arc of half-width 2 asin(r/2)
    phi0 = math.atan2(theta0[1], theta0[0])
    half = 2.0 * math.asin(min(1.0, r / 2.0))
    v, _ = quad(lambda a: float(spectral.density(np.array([a]))[0]),
                phi0 - half, phi0 + half, limit=200)
    return float(v)


def gamma_estimate(spectral: SpectralMeasure, r_grid) -> tuple:
    """Fit gamma in mu(B(theta,r) cap S) <= c r^(gamma-1) at the worst theta.

    Least squares of log mass against log r; the fitted intercept is returned
    as c.  Ties (flat mass, i.e. atoms) resolve to gamma = 1.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size < 4 or np.any(r_grid <= 0) or np.any(r_grid >= 0.5):
        raise DomainError("need >= 4 radii inside (0, 1/2)")
    if spectral.is_atomic:
        probes = [spectral.directions[i] for i in range(len(spectral.weights))]
    else:
        ang = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        g = np.asarray(spectral.density(ang), dtype=float)
        if not np.any(g > 0):
            raise DomainError("empty spectral measure")
        ang_peak = ang[int(np.argmax(g))]
        probes = [np.array([math.cos(a), math.sin(a)])
                  for a in (ang_peak, ang_peak + math.pi / 7)]
    best_slope, best_c = None, None
    for theta0 in probes:
        mass = np.array([_sphere_ball_mass(spectral, theta0, r) for r in r_grid])
        if np.any(mass <= 0):
            continue
        slope, logc = np.polyfit(np.log(r_grid), np.log(mass), 1)
        if best_slope is None or slope < best_slope:
            best_slope, best_c = slope, math.exp(logc)
    if best_slope is None:
        raise DomainError("no probe direction carries spectral mass")
    gamma = 1.0 + max(best_slope, 0.0)
    return float(gamma), float(best_c)


# ---------------------------------------------------------------------------
# factories

def _pm_axes(d: int, weight: float = 1.0) -> SpectralMeasure:
    """Atoms of one weight at +-e_i for every axis e_i."""
    return SpectralMeasure(d=d, directions=np.kron(np.eye(d), [[1.0], [-1.0]]),
                           weights=np.full(2 * d, weight))


def stable_model(alpha: float, d: int = 1, weight: float = 1.0) -> LevyModel:
    """Pure stable model with +-axis atoms and q = 1."""
    return LevyModel(d=d, alpha=alpha, spectral=_pm_axes(d, weight),
                     profile=Constant(1.0))


def cauchy_model() -> LevyModel:
    """d=1, alpha=1, atoms {+-1, w=1}, q = 1; Phi(xi) = pi |xi|."""
    return stable_model(1.0, d=1)


def poly_model(m: float, alpha: float, d: int = 1) -> LevyModel:
    return LevyModel(d=d, alpha=alpha, spectral=_pm_axes(d),
                     profile=PolyTempered(m))


def exp_model(alpha: float, a: float = 0.0, c1: float = 1.0, d: int = 1) -> LevyModel:
    return LevyModel(d=d, alpha=alpha, spectral=_pm_axes(d),
                     profile=ExpTempered(a, c1))


def relativistic_weight(d: int, alpha: float) -> float:
    """Normalization making Phi(xi) = (|xi|^2 + 1)^(alpha/2) - 1 exact."""
    from scipy.special import gamma as _g
    return alpha / (2.0 ** (d + 1) * math.pi ** (d / 2.0) * _g(1.0 - alpha / 2.0))


def relativistic_model(alpha: float) -> LevyModel:
    """Relativistic alpha-stable process (mass parameter 1), d = 1 only."""
    return LevyModel(d=1, alpha=alpha,
                     spectral=_pm_axes(1, relativistic_weight(1, alpha)),
                     profile=Relativistic(1, alpha))


# ---------------------------------------------------------------------------
# JSON schema ("model_schema": 1)

def model_to_dict(model: LevyModel) -> dict:
    if not model.spectral.is_atomic:
        raise DomainError("density spectral measures have no JSON form")
    doc = {
        "model_schema": MODEL_SCHEMA_VERSION,
        "d": model.d,
        "alpha": model.alpha,
        "spectral": {
            "type": "atoms",
            "directions": model.spectral.directions.tolist(),
            "weights": model.spectral.weights.tolist(),
        },
    }
    if model.atom_profiles is not None:
        doc["profiles"] = [profile_to_dict(q) for q in model.atom_profiles]
    else:
        doc["profile"] = profile_to_dict(model.profile)
    return doc


def model_from_dict(doc: dict) -> LevyModel:
    ver = doc.get("model_schema", MODEL_SCHEMA_VERSION)
    if ver != MODEL_SCHEMA_VERSION:
        raise DomainError(f"unsupported model_schema {ver}")
    spec_doc = doc["spectral"]
    if spec_doc.get("type") != "atoms":
        raise DomainError("only atomic spectral measures load from JSON")
    spec = SpectralMeasure(
        d=int(doc["d"]),
        directions=np.asarray(spec_doc["directions"], dtype=float),
        weights=np.asarray(spec_doc["weights"], dtype=float),
    )
    kwargs = {}
    if "profiles" in doc:
        kwargs["atom_profiles"] = [profile_from_dict(p) for p in doc["profiles"]]
        kwargs["profile"] = None
    else:
        kwargs["profile"] = profile_from_dict(doc["profile"])
    # older files may name a closed form: that key is ignored, the
    # profiles alone decide which exponents have one
    return LevyModel(d=int(doc["d"]), alpha=float(doc["alpha"]), spectral=spec,
                     **kwargs)


def load_model(path) -> LevyModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def save_model(model: LevyModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)

"""Levy measures of spectral-radial form and their elementary functionals.

A model is nu(D) = sum_i w_i * int_0^inf 1_D(s theta_i) s^(-1-alpha) q_i(s) ds
for atomic spectral measures, or the analogous angular integral when the
spectral measure has a bounded density on the sphere (d = 2 only).  A
density is also discretized once into ANGULAR_NODES atoms, the one angular
rule behind the exponent and the direction matrix; the ball and mass
functionals integrate the density itself.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
    "radial_interval_mass",
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
    symmetric: bool = True

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
            if self.symmetric and not self._atoms_symmetric():
                raise DomainError("atoms are not invariant under negation")
        elif self.density is not None:
            if self.d != 2:
                raise DomainError("density spectral measures supported in d=2 only")
            if self.symmetric and not self._density_symmetric():
                raise DomainError("density not symmetric under theta -> -theta")
            ang = np.linspace(0.0, 2 * math.pi, ANGULAR_NODES, endpoint=False)
            dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            w = np.asarray(self.density(ang), dtype=float) * (
                2 * math.pi / ANGULAR_NODES)
        else:
            raise DomainError("spectral measure needs atoms or a density")
        object.__setattr__(self, "atom_directions", dirs)
        object.__setattr__(self, "atom_weights", w)
        if self.total_mass <= 0 or not math.isfinite(self.total_mass):
            raise DomainError("total spectral mass must be finite and positive")

    @property
    def is_atomic(self) -> bool:
        return self.directions is not None

    def _atoms_symmetric(self) -> bool:
        dirs, w = self.directions, self.weights
        for i in range(len(w)):
            diff = np.linalg.norm(dirs + dirs[i], axis=1)
            j = int(np.argmin(diff))
            if diff[j] > 1e-9 or abs(w[j] - w[i]) > 1e-9 * (1 + abs(w[i])):
                return False
        return True

    def _density_symmetric(self, n: int = 64) -> bool:
        ang = np.linspace(0.0, math.pi, n, endpoint=False)
        g1 = np.asarray(self.density(ang), dtype=float)
        g2 = np.asarray(self.density(ang + math.pi), dtype=float)
        return bool(np.allclose(g1, g2, atol=1e-9, rtol=1e-9))

    @property
    def total_mass(self) -> float:
        if self.is_atomic:
            return float(np.sum(self.weights))
        val, _ = quad(lambda a: float(self.density(np.array([a]))[0]), 0.0, 2 * math.pi, limit=200)
        return float(val)

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
    """Spectral-radial Levy measure with stability index alpha in (0, 2)."""

    d: int
    alpha: float
    spectral: SpectralMeasure
    profile: RadialProfile = None  # type: ignore[assignment]
    atom_profiles: Optional[Sequence[RadialProfile]] = None
    closed_form: Optional[str] = None  # "stable" | "relativistic" | None

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
        # finiteness of the defining integrals
        if not math.isfinite(nu_tail(self, 1.0)):
            raise DomainError("nu(B(0,1)^c) is not finite")
        if not math.isfinite(truncated_second_moment(self, 1.0)):
            raise DomainError("truncated second moment is not finite")

    @property
    def degenerate(self) -> bool:
        return self.spectral.degenerate

    def profiles_and_weights(self):
        """Pairs (weight, profile) per atom; density measures use one profile."""
        if self.spectral.is_atomic:
            profs = self.atom_profiles or (self.profile,) * len(self.spectral.weights)
            return list(zip(self.spectral.weights, profs))
        return [(self.spectral.total_mass, self.profile)]

    def atoms(self):
        """Triples (weight, profile, direction) over the spectral atom set."""
        sp = self.spectral
        profs = self.atom_profiles or (self.profile,) * len(sp.atom_weights)
        return list(zip(sp.atom_weights, profs, sp.atom_directions))


# ---------------------------------------------------------------------------
# radial quadrature helpers

def _knees(q: RadialProfile, alpha: float) -> list:
    """Interior break points where the radial integrand changes character."""
    pts = [1.0]
    if isinstance(q, ExpTempered):
        pts.append(1.0 / q.c1)
    if isinstance(q, Truncated):
        pts.append(q.s0)
    return pts


def radial_tail_mass(q: RadialProfile, alpha: float, r: float) -> float:
    """int_r^inf s^(-1-alpha) q(s) ds."""
    if r <= 0:
        raise DomainError("r must be positive")
    w = lambda s: s ** (-1.0 - alpha) * float(q(s))
    pts = sorted({p for p in _knees(q, alpha) if p > r})
    total, lo = 0.0, r
    for p in pts:
        v, _ = quad(w, lo, p, epsabs=1e-12, epsrel=1e-9, limit=256)
        total += v
        lo = p
    # rescale s = lo*v so the infinite leg always starts at 1 (QUADPACK's
    # infinite-interval map degrades badly for large lower limits)
    wv = lambda v: lo ** (-alpha) * v ** (-1.0 - alpha) * float(q(lo * v))
    v, err = quad(wv, 1.0, np.inf, epsabs=1e-13, epsrel=1e-10, limit=256)
    total += v
    if not math.isfinite(total):
        raise NumericError("divergent tail integral", estimate=total)
    return total


def radial_interval_mass(q: RadialProfile, alpha: float, a: float, b: float) -> float:
    """int_a^b s^(-1-alpha) q(s) ds for 0 < a <= b."""
    if a <= 0:
        raise DomainError("interval must avoid the origin")
    if b <= a:
        return 0.0
    w = lambda s: s ** (-1.0 - alpha) * float(q(s))
    pts = [p for p in _knees(q, alpha) if a < p < b]
    v, _ = quad(w, a, b, points=pts or None, epsabs=1e-13, epsrel=1e-10, limit=256)
    return v


def radial_second_moment(q: RadialProfile, alpha: float, r: float) -> float:
    """int_0^r s^(1-alpha) q(s) ds (finite for alpha < 2)."""
    if r <= 0:
        raise DomainError("r must be positive")
    w = lambda s: s ** (1.0 - alpha) * float(q(s))
    edges = [0.0]
    edges += sorted(p for p in set(_knees(q, alpha)) if 0 < p < r)
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


# ---------------------------------------------------------------------------
# model functionals

def nu_tail(model: LevyModel, r: float) -> float:
    """nu(B(0,r)^c)."""
    if r <= 0:
        raise DomainError("r must be positive")
    return sum(w * radial_tail_mass(q, model.alpha, r)
               for w, q in model.profiles_and_weights())


def truncated_second_moment(model: LevyModel, r: float) -> float:
    """int_{|y|<r} |y|^2 nu(dy)."""
    if r <= 0:
        raise DomainError("r must be positive")
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
    return max(lo, 0.0), hi


def nu_ball(model: LevyModel, x, r: float) -> float:
    """nu(B(x, r)) by radial chord integration (atoms) or angular quadrature."""
    if r <= 0:
        raise DomainError("r must be positive")
    x = np.asarray(x, dtype=float).reshape(model.d)
    if np.linalg.norm(x) <= r:
        # ball covers the origin: infinite unless it misses the small-jump cone
        raise DomainError("ball contains the origin; nu(B(x,r)) is infinite")
    if model.spectral.is_atomic:
        total = 0.0
        for w, q, theta in model.atoms():
            chord = _ray_chord(x, theta, r)
            if chord is None:
                continue
            a, b = chord
            total += w * radial_interval_mass(q, model.alpha, max(a, 1e-300), b)
        return total
    # density measure, d = 2: outer angular quadrature
    g = model.spectral.density
    q = model.profile

    def per_angle(a):
        theta = np.array([math.cos(a), math.sin(a)])
        chord = _ray_chord(x, theta, r)
        if chord is None:
            return 0.0
        lo, hi = chord
        return float(g(np.array([a]))[0]) * radial_interval_mass(
            q, model.alpha, max(lo, 1e-300), hi)

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

def _pm_atoms(d: int, axes: Sequence[int] = None, weight: float = 1.0):
    axes = range(d) if axes is None else axes
    dirs, ws = [], []
    for ax in axes:
        e = np.zeros(d)
        e[ax] = 1.0
        dirs.extend([e, -e])
        ws.extend([weight, weight])
    return np.array(dirs), np.array(ws)


def stable_model(alpha: float, d: int = 1, weight: float = 1.0) -> LevyModel:
    """Pure stable model with +-axis atoms and q = 1."""
    dirs, ws = _pm_atoms(d, weight=weight)
    spec = SpectralMeasure(d=d, directions=dirs, weights=ws)
    return LevyModel(d=d, alpha=alpha, spectral=spec, profile=Constant(1.0),
                     closed_form="stable")


def cauchy_model() -> LevyModel:
    """d=1, alpha=1, atoms {+-1, w=1}, q = 1; Phi(xi) = pi |xi|."""
    return stable_model(1.0, d=1)


def poly_model(m: float, alpha: float, d: int = 1) -> LevyModel:
    dirs, ws = _pm_atoms(d)
    spec = SpectralMeasure(d=d, directions=dirs, weights=ws)
    return LevyModel(d=d, alpha=alpha, spectral=spec, profile=PolyTempered(m))


def exp_model(alpha: float, a: float = 0.0, c1: float = 1.0, d: int = 1) -> LevyModel:
    dirs, ws = _pm_atoms(d)
    spec = SpectralMeasure(d=d, directions=dirs, weights=ws)
    return LevyModel(d=d, alpha=alpha, spectral=spec, profile=ExpTempered(a, c1))


def relativistic_weight(d: int, alpha: float) -> float:
    """Normalization making Phi(xi) = (|xi|^2 + 1)^(alpha/2) - 1 exact."""
    from scipy.special import gamma as _g
    return alpha / (2.0 ** (d + 1) * math.pi ** (d / 2.0) * _g(1.0 - alpha / 2.0))


def relativistic_model(alpha: float, d: int = 1) -> LevyModel:
    """Relativistic alpha-stable process (mass parameter 1), d = 1."""
    if d != 1:
        raise DomainError("relativistic factory provided for d=1 only")
    w = relativistic_weight(d, alpha)
    dirs, ws = _pm_atoms(d, weight=w)
    spec = SpectralMeasure(d=d, directions=dirs, weights=ws)
    return LevyModel(d=d, alpha=alpha, spectral=spec,
                     profile=Relativistic(d, alpha), closed_form="relativistic")


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
    if model.closed_form:
        doc["closed_form"] = model.closed_form
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
    return LevyModel(d=int(doc["d"]), alpha=float(doc["alpha"]), spectral=spec,
                     closed_form=doc.get("closed_form"), **kwargs)


def load_model(path) -> LevyModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def save_model(model: LevyModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)

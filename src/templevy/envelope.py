"""Two-sided density envelopes.

The density of a tempered stable semigroup is bracketed, up to constants,
by the two-regime formula

    min( t^(-d/a),  t^(1 + (g - d)/a) |x|^(-a - g) q(|x|) )

with a = alpha for t < 1 and a = beta (the high-frequency growth order of
Phi) for t > 1; g is the spectral dimension exponent, SpectralMeasure.gamma
(1 for atomic direction sets, d for bounded spectral densities).  All
constants are set to 1 here: the verification harness recovers them
empirically as ratio statistics.  Lower envelopes apply only inside the
cone over the admissible direction set A0, a non-empty set of unit
vectors.

evaluate, in_cone and product_form take one point of shape (d,), giving
a Python float (or bool), or an (n, d) array of points, giving an (n,)
array; a point without d coordinates raises DomainError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .charexp import _direction_set, _radial_scan, check_lower_growth
from .errors import DomainError, RegimeError
from .model import _UNIT_TOL, LevyModel, nu_ball, nu_tail
from .profiles import (Constant, ExpTempered, RadialProfile,
                       profile_from_dict, profile_to_dict, tail_index)

__all__ = [
    "EnvelopeSpec",
    "NOT_APPLICABLE",
    "evaluate",
    "product_form",
    "in_cone",
    "hypothesis_check",
    "relativistic_lower_profile",
    "spec_to_dict",
    "spec_from_dict",
]

#: sentinel for points/regimes where an envelope makes no claim
NOT_APPLICABLE = float("nan")

#: angular tolerance for membership in the cone over a finite A0
CONE_TOL = 1e-6


@dataclass(frozen=True)
class EnvelopeSpec:
    """One side of the bracket in one time regime."""

    side: str            # "upper" | "lower"
    regime: str          # "small_t" | "large_t"
    d: int
    alpha: float
    gamma: float
    profile: RadialProfile
    beta: Optional[float] = None           # large_t only
    directions: Optional[tuple] = None     # A0 for lower envelopes

    def __post_init__(self):
        if self.side not in ("upper", "lower"):
            raise DomainError("side must be 'upper' or 'lower'")
        if self.regime not in ("small_t", "large_t"):
            raise DomainError("regime must be 'small_t' or 'large_t'")
        if not 0.0 < self.alpha < 2.0:
            raise DomainError("alpha must lie in (0, 2)")
        if not 1.0 <= self.gamma <= self.d:
            raise DomainError("gamma must lie in [1, d]")
        if self.regime == "large_t":
            if self.beta is None or not self.alpha <= self.beta <= 2.0:
                raise DomainError("large_t spec needs beta in [alpha, 2]")
        if self.directions is not None:
            dirs = _directions(self.directions, self.d)
            object.__setattr__(self, "directions",
                               tuple(map(tuple, dirs.tolist())))


def _directions(directions, d: int) -> np.ndarray:
    """A0 as a (k, d) array of unit vectors; DomainError otherwise."""
    try:
        dirs = np.asarray(directions, dtype=float)
    except (TypeError, ValueError):
        dirs = None
    if dirs is not None and dirs.shape[:1] == (0,):
        raise DomainError("A0 (directions) must hold at least one direction")
    if dirs is None or dirs.ndim != 2 or dirs.shape[1] != d:
        raise DomainError(f"every direction of A0 needs d = {d} coordinates")
    if not np.all(np.abs(np.linalg.norm(dirs, axis=1) - 1.0) <= _UNIT_TOL):
        raise DomainError(f"directions of A0 must be unit vectors "
                          f"(|theta| within {_UNIT_TOL:g} of 1)")
    return dirs


def _points(spec: EnvelopeSpec, x) -> tuple:
    """(x as an (n, d) array, its norms, whether x was one (d,) point)."""
    try:
        pts = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        pts = None
    if pts is None or pts.ndim not in (1, 2) or pts.shape[-1] != spec.d:
        raise DomainError(f"points need d = {spec.d} coordinates: shape "
                          f"({spec.d},) or (n, {spec.d})")
    if np.isnan(pts).any():
        raise DomainError("points must not have nan coordinates")
    one = pts.ndim == 1
    pts = pts.reshape(-1, spec.d)
    return pts, np.linalg.norm(pts, axis=1), one


def _cone(spec: EnvelopeSpec, pts: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Cone membership of each row of pts (norms r): the origin, or a unit
    vector within CONE_TOL of some direction of A0."""
    if spec.directions is None:
        return np.ones(len(r), dtype=bool)
    dirs = np.asarray(spec.directions)
    xhat = pts / np.where(r > 0.0, r, 1.0)[:, None]
    dist = np.linalg.norm(xhat[:, None, :] - dirs[None, :, :], axis=-1)
    return (r == 0.0) | np.any(dist <= CONE_TOL, axis=1)


def in_cone(spec: EnvelopeSpec, x):
    """Whether x lies in the cone over A0 (vacuously true for uppers).

    x is one point of shape (d,), which gives a bool, or an (n, d) array
    of points, which gives an (n,) boolean array.
    """
    pts, r, one = _points(spec, x)
    inside = _cone(spec, pts, r)
    return bool(inside[0]) if one else inside


def evaluate(spec: EnvelopeSpec, t: float, x):
    """min(t^(-d/a), t^(1+(gamma-d)/a) |x|^(-alpha-gamma) q(|x|)).

    a is alpha for small_t (t in (0, 1]) and beta for large_t (t > 1).  A
    lower envelope is NOT_APPLICABLE outside the cone over A0.  x is one
    point of shape (d,), which gives a float, or an (n, d) array of
    points, which gives an (n,) array.
    """
    if spec.regime == "small_t":
        if not 0.0 < t <= 1.0:
            raise RegimeError("small-t envelope needs t in (0, 1]")
        a = spec.alpha
    else:
        if t <= 1.0:
            raise RegimeError("large-t envelope needs t > 1")
        a = spec.beta
    pts, r, one = _points(spec, x)
    diag = t ** (-spec.d / a)
    vals = np.full(len(r), diag)
    off = r > 0.0
    s = r[off]
    # near the origin the off-diagonal term overflows and loses to diag;
    # fmin keeps diag where that term is nan, as min(diag, nan) does
    with np.errstate(over="ignore"):
        vals[off] = np.fmin(diag, t ** (1.0 + (spec.gamma - spec.d) / a)
                            * s ** (-spec.alpha - spec.gamma)
                            * spec.profile(s))
    if spec.side == "lower":
        vals[~_cone(spec, pts, r)] = NOT_APPLICABLE
    return float(vals[0]) if one else vals


def product_form(spec: EnvelopeSpec, t: float, x):
    """t^(-d/a) (1 + t^(-1/a) |x|)^(-alpha-gamma) q(|x|), with q = 1 at
    the origin; a float for one (d,) point, an (n,) array for (n, d).

    Comparable to the min form whenever q is doubling; used for ratio
    scans of the two shapes.
    """
    a = spec.alpha if spec.regime == "small_t" else spec.beta
    _, r, one = _points(spec, x)
    qv = np.ones(len(r))
    off = r > 0.0
    qv[off] = spec.profile(r[off])
    vals = (t ** (-spec.d / a)
            * (1.0 + t ** (-1.0 / a) * r) ** (-spec.alpha - spec.gamma) * qv)
    return float(vals[0]) if one else vals


def relativistic_lower_profile(d: int, alpha: float) -> ExpTempered:
    """(1+s)^((d+alpha-1)/2) e^(-2s): a valid lower profile for the
    relativistic model's Bessel-type kernel."""
    return ExpTempered(a=(d + alpha - 1) / 2.0, c1=2.0)


# ---------------------------------------------------------------------------
# hypothesis checks


def hypothesis_check(model: LevyModel, spec: EnvelopeSpec) -> dict:
    """Numerically probe each condition the envelope bound relies on.

    Returns {"pass": bool, "checks": {name: {"pass": bool, ...}}}; an
    entry carries the numbers it was decided on: a ratio over its scan, or
    a rule's input such as the measure's gamma or a profile's tail index.
    """
    checks = {}
    a = model.alpha
    if spec.side == "upper":
        checks["gamma_measure"] = _check_gamma(model, spec)
        checks["profile_dominates"] = _check_profile_dominates(model, spec)
        # upper bounds need the doubling property of the envelope profile
        # (exponential profiles fail it; replace with (1+s)^(-m))
        checks["profile_doubling"] = {"pass": bool(spec.profile.doubling)}
        if spec.regime == "large_t":
            checks["beta_integrability"] = _check_beta_integrability(
                model, spec)
            checks["phi_beta_growth"] = _check_phi_growth(model, spec.beta)
    else:
        checks["ball_lower"] = _check_ball_lower(model, spec)
        checks["tail_upper"] = _check_tail_upper(model, a)
        if spec.regime == "large_t":
            checks["tail_upper_beta"] = _check_tail_upper(model, spec.beta)
            checks["phi_two_sided_beta"] = _check_phi_two_sided(model, spec)
    ok = all(c["pass"] for c in checks.values())
    return {"pass": ok, "checks": checks}


def _check_gamma(model: LevyModel, spec: EnvelopeSpec) -> dict:
    """mu(B(theta, r) cap S) <= c r^(gamma - 1) for all theta and r: the
    spec's gamma must not exceed the measure's, SpectralMeasure.gamma."""
    gamma = model.spectral.gamma
    return {"pass": spec.gamma <= gamma, "gamma": gamma}


def _outward_grid(start: float, stop: float, n: int) -> np.ndarray:
    """n log-spaced nodes from start to stop, continued on the same
    spacing while they stay within a factor 2 beyond stop."""
    a, b = math.log(start), math.log(stop)
    h = (b - a) / (n - 1)
    extra = int(math.log(2.0) / abs(h))
    return np.exp(a + h * np.arange(n + extra))


def _sup_settles(ratios: np.ndarray, n: int) -> bool:
    """Whether the sup of ratios (on an _outward_grid) stays bounded past
    the first n nodes: over the extension it does not rise (by more than
    1e-12 of itself), or its rises shrink node by node (it closes in on a
    finite limit).  A finite sup on a fixed range says nothing: a power
    that diverges outward, however slowly, is finite on every range."""
    sup = np.maximum.accumulate(ratios)
    rises = np.diff(sup[n - 1:])
    return bool(np.isfinite(sup[-1])
                and (np.all(rises <= 1e-12 * sup[-1])
                     or np.all(rises[1:] < rises[:-1])))


def _check_profile_dominates(model: LevyModel, spec: EnvelopeSpec) -> dict:
    """Upper envelopes need q_spec >= model profile (up to a constant)."""
    s = _outward_grid(1e-2, 50.0, 60)
    ratio = np.max([np.asarray(q(s)) / np.asarray(spec.profile(s))
                    for _, q in model.profiles_and_weights()], axis=0)
    return {"pass": _sup_settles(ratio, 60), "sup_ratio": float(ratio.max())}


def _check_beta_integrability(model: LevyModel, spec: EnvelopeSpec) -> dict:
    """int_1^inf s^(beta - alpha - 1) q(s) ds < inf.

    A profile that declares its tail passes iff beta <= tail_index, which
    reads the rule off the tail: any beta for an exponential tail, beta <
    alpha + m for a power tail s^-m.  A constant profile fails by rule:
    s^(beta - alpha - 1) is not integrable at infinity for any beta >=
    alpha, and a spec's beta is at least alpha.  Otherwise the integral
    on [1, 1e6] must settle on its value on [1, 1e4]; it is taken in
    log s, one decade at a time, so that QUADPACK sees the mass near
    s = 1.
    """
    b, a = spec.beta, model.alpha
    if isinstance(spec.profile, Constant):
        return {"pass": False, "beta": b,
                "reason": "a constant profile leaves s^(beta - alpha - 1) "
                          "non-integrable on [1, inf) for every beta >= alpha"}
    if spec.profile.tail is not None:
        index = tail_index(spec.profile, a)
        return {"pass": b <= index, "beta": b, "tail_index": index}
    f = lambda u: math.exp((b - a) * u) * float(spec.profile(math.exp(u)))
    step = math.log(10.0)
    decades = [quad(f, k * step, (k + 1) * step, limit=256)[0]
               for k in range(6)]
    v1, v2 = sum(decades[:4]), sum(decades)
    ok = math.isfinite(v2) and v2 <= v1 * (1.0 + 1e-3) + 1e-9
    return {"pass": bool(ok), "integral_1e4": v1, "integral_1e6": v2}


def _check_phi_growth(model: LevyModel, beta: float) -> dict:
    """Phi(xi) >= c |xi|^beta on |xi| <= 1 (low-frequency growth).  The
    inf of Phi / |xi|^beta on 24 radii from 1 to 1e-2 must not fall, by
    more than 1e-12 of itself, on the _outward_grid extension below 1e-2:
    a positive inf on a fixed range says nothing, since Phi ~ |xi|^2 under
    beta < 2 leaves |xi|^(2 - beta), positive on every range."""
    radii = _outward_grid(1.0, 1e-2, 24)
    inf_ratio = check_lower_growth(model, beta, radii=radii[:24])
    inner = check_lower_growth(model, beta, radii=radii[24:])
    ok = inf_ratio > 0 and inner >= inf_ratio * (1.0 - 1e-12)
    return {"pass": bool(ok), "inf_ratio": inf_ratio}


def _check_phi_two_sided(model: LevyModel, spec: EnvelopeSpec) -> dict:
    """c^-1 |xi|^beta <= Phi <= c |xi|^beta on |xi| <= 1.  The lower side
    is _check_phi_growth.  On the upper side the sup of Phi / |xi|^beta
    over the directions, on the same radii, must settle over their inward
    extension (_sup_settles): Phi ~ |xi|^1.5 under beta = 2 leaves
    |xi|^-0.5, finite on every range."""
    lower = _check_phi_growth(model, spec.beta)
    radii = _outward_grid(1.0, 1e-2, 24)
    phi, r = _radial_scan(model, _direction_set(model), radii, 0)
    ratio = (phi / r ** spec.beta).reshape(len(radii), -1).max(axis=1)
    upper = _sup_settles(ratio, 24)
    return {"pass": bool(lower["pass"] and upper),
            "inf_ratio": lower["inf_ratio"], "sup_ratio": float(ratio.max())}


def _check_ball_lower(model: LevyModel, spec: EnvelopeSpec) -> dict:
    """nu(B(x, r)) >= c r^gamma |x|^(-alpha-gamma) q(|x|) on the cone.

    As r -> 0 a ball's mass shrinks like r^gamma of the measure
    (SpectralMeasure.gamma), so the spec's gamma must be at least that
    by rule.  The scan over |x| probes only r/|x| in {0.25, 0.5}, where
    gamma scales the constant alone."""
    a = model.alpha
    dirs = spec.directions or model.spectral.probe_directions
    worst = math.inf
    for th in dirs:
        th = np.asarray(th, dtype=float)
        for r_abs in (0.5, 1.0, 2.0, 5.0, 10.0):
            for frac in (0.25, 0.5):
                r = frac * r_abs
                ball = nu_ball(model, r_abs * th, r)
                ref = (r ** spec.gamma * r_abs ** (-a - spec.gamma)
                       * float(spec.profile(r_abs)))
                if ref > 0:
                    worst = min(worst, ball / ref)
    ok = spec.gamma >= model.spectral.gamma and 0 < worst < math.inf
    return {"pass": bool(ok), "inf_ratio": worst}


def _check_tail_upper(model: LevyModel, exponent: float) -> dict:
    """nu(B(0,r)^c) <= c r^(-exponent) for small r.

    nu(B(0,r)^c) ~ q(0+) r^-alpha / alpha as r -> 0, so an exponent below
    alpha fails whenever a profile has q(0+) > 0, however slowly the
    ratio grows on the scan."""
    radii = _outward_grid(1.0, 1e-2, 16)
    ratios = np.array([nu_tail(model, float(r)) * r ** exponent
                       for r in radii])
    below = exponent < model.alpha and any(
        q.q0 > 0 for _, q in model.profiles_and_weights())
    return {"pass": not below and _sup_settles(ratios, 16),
            "sup_ratio": float(ratios.max())}


# ---------------------------------------------------------------------------
# JSON form (CLI)


def spec_to_dict(spec: EnvelopeSpec) -> dict:
    doc = {"side": spec.side, "regime": spec.regime, "d": spec.d,
           "alpha": spec.alpha, "gamma": spec.gamma,
           "profile": profile_to_dict(spec.profile)}
    if spec.beta is not None:
        doc["beta"] = spec.beta
    if spec.directions is not None:
        doc["directions"] = [list(th) for th in spec.directions]
    return doc


def spec_from_dict(doc: dict) -> EnvelopeSpec:
    return EnvelopeSpec(
        side=doc["side"], regime=doc["regime"], d=int(doc["d"]),
        alpha=float(doc["alpha"]), gamma=float(doc["gamma"]),
        profile=profile_from_dict(doc["profile"]),
        beta=float(doc["beta"]) if "beta" in doc else None,
        directions=doc.get("directions"))

"""Two-sided density envelopes.

The density of a tempered stable semigroup is bracketed, up to constants,
by the two-regime formula

    min( t^(-d/a),  t^(1 + (g - d)/a) |x|^(-a - g) q(|x|) )

with a = alpha for t < 1 and a = beta (the high-frequency growth order of
Phi) for t > 1; g is the spectral dimension exponent (1 for atomic
direction sets, d for bounded spectral densities).  All constants are set
to 1 here: the verification harness recovers them empirically as ratio
statistics.  Lower envelopes apply only inside the cone over the
admissible direction set A0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .charexp import check_lower_growth, check_two_sided
from .errors import DomainError, RegimeError
from .model import LevyModel, gamma_estimate, nu_ball, nu_tail
from .profiles import (ExpTempered, RadialProfile, profile_from_dict,
                       profile_to_dict, tail_index)

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
        if not 1.0 <= self.gamma <= self.d:
            raise DomainError("gamma must lie in [1, d]")
        if self.regime == "large_t":
            if self.beta is None or not self.alpha <= self.beta <= 2.0:
                raise DomainError("large_t spec needs beta in [alpha, 2]")


def in_cone(spec: EnvelopeSpec, x) -> bool:
    """Whether x lies in the cone over A0 (vacuously true for uppers)."""
    if spec.directions is None:
        return True
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = float(np.linalg.norm(x))
    if r == 0.0:
        return True
    xhat = x / r
    return any(np.linalg.norm(xhat - np.asarray(th, dtype=float)) <= CONE_TOL
               for th in spec.directions)


def evaluate(spec: EnvelopeSpec, t: float, x) -> float:
    """min(t^(-d/a), t^(1+(gamma-d)/a) |x|^(-alpha-gamma) q(|x|)).

    a is alpha for small_t (t in (0, 1]) and beta for large_t (t > 1).  A
    lower envelope returns NOT_APPLICABLE outside the cone over A0.
    """
    if spec.regime == "small_t":
        if not 0.0 < t <= 1.0:
            raise RegimeError("small-t envelope needs t in (0, 1]")
        a = spec.alpha
    else:
        if t <= 1.0:
            raise RegimeError("large-t envelope needs t > 1")
        a = spec.beta
    if spec.side == "lower" and not in_cone(spec, x):
        return NOT_APPLICABLE
    r = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    diag = t ** (-spec.d / a)
    if r == 0.0:
        return diag
    off = (t ** (1.0 + (spec.gamma - spec.d) / a)
           * r ** (-spec.alpha - spec.gamma)
           * float(spec.profile(r)))
    return min(diag, off)


def product_form(spec: EnvelopeSpec, t: float, x) -> float:
    """t^(-d/a) (1 + t^(-1/a) |x|)^(-alpha-gamma) q(|x|).

    Comparable to the min form whenever q is doubling; used for ratio
    scans of the two shapes.
    """
    a = spec.alpha if spec.regime == "small_t" else spec.beta
    r = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    qv = float(spec.profile(r)) if r > 0 else 1.0
    return (t ** (-spec.d / a)
            * (1.0 + t ** (-1.0 / a) * r) ** (-spec.alpha - spec.gamma) * qv)


def relativistic_lower_profile(d: int, alpha: float) -> ExpTempered:
    """(1+s)^((d+alpha-1)/2) e^(-2s): a valid lower profile for the
    relativistic model's Bessel-type kernel."""
    return ExpTempered(a=(d + alpha - 1) / 2.0, c1=2.0)


# ---------------------------------------------------------------------------
# hypothesis checks


def hypothesis_check(model: LevyModel, spec: EnvelopeSpec) -> dict:
    """Numerically probe each condition the envelope bound relies on.

    Returns {"pass": bool, "checks": {name: {"pass": bool, ...}}}; any
    fitted constants ride along in the per-check entries.
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
    r_grid = np.exp(np.linspace(math.log(1e-3), math.log(0.45), 8))
    g_fit, c_fit = gamma_estimate(model.spectral, r_grid)
    # the envelope's gamma must not overstate the measured dimension
    ok = spec.gamma <= g_fit + 0.2
    return {"pass": bool(ok), "gamma_fit": g_fit, "c_fit": c_fit}


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
    alpha + m for a power tail s^-m.  Otherwise the integral on [1, 1e6]
    must settle on its value on [1, 1e4]; it is taken in log s, one decade
    at a time, so that QUADPACK sees the mass near s = 1.
    """
    b, a = spec.beta, model.alpha
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
    """Phi(xi) >= c |xi|^beta on |xi| <= 1 (low-frequency growth)."""
    radii = np.exp(np.linspace(math.log(1e-2), math.log(1.0), 24))
    inf_ratio = check_lower_growth(model, beta, radii=radii)
    return {"pass": bool(inf_ratio > 0), "inf_ratio": inf_ratio}


def _check_phi_two_sided(model: LevyModel, spec: EnvelopeSpec) -> dict:
    """c^-1 |xi|^beta <= Phi <= c |xi|^beta near 0 (beta = 2 case reduces
    to the second-moment comparison)."""
    try:
        lo, hi = check_two_sided(model, radii=np.exp(
            np.linspace(math.log(1e-2), math.log(1.0), 24)))
    except DomainError as e:
        return {"pass": False, "reason": str(e)}
    return {"pass": bool(lo > 0 and math.isfinite(hi)),
            "inf_ratio": lo, "sup_ratio": hi}


def _check_ball_lower(model: LevyModel, spec: EnvelopeSpec) -> dict:
    """nu(B(x, r)) >= c r^gamma |x|^(-alpha-gamma) q(|x|) on the cone."""
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
    return {"pass": bool(worst > 0 and math.isfinite(worst)),
            "inf_ratio": worst}


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
        doc["directions"] = [list(map(float, np.atleast_1d(th)))
                             for th in spec.directions]
    return doc


def spec_from_dict(doc: dict) -> EnvelopeSpec:
    dirs = doc.get("directions")
    return EnvelopeSpec(
        side=doc["side"], regime=doc["regime"], d=int(doc["d"]),
        alpha=float(doc["alpha"]), gamma=float(doc["gamma"]),
        profile=profile_from_dict(doc["profile"]),
        beta=float(doc["beta"]) if "beta" in doc else None,
        directions=tuple(tuple(map(float, th)) for th in dirs)
        if dirs is not None else None)

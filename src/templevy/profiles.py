"""Radial tempering profiles.

A profile is the bounded multiplier q(s) >= 0 applied to the stable radial
density s^(-1-alpha).  The built-in kinds cover constant (pure stable),
polynomial tempering (1+s)^(-m), exponential tempering (1+s)^a exp(-c s),
the relativistic Bessel-type kernel, and the cut of any of them at a
radius s0 (the small-jump part of a split measure).  Each is
non-increasing, as a Custom profile should be, except exponential
tempering with a > 0, which rises to its peak at s = a/c - 1 when a > c.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .errors import DomainError

__all__ = [
    "RadialProfile",
    "Constant",
    "PolyTempered",
    "ExpTempered",
    "Truncated",
    "Relativistic",
    "Custom",
    "tail_index",
    "relativistic_kernel",
    "profile_from_dict",
    "profile_to_dict",
]


def relativistic_kernel(d: int, alpha: float, s):
    """Bessel-type kernel of the relativistic stable Levy density.

    K(s) = s^(d+alpha) * int_0^inf exp(-u - s^2/(4u)) u^((-2-d-alpha)/2) du,
    evaluated through the modified Bessel function of the second kind:
    K(s) = 2^(1+nu) s^nu K_nu(s) with nu = (d+alpha)/2.  The scaled Bessel
    routine keeps the evaluation stable for large s: s^nu e^(-s) is taken
    as one exponential, which underflows cleanly to 0 past s ~ 800.  kve
    is nan past s ~ 2e9, so it is read at min(s, 1e6): the product is 0
    there either way.  s may be a float or an array.
    """
    nu = 0.5 * (d + alpha)
    decay = np.exp(nu * np.log(s) - s)
    return 2.0 ** (1.0 + nu) * special.kve(nu, np.minimum(s, 1e6)) * decay


@dataclass(frozen=True)
class RadialProfile:
    """Base class; subclasses implement ``value`` on positive s.

    ``value`` receives either a float or an ndarray and applies one formula
    to both.  A float goes in untouched: the scalar quadratures call q once
    per integrand point, and a 0-d array would cost several times the
    formula itself.

    A profile also declares its scales: ``knees()``, the radii where q
    changes character (the radial quadratures split there), ``q0`` =
    q(0+) and ``tail`` = (m, c), with q(s) of order s^-m e^(-c s) as
    s -> inf (c = 0 for a power tail).  The FFTLog sweep behind the psi
    tables reads q0 and tail.  A cut leaves ``tail`` at None, since its
    jump at s0 would ring in the sweep: a cut of any profile has its
    tables filled by the cut rule, which reads the base's q0 and knees
    and the base's own psi.  Custom declares no tail, and has its tables
    filled by quadrature; Constant has a closed form.
    """

    #: whether q satisfies the doubling bound q(s) <= K q(2s); None when
    #: not declared (Custom), and hypothesis_check measures it
    doubling = True
    #: (m, c): q(s) ~ s^-m e^(-c s) as s -> inf; None when not declared
    tail = None

    def value(self, s):  # pragma: no cover
        raise NotImplementedError

    def knees(self) -> tuple:
        """Radii where q changes character."""
        return (1.0,)

    @property
    def q0(self) -> float:
        """q(0+); the base class reads q at s = 1e-12."""
        return float(self(np.array([1e-12]))[0])

    def __call__(self, s):
        if isinstance(s, float):
            return self.value(s)
        return self.value(np.asarray(s, dtype=float))


@dataclass(frozen=True)
class Constant(RadialProfile):
    c: float = 1.0

    def value(self, s):
        return np.full_like(s, self.c)


@dataclass(frozen=True)
class PolyTempered(RadialProfile):
    """q(s) = (1+s)^(-m), m >= 0."""

    m: float

    def __post_init__(self):
        # m < 0 makes q rise without bound
        if not self.m >= 0:
            raise DomainError(
                f"PolyTempered requires m >= 0, got m = {self.m}")

    q0 = 1.0

    @property
    def tail(self) -> tuple:
        return (self.m, 0.0)

    def value(self, s):
        return (1.0 + s) ** (-self.m)


@dataclass(frozen=True)
class ExpTempered(RadialProfile):
    """q(s) = (1+s)^a exp(-c1 s)."""

    #: q(s)/q(2s) = e^(c1 s) (1+s)^{-a}... is unbounded: not doubling
    doubling = False

    a: float = 0.0
    c1: float = 1.0

    def __post_init__(self):
        if self.c1 <= 0 or self.a < 0:
            raise DomainError("ExpTempered requires a >= 0 and c1 > 0")
        # exp(-c1 s) is 0 past s_zero, where (1+s)^a may still overflow
        object.__setattr__(self, "_s_zero", 750.0 / self.c1)

    q0 = 1.0

    @property
    def tail(self) -> tuple:
        return (-self.a, self.c1)

    def knees(self) -> tuple:
        return (1.0, 1.0 / self.c1)

    def value(self, s):
        # q is 0 past s_zero: an array (or numpy scalar) is read no
        # further out, so inf * 0 = nan cannot arise; a float's power
        # raises OverflowError there instead
        if type(s) is not float:
            s = np.minimum(s, self._s_zero)
        try:
            return (1.0 + s) ** self.a * np.exp(-self.c1 * s)
        except OverflowError:
            return 0.0


@dataclass(frozen=True)
class Truncated(RadialProfile):
    """The base profile q cut at s0: q(s) for s <= s0, 0 otherwise.

    The default base q = 1 is hard truncation; a cut of a cut keeps the
    smaller s0 over the inner base.  Not doubling.
    """

    s0: float
    q: RadialProfile = Constant(1.0)
    doubling = False

    def __post_init__(self):
        if isinstance(self.q, Truncated):
            object.__setattr__(self, "s0", min(self.s0, self.q.s0))
            object.__setattr__(self, "q", self.q.q)

    # tail stays None: the jump at s0 would ring in the psi sweep

    def knees(self) -> tuple:
        return self.q.knees() + (self.s0,)

    def value(self, s):
        return self.q.value(s) * (s <= self.s0)


@dataclass(frozen=True)
class Relativistic(RadialProfile):
    """The kernel K_{d,alpha}(s) of the relativistic alpha-stable process."""

    #: decays like e^(-s): not doubling
    doubling = False

    d: int
    alpha: float

    @property
    def q0(self) -> float:
        # 2^(1+nu) s^nu K_nu(s) -> 2^(1+nu) 2^(nu-1) Gamma(nu) as s -> 0
        nu = 0.5 * (self.d + self.alpha)
        return 4.0 ** nu * math.gamma(nu)

    @property
    def tail(self) -> tuple:
        # K_nu(s) ~ sqrt(pi / (2 s)) e^-s
        return (0.5 - 0.5 * (self.d + self.alpha), 1.0)

    def value(self, s):
        return relativistic_kernel(self.d, self.alpha, s)


@dataclass(frozen=True, eq=False)
class Custom(RadialProfile):
    """User-supplied profile; compared by identity."""

    doubling = None

    func: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"

    def value(self, s):
        # the user's function always sees an array
        return np.asarray(self.func(np.asarray(s, dtype=float)), dtype=float)


def tail_index(q: RadialProfile, alpha: float) -> float:
    """Largest admissible beta in [alpha, 2] with s^(beta-alpha-1) q(s) integrable.

    Exponential-type decay (including truncation and the relativistic kernel)
    admits beta = 2; polynomial tempering (1+s)^(-m) admits anything below
    alpha + m (a tiny guard keeps the integral strictly convergent).  A
    constant profile returns alpha, the stable scaling exponent that
    default_eps reads; no beta is integrable for it, since the integral of
    s^(beta-alpha-1) over [1, inf) diverges for every beta >= alpha.
    """
    guard = 1e-9
    if isinstance(q, (ExpTempered, Truncated, Relativistic)):
        return 2.0
    if isinstance(q, PolyTempered):
        return min(2.0, alpha + q.m - guard)
    if isinstance(q, Constant):
        return alpha
    # custom profile: probe the decay empirically on a log grid
    s = np.exp(np.linspace(0.0, math.log(1e6), 200))
    v = q(s)
    pos = v > 0
    if pos.sum() < 10:
        return 2.0
    slope = np.polyfit(np.log(s[pos]), np.log(v[pos]), 1)[0]
    return min(2.0, max(alpha, alpha - slope - guard))


def profile_to_dict(q: RadialProfile) -> dict:
    if isinstance(q, Constant):
        return {"kind": "constant", "value": q.c}
    if isinstance(q, PolyTempered):
        return {"kind": "poly", "m": q.m}
    if isinstance(q, ExpTempered):
        return {"kind": "exp", "a": q.a, "c1": q.c1}
    if isinstance(q, Truncated):
        return {"kind": "truncated", "s0": q.s0,
                "profile": profile_to_dict(q.q)}
    if isinstance(q, Relativistic):
        return {"kind": "relativistic", "d": q.d, "alpha": q.alpha}
    raise DomainError(f"profile {q!r} has no JSON representation")


def profile_from_dict(spec: dict) -> RadialProfile:
    kind = spec.get("kind")
    if kind == "constant":
        return Constant(float(spec.get("value", 1.0)))
    if kind == "poly":
        return PolyTempered(float(spec["m"]))
    if kind == "exp":
        # older files may carry a "c2" that no output read: it is ignored
        return ExpTempered(float(spec.get("a", 0.0)),
                           float(spec.get("c1", 1.0)))
    if kind == "truncated":
        return Truncated(float(spec["s0"]), profile_from_dict(
            spec.get("profile", {"kind": "constant"})))
    if kind == "relativistic":
        return Relativistic(int(spec["d"]), float(spec["alpha"]))
    raise DomainError(f"unknown profile kind {kind!r}")

"""Characteristic exponent Phi(xi) = int (1 - cos<xi,y>) nu(dy).

For spectral-radial measures the exponent reduces to a sum over the
model's +- pairs of atoms (LevyModel.pairs, weight w(theta) + w(-theta))
of the one-dimensional oscillatory integral

    psi_q(u) = int_0^inf (1 - cos(u s)) s^(-1-alpha) q(s) ds,

which has a closed form for constant q and for the relativistic kernel
Relativistic(1, alpha) (psi_vector).  Grid fills go through a log-log
cubic spline of psi, one per (profile, alpha) for the whole process, on
48 log nodes per tenfold of u from U_LO = 1e-6 to U_HI = 1e10, all
filled when the table is built; below U_LO it follows the power law of
its first node, and a |u| above U_HI raises DomainError.  A table
certifies, on first asking, whether the psi it gives is non-decreasing
(PsiTable.monotone); values_at reads Phi only up to its live prefix when
every pair's psi is.  A profile that
declares q(0+) and its tail (every built-in one but a cut) takes all its
nodes from one FFTLog sweep (_sweep): psi_q is a Mellin convolution, so
one inverse FFT gives it on the whole log-u grid.  A cut of any profile
(profiles.Truncated, the small-jump part of a split measure) takes all
its nodes from the cut rule (_cut_psi): one vectorized Gauss rule on
(0, s0] up to u s0 = 1e3, and beyond that psi_q - W_q(s0) plus the
cosine tail by parts, psi_q being the base's closed form, sweep or
psi_quad on the same nodes.

Otherwise (an uncut Custom, a profile whose sweep declines, a cut below
about s0 = 1e-116), and for phi(method="quadrature"), psi is evaluated by
adaptive quadrature in v = u s (psi_quad): the singular head v < 1 by a
smoothing substitution split at the profile's knees, the tail as the
jump mass W(1/u) minus one cosine-weighted (QAWF) integral.  A profile
cut at s0 takes the mass W(1/u) - W(s0) of its base and the QAWO
integral up to V = u s0; psi_quad raises NumericError for u s0 > 1e8.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.fft import irfft, rfft
from scipy.integrate import IntegrationWarning, quad
from scipy.interpolate import CubicSpline
from scipy.special import loggamma

from .errors import DegeneracyError, DomainError, NumericError
from .model import LevyModel, radial_tail_mass, relativistic_weight
from .profiles import Constant, RadialProfile, Relativistic, Truncated

__all__ = [
    "ExponentEvaluation",
    "stable_constant",
    "psi_quad",
    "psi_vector",
    "phi",
    "phi_on_points",
    "check_lower_growth",
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


def psi_quad(q: RadialProfile, alpha: float, u: float,
             with_error: bool = False):
    """Scalar psi_q(u), adaptive; a cut profile integrates up to its s0.

    Works in the rescaled variable v = u s, so the oscillation is always
    cos(v) and the Fourier quadrature of the tail is well conditioned for
    every u.  with_error=True returns (psi, error), the error being the
    sum of QUADPACK's estimates for the head, the jump mass W(A/u) and
    the cosine integral.
    """
    u = abs(float(u))
    # a cut integrates its base q up to s0
    q, s0 = (q.q, q.s0) if isinstance(q, Truncated) else (q, math.inf)
    if u == 0.0 or s0 <= 0:
        return (0.0, 0.0) if with_error else 0.0
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
                  for k in q.knees() for f in (0.1, 1.0, 10.0, 100.0)}
                 - {0.0, zmax})
    i1, e1 = quad(head, 0.0, zmax, points=pts or None,
                  epsabs=0.0, epsrel=1e-11, limit=512)
    if V <= A:
        val, err = u**alpha * i1, u**alpha * e1
        return (val, err) if with_error else val
    # tail: int_A^V (1 - cos v) wtil = jump mass on (A/u, s0) minus a
    # cosine-weighted integral (QAWF for V = inf, QAWO otherwise)
    wtil = lambda v: v ** (-1.0 - alpha) * float(q(v / u))
    mass, e_mass = radial_tail_mass(q, alpha, A / u, with_error=True)
    if math.isfinite(V):
        mass -= _cut_mass(q, alpha, s0)
    with warnings.catch_warnings():
        # QUADPACK flags "bad integrand behavior" on tempered tails; its
        # error estimate is passed on instead (with_error)
        warnings.simplefilter("ignore", IntegrationWarning)
        cosint, e2 = quad(wtil, A, V, weight="cos", wvar=1.0,
                          epsabs=1e-13, limlst=400, limit=400)
    val = u**alpha * (i1 - cosint) + mass
    err = u**alpha * (e1 + e2) + e_mass
    # |cos v| <= 1: the cosine integral cannot outweigh the mass it weighs
    if not (math.isfinite(val)
            and u**alpha * abs(cosint) <= mass * (1.0 + 1e-9) + err):
        raise NumericError("oscillatory radial integral did not converge",
                           estimate=u**alpha * i1 + mass)
    return (val, err) if with_error else val


def _psi_exp(alpha: float, u: np.ndarray) -> np.ndarray:
    """psi of q(s) = e^-s: Gamma(-alpha) (1 - Re (1 - iu)^alpha).

    Written without cancellation as Gamma(2 - alpha) / alpha times
    -Re((1 - iu) expm1(d L)) / d, d = alpha - 1, L = log(1 - iu) = x + iy;
    at alpha = 1 that is u atan u - log1p(u^2) / 2.
    """
    x, y = 0.5 * np.log1p(u * u), -np.arctan(u)
    d = alpha - 1.0
    if d == 0.0:
        er, ei = x, y
    else:  # expm1(d L) / d, real and imaginary parts
        er = (np.expm1(d * x) * np.cos(d * y)
              - 2.0 * np.sin(0.5 * d * y) ** 2) / d
        ei = np.exp(d * x) * np.sin(d * y) / d
    return -math.gamma(2.0 - alpha) / alpha * (er + u * ei)


#: psi table nodes: U_LO * 10^(k / PER_TEN), k = 0, 1, ..., up to U_HI
U_LO, U_HI, PER_TEN = 1e-6, 1e10, 48
_STEP = math.log(10.0) / PER_TEN
_LOG_U = math.log(U_LO) + _STEP * np.arange(
    PER_TEN * round(math.log10(U_HI / U_LO)) + 1)
_U = np.exp(_LOG_U)
_LOG_U.setflags(write=False)
#: the sweep drops what falls below e^-SWEEP_DECAY of its scale: the
#: samples beyond the ends of its window and the periodic images of psi
SWEEP_DECAY = 36.0
#: how far the sweep's bias b keeps inside its strip
SWEEP_MARGIN = 0.3
#: a sweep that needs more points, or samples beyond s = e^300, leaves
#: the table to psi_quad
SWEEP_MAX_N = 2 ** 17


def _sweep(q: RadialProfile, alpha: float):
    """psi_q on the table nodes from one FFTLog sweep, or None when its
    window would be too wide (SWEEP_MAX_N).

    psi_q(u) = int K(us) f(s) ds/s, K = 1 - cos, f = s^-alpha q(s), is a
    Mellin convolution (Talman, J. Comput. Phys. 29, 1978; Hamilton,
    MNRAS 312, 2000, "FFTLog").  q0 e^(-c s) is taken out in closed form
    (_psi_exp), c the tail's rate, or 1 / the largest knee for a power
    tail; the rest r = q - q0 e^(-c s) is O(s) at 0.  On the grid x = log s
    with the table's step, a = s^(-alpha-b) r is a Fourier series; each
    term s^(b + i eta) of s^-alpha r maps to u^-(b + i eta) M(b + i eta),
    M(z) = -Gamma(z) cos(pi z / 2) the Mellin transform of K, so one
    inverse FFT gives u^b psi_r on the grid log u = -x.

    The bias b lies in the strip where a decays at both ends of the
    window and u^b psi_r at both ends of its period: b in (max(-2,
    -alpha - m), min(0, 1 - alpha)).  Inside it, SWEEP_MARGIN from its
    ends, b balances the roundoff that u^-b amplifies at U_LO and at
    U_HI; and b <= -alpha, so that s^(-alpha-b) does not amplify the
    rounding of q - q0 near s = 0.  The window covers where a exceeds
    e^-SWEEP_DECAY; its period is long enough for the images of u^b psi_r
    at u e^(+-period) to fall below that too.
    """
    a, q0, (m, c) = alpha, q.q0, q.tail
    knees = q.knees()
    power = m if c == 0 else math.inf
    lo, hi = max(-2.0, -a - power), min(0.0, 1.0 - a)
    # log(1 / U_LO) and log U_HI
    l_lo, l_hi = -math.log(U_LO), math.log(U_HI)
    gap = min(SWEEP_MARGIN, 0.5 * (hi - lo))
    b = min(max(-(2.0 * l_lo + a * l_hi) / (l_lo + l_hi), lo + gap),
            hi - gap, -a)
    # u^b psi_r ~ u^e_lo as u -> 0 and u^-e_hi as u -> inf
    e_lo, e_hi = min(2.0, a + power) + b, hi - b
    D = SWEEP_DECAY
    # a ~ s^(1 - alpha - b) at 0 and s^-(alpha + b + m) e^(-c s) at inf
    x_min = min(math.log(min(knees)) - D / (1.0 - a - b), -l_hi)
    if c > 0:
        rate, s = c, D / c
        for _ in range(3):
            s = (D + max(0.0, -(a + b + m)) * math.log(s)) / c
        x_max = math.log(s)
    else:
        rate = 1.0 / max(knees)
        x_max = max(math.log(max(knees)) + D / (a + b + m),
                    math.log(D / rate))
    x_max = max(x_max, l_lo)
    period = max(x_max - x_min, (D + (e_lo + e_hi) * l_lo) / e_hi,
                 (D + (min(2.0, a + power) - a) * l_hi) / e_lo)
    N = 1 << math.ceil(math.log2(period / _STEP + 2.0))
    if N > SWEEP_MAX_N or x_max > 300.0:
        return None
    # x_(N-1) is a node's -log u; node j of the table is output K + j
    K = math.ceil((x_max - l_lo) / _STEP)
    x = l_lo + _STEP * (np.arange(N) - (N - 1 - K))
    f = np.zeros(N)
    w = x >= x_min  # a is 0 below the window: no s underflows to 0
    s = np.exp(x[w])
    f[w] = np.exp(-(a + b) * x[w]) * (q(s) - q0 * np.exp(-rate * s))
    eta = (2.0 * math.pi / (N * _STEP)) * np.arange(N // 2 + 1)
    z = b + 1j * eta
    # M(z) by reflection, -pi / (2 sin(pi z / 2) Gamma(1 - z)): no pole
    mellin = np.exp(math.log(0.5 * math.pi) - loggamma(1.0 - z)
                    - np.log(-np.sin(0.5 * math.pi * z)))
    y = rfft(f) * mellin * np.exp(1j * eta * (x[-1] - x[0]))
    g = irfft(np.conj(y), N)[K:K + len(_U)]
    return (np.exp(-b * _LOG_U) * g
            + q0 * rate ** a * _psi_exp(a, _U / rate))


def _node_psi(q: RadialProfile, alpha: float, first: int = 0):
    """psi_q on the table nodes from the first-th on, and what gave it:
    q's "closed form", else the "sweep" of a profile that declares its
    tail, else "quad", psi_quad node by node."""
    closed = _closed_psi(q, alpha)
    if closed:
        return closed(_U[first:]), "closed form"
    vals = _sweep(q, alpha) if q.tail is not None else None
    if vals is not None:
        return vals[first:], "sweep"
    return np.array([psi_quad(q, alpha, u) for u in _U[first:]]), "quad"


#: a cut table's nodes with u s0 up to CUT_RULE_V take the Gauss rule on
#: (0, s0]; those beyond, psi_q - W_q(s0) + C(u) by parts
CUT_RULE_V = 1e3
#: the rule's panels: 16-point Gauss-Legendre, geometric (ratio e) from
#: CUT_HEAD s0 up, uniform once u_max s exceeds CUT_SMOOTH
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
CUT_HEAD, CUT_SMOOTH = 1e-14, 1.5


def _cut_psi(q: Truncated, alpha: float):
    """psi of a cut on the table nodes and the largest u s0 that took the
    Gauss rule, or None for a cut so small that s^-alpha would overflow.

    Up to V = u s0 = CUT_RULE_V, psi_cut(u) = int_0^s0 2 sin^2(u s / 2)
    g(s) ds, g = s^(-1-alpha) q(s), with no cancellation at small u, by
    one vectorized rule per decade of nodes, sized to its largest u: 16
    points per panel, geometric panels in log s from s_min = CUT_HEAD s0
    up to s_c = min(s0, CUT_SMOOTH / u_max), uniform panels of width at
    most pi / u_max on [s_c, s0], and a panel edge at each of q's knees.
    Below s_min, q = q(0+) and sin^2 x = x^2 leave the head q0 u^2
    s_min^(2-alpha) / (2 (2 - alpha)).

    Beyond, psi_cut = psi_q - W_q(s0) + C(u), C(u) = int_s0^inf cos(u s)
    g(s) ds = -g sin V / u - g' cos V / u^2 + g'' sin V / u^3
    + g''' cos V / u^4 at s0, by parts, within 2 |g''''(s0)| / u^5; psi_q
    is the base's on the same nodes (_node_psi), and g', g'' and g'''
    central differences.
    """
    base, s0, a = q.q, q.s0, alpha
    s_min = CUT_HEAD * s0
    # s^-alpha must stay far from overflow at s_min (s0 below about 1e-116
    # as alpha -> 2): such a cut is left to psi_quad
    if -a * math.log(s_min) > 600.0:
        return None
    u = _U
    vals = np.empty(len(u))
    r = int(np.count_nonzero(u * s0 <= CUT_RULE_V))  # the rule's nodes
    knees = [k for k in base.knees() if s_min < k < s0]
    head = base.q0 * s_min ** (2.0 - a) / (2.0 * (2.0 - a))
    for lo in range(0, r, PER_TEN):
        ug = u[lo:min(lo + PER_TEN, r)]
        s_c = min(s0, CUT_SMOOTH / ug[-1])
        edges = np.unique(np.concatenate((
            np.geomspace(s_min, s_c, math.ceil(math.log(s_c / s_min)) + 1),
            np.linspace(s_c, s0, math.ceil((s0 - s_c) * ug[-1] / math.pi)
                        + 1), knees)))
        ea, eb = edges[:-1, None], edges[1:, None]
        geo = eb <= s_c
        # geometric panels take their nodes in log s, ds = s d(log s)
        la, lb = np.log(ea), np.log(eb)
        half = np.where(geo, lb - la, eb - ea) / 2.0
        x = np.where(geo, la + lb, ea + eb) / 2.0 + half * _GL_X
        s = np.where(geo, np.exp(x), x).ravel()
        wg = (half * _GL_W * np.where(geo, 1.0, 1.0 / s.reshape(x.shape))
              ).ravel() * 2.0 * s ** -a * base(s)
        out = head * ug * ug
        # rows of sin^2(u s / 2) a few MB at a time
        step = max(1, (1 << 18) // len(s))
        for i in range(0, len(ug), step):
            m = np.multiply.outer(0.5 * ug[i:i + step], s)
            np.sin(m, out=m)
            m *= m
            out[i:i + step] += m @ wg
        vals[lo:lo + len(ug)] = out
    if r < len(u):
        h = 1e-4 * s0
        gs = s0 + h * np.arange(-2.0, 3.0)
        g2m, gm, g0, gp, g2p = gs ** (-1.0 - a) * base(gs)
        d1 = (gp - gm) / (2.0 * h)
        d2 = (gp - 2.0 * g0 + gm) / h ** 2
        d3 = (g2p - 2.0 * gp + 2.0 * gm - g2m) / (2.0 * h ** 3)
        w, V = 1.0 / u[r:], u[r:] * s0
        sv, cv = np.sin(V), np.cos(V)
        c = w * (-g0 * sv + w * (-d1 * cv + w * (d2 * sv + w * d3 * cv)))
        vals[r:] = _node_psi(base, a, r)[0] - _cut_mass(base, a, s0) + c
    return vals, float(u[r - 1] * s0) if r else 0.0


class PsiTable:
    """Log-log cubic spline of psi_q on the nodes from U_LO to U_HI.

    Every node is filled once, when the table is built, and reading the
    table changes nothing; a |u| above U_HI raises DomainError.  A cut
    takes its nodes from the cut rule (_cut_psi); any other profile, and
    a cut too small for the rule, from _node_psi: a closed form, else one
    sweep, else psi_quad per node.  filled_by records which it was ("cut
    rule", "closed form", "sweep" or "quad"), and rule_v the largest u s0
    that took the Gauss rule (0 when none did).

    monotone, computed on first read, certifies that the psi the table
    gives is non-decreasing in u.  psi'(u) = int f(s) sin(u s) ds with
    f = s^-alpha q(s), which is >= 0 whenever f is non-increasing; the
    certificate checks the table itself, not that argument.
    """

    def __init__(self, q: RadialProfile, alpha: float):
        self.q, self.alpha = q, alpha
        cut = _cut_psi(q, alpha) if isinstance(q, Truncated) else None
        if cut is not None:
            (vals, self.rule_v), self.filled_by = cut, "cut rule"
        else:
            (vals, self.filled_by), self.rule_v = _node_psi(q, alpha), 0.0
        if np.any(vals <= 0):
            raise NumericError("psi not positive on table range")
        self.log_u, self.log_psi = _LOG_U, np.log(vals)
        self.log_psi.setflags(write=False)
        self._spline = CubicSpline(self.log_u, self.log_psi)
        self._slope = float(self._spline(self.log_u[0], 1))

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if u.size and u.max() > U_HI:
            raise DomainError(f"u = {u.max():.6g} is above the psi tables' "
                              f"range, U_HI = {U_HI:g}")
        out = np.zeros_like(u)
        pos = u > 0
        lu = np.log(u[pos])
        res = self._spline(lu)
        lo = lu < self.log_u[0]
        if lo.any():
            res[lo] = self.log_psi[0] + self._slope * (lu[lo] - self.log_u[0])
        out[pos] = np.exp(res)
        return out

    @cached_property
    def monotone(self) -> bool:
        """Whether psi = exp(S(log u)) is non-decreasing: the leg below
        U_LO has slope >= 0, and on every interval the spline's derivative
        S', a quadratic, is >= 0 at both ends and at its vertex when that
        is a minimum inside the interval."""
        c3, c2, c1 = self._spline.c[:3]  # S' = 3 c3 z^2 + 2 c2 z + c1
        h = np.diff(self.log_u)
        ends = np.minimum(c1, c1 + h * (2.0 * c2 + 3.0 * h * c3))
        dips = (c3 > 0.0) & (c2 < 0.0) & (-c2 < 3.0 * h * c3)
        vertex = c1[dips] - c2[dips] ** 2 / (3.0 * c3[dips])
        return bool(self._slope >= 0.0 and ends.min() >= 0.0
                    and (vertex >= 0.0).all())


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


def _phi_monotone(model: LevyModel) -> bool:
    """Whether Phi(r theta) is non-decreasing in r >= 0 for every theta:
    so when each pair's psi is, by formula (closed forms) or by its
    table's certificate (PsiTable.monotone)."""
    return all(_closed_psi(q, model.alpha) is not None
               or _psi_table(q, model.alpha).monotone
               for _, q, _ in model.pairs)


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

    method: "auto" takes psi in closed form when every pair's psi has one,
    "quadrature" forces the adaptive oscillatory integral once per +- pair.
    On a density spectral measure the error adds that of the angular rule.
    """
    if method not in ("auto", "quadrature"):
        raise DomainError(f"unknown method {method!r}: "
                          "use 'auto' or 'quadrature'")
    x = np.asarray(xi, dtype=float).reshape(model.d)
    closed = [_closed_psi(q, model.alpha) for _, q, _ in model.pairs]
    use_closed = method != "quadrature" and None not in closed
    terms = np.zeros(len(model.pairs))
    err = 0.0
    for i, (w, q, th) in enumerate(model.pairs):
        u = float(x @ th)
        v, e = ((closed[i](abs(u)), 0.0) if use_closed
                else psi_quad(q, model.alpha, u, with_error=True))
        terms[i], err = w * v, err + w * e
    val = float(terms.sum())
    if not model.spectral.is_atomic:
        # the angular rule's own error: against the rules on every other
        # and every fourth node (their +- pairs are every k-th pair, at k
        # times the weight), in all their shifts; at a kink between nodes
        # the two every-other rules can agree, the four coarser ones not
        err += max(abs(val - k * float(terms[i::k].sum()))
                   for k in (2, 4) for i in range(k))
    return ExponentEvaluation(tuple(x), val,
                              "closed-form" if use_closed else "quadrature",
                              float(err))


def _direction_set(model: LevyModel) -> np.ndarray:
    """Spectral directions plus a deterministic spread of 8 more."""
    dirs = []
    if model.spectral.is_atomic:
        dirs.extend(model.spectral.directions)
    if model.d == 1:
        dirs.append(np.array([1.0]))
    elif model.d == 2:
        ang = np.linspace(0.0, math.pi, 8, endpoint=False)
        dirs.extend(np.stack([np.cos(ang), np.sin(ang)], axis=1))
    else:
        rng = np.random.default_rng(0)
        v = rng.standard_normal((8, model.d))
        dirs.extend(v / np.linalg.norm(v, axis=1, keepdims=True))
    return np.unique(np.round(np.array(dirs), 12), axis=0)


def _radial_scan(model: LevyModel, dirs: np.ndarray, radii):
    """Phi at every direction times every radius, and |xi| per point."""
    radii = np.asarray(radii, dtype=float)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, model.d)
    return phi_on_points(model, pts), np.repeat(radii, len(dirs))


def check_lower_growth(model: LevyModel, exponent: float, radii) -> float:
    """inf over a direction x log-radius grid of Phi(xi) / |xi|^exponent."""
    if model.degenerate:
        raise DegeneracyError("degenerate spectral measure: inf would vanish")
    vals, r = _radial_scan(model, _direction_set(model), radii)
    return float(np.min(vals / r ** exponent))


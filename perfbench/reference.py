"""Reference values for the benchmark, computed without templevy.

Everything here uses numpy and scipy only, so a fault in the package
cannot leak into the figures it is checked against:

* the exponent of exponentially tempered stable jumps in closed form
  (Rosinski, "Tempering stable processes", SPA 117, 2007);
* the relativistic exponent and the Cauchy density and CDF;
* densities and CDFs of symmetric laws in d = 1 from a composite
  Gauss-Legendre cosine (sine) transform of exp(-t Phi).

``exp_model(alpha, 0, c)`` of templevy puts atoms of weight 1 at +-e_i,
so along each axis its exponent is Phi = 2 psi, and in d = 2 its density
is the product p1(x1) p1(x2) of the d = 1 densities.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma

#: tail of the transform dropped past the frequency where t Phi reaches this
_CUT_EXPONENT = 40.0
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
#: largest phase x * (panel width) a 20-node panel integrates to ~1e-16
_MAX_PHASE = 10.0
#: nodes times points evaluated per block (bounds the memory of a call)
_BLOCK = 2_000_000


def psi_exp(u, alpha: float, c: float) -> np.ndarray:
    """int_0^inf (1 - cos(u s)) s^(-1-alpha) exp(-c s) ds in closed form."""
    u = np.abs(np.asarray(u, dtype=float))
    if alpha == 1.0:
        return u * np.arctan(u / c) - 0.5 * c * np.log1p((u / c) ** 2)
    return -gamma(-alpha) * ((c * c + u * u) ** (alpha / 2.0)
                             * np.cos(alpha * np.arctan(u / c))
                             - c ** alpha)


def stable_coefficient(alpha: float) -> float:
    """c_alpha with int_0^inf (1 - cos(u s)) s^(-1-alpha) ds = c_alpha u^alpha."""
    if alpha == 1.0:
        return math.pi / 2.0
    return gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0) / alpha


def exp_phi(alpha: float, c: float):
    """Exponent of exp_model(alpha, 0, c) along one axis: 2 psi."""
    return lambda u: 2.0 * psi_exp(u, alpha, c)


def relativistic_phi(alpha: float):
    """Exponent of relativistic_model(alpha): (u^2 + 1)^(alpha/2) - 1."""
    return lambda u: (np.asarray(u, dtype=float) ** 2 + 1.0) ** (alpha / 2.0) - 1.0


def cauchy_pdf(t: float, x) -> np.ndarray:
    """Density of cauchy_model() (Phi = pi |xi|) at time t."""
    x = np.asarray(x, dtype=float)
    return t / (x * x + (math.pi * t) ** 2)


def cauchy_cdf(t: float, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return 0.5 + np.arctan(x / (math.pi * t)) / math.pi


def _cutoff(phi, t: float) -> float:
    """Frequency past which exp(-t Phi) < e^-40 (Phi grows to infinity)."""
    u = 1.0
    while t * float(phi(u)) < _CUT_EXPONENT:
        u *= 2.0
    return u


def _nodes(phi, t: float, x_max: float):
    """Composite Gauss-Legendre nodes and weights on [0, U].

    Panels grow geometrically from the origin (the exponent may be
    non-smooth there, as |u|^alpha is) and are split so that no panel
    holds more than _MAX_PHASE radians of cos(x u) for |x| <= x_max.
    """
    U = _cutoff(phi, t)
    lo = 1e-6 * U
    edges = [0.0]
    e = lo
    while e < U:
        edges.append(e)
        e *= 1.25
    edges.append(U)
    edges = np.array(edges)
    if x_max > 0.0:
        width = _MAX_PHASE / x_max
        parts = np.maximum(1, np.ceil(np.diff(edges) / width)).astype(int)
        edges = np.concatenate([
            np.linspace(a, b, k, endpoint=False)
            for a, b, k in zip(edges[:-1], edges[1:], parts)] + [[U]])
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * _GL_X[None, :]
    weights = half[:, None] * _GL_W[None, :]
    return nodes.ravel(), weights.ravel()


def _transform(kernel, phi, t: float, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u, w = _nodes(phi, t, float(np.max(np.abs(x))) if x.size else 0.0)
    fw = w * np.exp(-t * phi(u))
    out = np.empty(x.size)
    step = max(1, _BLOCK // u.size)
    for i in range(0, x.size, step):
        xs = x[i:i + step]
        out[i:i + step] = kernel(np.outer(xs, u), xs[:, None], u) @ fw
    return out


def density(phi, t: float, x) -> np.ndarray:
    """p_t(x) = (1/pi) int_0^inf cos(x u) exp(-t Phi(u)) du, d = 1."""
    return _transform(lambda xu, x, u: np.cos(xu), phi, t, x) / math.pi


def cdf(phi, t: float, x) -> np.ndarray:
    """F_t(x) = 1/2 + (1/pi) int_0^inf sin(x u)/u exp(-t Phi(u)) du."""
    sinc = lambda xu, x, u: x * np.sinc(xu / math.pi)
    return 0.5 + _transform(sinc, phi, t, x) / math.pi


def dkw_bound(n: int, delta: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz radius: P(sup|F_n - F| > r) <= delta."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))

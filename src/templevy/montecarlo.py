"""Sampling increments of the tempered stable process.

An increment over time t is drawn as the sum of a compound Poisson number
of big jumps plus either nothing ("drop") or a centered Gaussian with the
small-jump covariance t * int_{|y|<eps} y y^T nu(dy) ("gaussian"
substitution).  The big jumps come from the +- pairs of model.pairs, for
atoms and density measures alike (a density through its 512-node rule,
the measure that Phi and invert read): a pair of weight w_i gives its
atoms theta_i and -theta_i each weight w_i / 2.  The pairs that share a
profile q are drawn in one pass, by thinning stable proposals (Rosinski,
Stoch. Proc. Appl. 117, 2007, section 5): with Q = sup of q on
[eps, inf), one Poisson(t Q eps^-alpha / alpha sum_i w_i) number of
proposals per draw, and per proposal its pair i with probability
w_i / sum_i w_i (Walker's alias table, when there are several), its sign,
and its radius R = eps U^(-1/alpha) > eps, kept with probability q(R)/Q.
The kept jumps are exactly the Poisson process of nu on |y| > eps, with
no table and no interpolation.  Q is taken by rule: q(eps) for a
non-increasing profile, which the RadialProfile contract asks for;
q(max(eps, a/c1 - 1)) for ExpTempered(a, c1), which peaks there; and the
base's Q for a cut, which rejects R > s0.  Constant keeps every proposal
and draws no accept uniform.  A q(R) above Q (1 + 1e-12), as a rising
Custom profile gives, raises NumericError naming q and eps, and so does a
kept radius that overflows, naming alpha and eps.  Each jump R theta is
added to its draw along its own direction, in jump order, so the draws
do not depend on JUMP_CHUNK, the number of proposals drawn and summed at
once, which keeps memory bounded however many a batch holds.
sample_many and jump_counts read a SamplerConfig alone, its count and
seed included; jump_counts and jump_radius_cdf read the tail table W.
Meant for statistical cross-validation of the computed densities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .model import LevyModel, _tail_table, radial_second_moment
from .profiles import Constant, ExpTempered, RadialProfile, Truncated

__all__ = [
    "SamplerConfig",
    "sample_many",
    "small_jump_covariance",
    "jump_counts",
    "jump_radius_cdf",
]

#: proposals drawn and summed at once by the sampler; at 1 << 16 each
#: chunk's half-megabyte temporaries go back to the OS and fault in again
JUMP_CHUNK = 1 << 14
#: the largest float: q is read there for a proposal radius that overflows
_R_MAX = np.finfo(float).max


@dataclass(frozen=True)
class SamplerConfig:
    model: LevyModel
    t: float
    eps: float
    mode: str = "gaussian"   # "gaussian" | "drop"
    count: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.eps <= 0:
            raise DomainError("eps must be positive")
        if self.t <= 0:
            raise DomainError("t must be positive")
        if self.count < 1:
            raise DomainError("count must be at least 1")
        if self.mode not in ("gaussian", "drop"):
            raise DomainError("mode must be 'gaussian' or 'drop'")


def _profile_pairs(model: LevyModel, eps: float) -> list:
    """Per profile q of model.pairs: q, its tail table W, W(eps), and the
    summed weights w and directions theta of its pairs."""
    groups = {}
    for w, q, theta in model.pairs:
        groups.setdefault(q, []).append((w, theta))
    out = []
    for q, pairs in groups.items():
        table = _tail_table(q, model.alpha)
        w, theta = (np.array(c) for c in zip(*pairs))
        out.append((q, table, float(table(eps)), w, theta))
    return out


def _alias(w: np.ndarray) -> tuple:
    """Walker's alias table for picking i with probability w_i / sum w
    (Vose, IEEE Trans. Softw. Eng. 17, 1991): with x = k v for a uniform
    v and j = floor(x), the pick is j when x - j < keep[j], else alias[j].
    """
    k = len(w)
    keep, alias = w * (k / w.sum()), np.arange(k)
    small = [j for j in range(k) if keep[j] < 1.0]
    large = [j for j in range(k) if keep[j] >= 1.0]
    while small and large:
        lo, hi = small.pop(), large.pop()
        alias[lo] = hi
        keep[hi] -= 1.0 - keep[lo]
        (small if keep[hi] < 1.0 else large).append(hi)
    keep[small + large] = 1.0  # what rounding leaves over
    return keep, alias


def _bound(q: RadialProfile, eps: float) -> float:
    """Q = sup of q on [eps, inf), by the rule of the module docstring."""
    if isinstance(q, Truncated):
        q = q.q
    if isinstance(q, ExpTempered):
        eps = max(eps, q.a / q.c1 - 1.0)
    return float(q(np.array([eps]))[0])


def _radii(u: np.ndarray, q: RadialProfile, bound: float, eps: float,
           alpha: float) -> np.ndarray:
    """The signed radius of each proposal row of u, 0 where it is rejected.

    v = 2 u[:, 0] - 1 + 2^-53 is exact, and neither 0 nor +-1: its sign
    picks theta or -theta, and |v|, uniform on (0, 1) and independent of
    it, the radius R = eps |v|^(-1/alpha).  Unless q is Constant, R is
    kept when u[:, 1] Q < q(R), Q being bound.
    """
    v = u[:, 0] * 2.0
    v -= 1.0 - 2.0 ** -53
    r = np.abs(v)
    with np.errstate(over="ignore"):  # in place: fewer live temporaries
        r **= -1.0 / alpha
        r *= eps
    if not isinstance(q, Constant):
        # q at an overflowed radius as its limit: Relativistic reads
        # inf - inf at inf itself
        qr = q(np.minimum(r, _R_MAX))
        if qr.max() > bound * (1.0 + 1e-12):
            raise NumericError(f"profile {q!r} exceeds Q = {bound!r}, its "
                               f"sup on [eps, inf) by rule, at eps = {eps!r}",
                               estimate=float(qr.max()))
        # a rejected inf times 0 would be nan
        r = np.where(u[:, 1] * bound < qr, r, 0.0)
    if r.max() == math.inf:
        raise NumericError(f"a jump radius overflows at alpha = {alpha!r}, "
                           f"eps = {eps!r}")
    return np.copysign(r, v)


def _big_jump_sums(config: SamplerConfig, rng) -> np.ndarray:
    m, count, eps = config.model, config.count, config.eps
    sums = np.zeros((count, m.d))
    for q, _, _, w, theta in _profile_pairs(m, eps):
        bound, k = _bound(q, eps), len(w)
        # one Poisson process of proposals per profile: its proposals
        # ends[j-1] .. ends[j] - 1 belong to draw j
        rate = config.t * w.sum() * bound * eps ** -m.alpha / m.alpha
        ends = np.cumsum(rng.poisson(rate, size=count))
        total = int(ends[-1])
        keep, alias = _alias(w)
        # draw j's jumps go into acc[:, j] one by one, in jump order
        acc = np.zeros((m.d, count))
        for start in range(0, total, JUMP_CHUNK):
            stop = min(start + JUMP_CHUNK, total)
            # a row of uniforms per proposal: its sign and radius, its
            # accept step unless q is Constant, and its pair when there are
            # several; so the stream does not depend on JUMP_CHUNK
            u = rng.random((stop - start,
                            1 + (not isinstance(q, Constant)) + (k > 1)))
            pair = 0
            if k > 1:
                x = k * u[:, -1]
                j = np.minimum(x.astype(np.intp), k - 1)
                x -= j
                pair = np.where(x < keep[j], j, alias[j])
            radii = _radii(u, q, bound, eps, m.alpha)
            first, last = np.searchsorted(ends, [start, stop - 1],
                                          side="right")
            counts = np.diff(np.clip(ends[first:last + 1], start, stop),
                             prepend=start)
            owner = np.repeat(np.arange(first, last + 1), counts)
            # each jump along its own direction, one coordinate at a time
            for c, axis in enumerate(theta.T):
                np.add.at(acc[c], owner, radii * axis[pair])
        sums += acc.T
    return sums


def small_jump_covariance(model: LevyModel, eps: float) -> np.ndarray:
    """int_{|y| < eps} y y^T nu(dy), a d x d matrix."""
    cov = np.zeros((model.d, model.d))
    # one radial moment per profile; theta theta^T serves both atoms
    for q, _, _, w, theta in _profile_pairs(model, eps):
        cov += radial_second_moment(q, model.alpha, eps) * (theta.T * w) @ theta
    return cov


def sample_many(config: SamplerConfig) -> np.ndarray:
    """(count, d) array of independent increments; seeded and repeatable."""
    rng = np.random.default_rng(config.seed)
    out = _big_jump_sums(config, rng)
    if config.mode == "gaussian":
        d = config.model.d
        cov = config.t * small_jump_covariance(config.model, config.eps)
        root = np.linalg.cholesky(cov + 1e-300 * np.eye(d))
        out = out + rng.standard_normal((config.count, d)) @ root.T
    return out


def jump_counts(config: SamplerConfig) -> np.ndarray:
    """config.count big-jump counts, drawn from config.seed: Poisson with
    mean t * lambda(eps)."""
    lam = sum(tail * w.sum() for _, _, tail, w, _ in
              _profile_pairs(config.model, config.eps))
    return np.random.default_rng(config.seed).poisson(config.t * lam,
                                                      size=config.count)


def jump_radius_cdf(model: LevyModel, eps: float, s: np.ndarray) -> np.ndarray:
    """CDF of the big-jump radius law (mixture over spectral atoms)."""
    s = np.maximum(np.asarray(s, dtype=float), eps)
    tables = _profile_pairs(model, eps)
    return (sum(w.sum() * (tail - table(s)) for _, table, tail, w, _ in tables)
            / sum(w.sum() * tail for _, _, tail, w, _ in tables))

"""Sampling increments of the tempered stable process.

An increment over time t is drawn as the sum of a compound Poisson number
of big jumps plus either nothing ("drop") or a centered Gaussian with the
small-jump covariance t * int_{|y|<eps} y y^T nu(dy) ("gaussian"
substitution).  The big jumps come from the +- pairs of model.pairs, for
atoms and density measures alike (a density through its 512-node rule,
the measure that Phi and invert read): a pair of weight w_i gives its
atoms theta_i and -theta_i each weight w_i / 2.  The pairs that share a
profile share its tail table W, and their jumps are drawn in one pass:
one Poisson(t W(eps) sum_i w_i) number of jumps per draw, and per jump
its pair i with probability w_i / sum_i w_i (Walker's alias table, when
there are several), its sign, and its radius R = W^-1(U W(eps)) > eps
exactly, so P(R > s) = W(s)/W(eps).  Each jump R theta is added to its
draw along its own direction.  Jumps are summed JUMP_CHUNK at a time,
so memory stays bounded however many a batch holds.  sample_many and
jump_counts read a SamplerConfig alone, its count and seed included.
Meant for statistical cross-validation of the computed densities.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import LevyModel, _tail_table, radial_second_moment

__all__ = [
    "SamplerConfig",
    "sample_many",
    "small_jump_covariance",
    "jump_counts",
    "jump_radius_cdf",
]

#: big jumps drawn and summed at once by the sampler; at 1 << 16 each
#: chunk's half-megabyte temporaries go back to the OS and fault in again
JUMP_CHUNK = 1 << 14


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


def _jumps(rng, n: int, table, tail: float, keep, alias) -> tuple:
    """n jumps of one tail table: each one's signed radius and pair."""
    k = len(keep)
    # a row of uniforms per jump, a second to pick its pair when there
    # are several: the stream and so the draws do not depend on JUMP_CHUNK
    u = rng.random((n, 1 + (k > 1)))
    pair = 0
    if k > 1:
        x = k * u[:, 1]
        j = np.minimum(x.astype(np.intp), k - 1)
        x -= j
        pair = np.where(x < keep[j], j, alias[j])
    # v = 2u - 1 + 2^-53 is exact, and neither 0 nor +-1: its sign picks
    # theta or -theta, and |v|, uniform on (0, 1) and independent of it,
    # the share of W(eps); in place, so that fewer temporaries are live
    v = u[:, 0]
    v *= 2.0
    v -= 1.0 - 2.0 ** -53
    return np.copysign(table.inverse(np.abs(v) * tail), v), pair


def _big_jump_sums(config: SamplerConfig, rng) -> np.ndarray:
    m, count = config.model, config.count
    sums = np.zeros((count, m.d))
    for _, table, tail, w, theta in _profile_pairs(m, config.eps):
        # one Poisson process of jumps per table: its jumps
        # ends[j-1] .. ends[j] - 1 belong to draw j
        ends = np.cumsum(rng.poisson(config.t * tail * w.sum(), size=count))
        total = int(ends[-1])
        keep, alias = _alias(w)
        for start in range(0, total, JUMP_CHUNK):
            stop = min(start + JUMP_CHUNK, total)
            radii, pair = _jumps(rng, stop - start, table, tail, keep, alias)
            first, last = np.searchsorted(ends, [start, stop - 1],
                                          side="right")
            counts = np.diff(np.clip(ends[first:last + 1], start, stop),
                             prepend=start)
            owner = np.repeat(np.arange(last + 1 - first), counts)
            # each jump along its own direction, one coordinate at a time
            for c, axis in enumerate(theta.T):
                sums[first:last + 1, c] += np.bincount(
                    owner, radii * axis[pair], minlength=last + 1 - first)
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

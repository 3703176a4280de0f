"""Sampling increments of the tempered stable process.

An increment over time t is drawn as the sum of a compound Poisson number
of big jumps plus either nothing ("drop") or a centered Gaussian with the
small-jump covariance t * int_{|y|<eps} y y^T nu(dy) ("gaussian"
substitution).  The big jumps are thinned per +- pair of model.pairs, for
atoms and density measures alike (a density through its 512-node rule,
the measure that Phi and invert read): a pair of weight w_i and tail
table W_i gives its atoms theta_i and -theta_i, each of weight w_i / 2,
their own Poisson(t w_i / 2 W_i(eps)) numbers of jumps along their
directions, each with one uniform U and radius R = W_i^-1(U W_i(eps)) >
eps exactly, so P(R > s) = W_i(s)/W_i(eps).
Jumps are summed JUMP_CHUNK at a time, so memory stays bounded however
many a batch holds.  Meant for statistical cross-validation of the
computed densities.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import LevyModel, _tail_table, radial_second_moment

__all__ = [
    "SamplerConfig",
    "sample_big_jump_sum",
    "sample_increment",
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


def _atom_tail_masses(model: LevyModel, eps: float) -> list:
    """Per atom theta and -theta of each pair: its weight w / 2, the tail
    table W, W(eps) and its direction."""
    out = []
    for w, q, theta in model.pairs:
        table = _tail_table(q, model.alpha)
        tail = float(table(eps))
        out += [(w / 2, table, tail, theta), (w / 2, table, tail, -theta)]
    return out


def sample_big_jump_sum(config: SamplerConfig, rng=None) -> np.ndarray:
    """One draw of the summed big jumps (vector in R^d)."""
    rng = np.random.default_rng(config.seed) if rng is None else rng
    return _big_jump_sums(config, rng, 1)[0]


def _big_jump_sums(config: SamplerConfig, rng, count: int) -> np.ndarray:
    m = config.model
    sums = np.zeros((count, m.d))
    for w, table, tail, theta in _atom_tail_masses(m, config.eps):
        # the atom's own Poisson process of jumps: its jumps
        # ends[j-1] .. ends[j] - 1 belong to draw j
        ends = np.cumsum(rng.poisson(config.t * w * tail, size=count))
        total = int(ends[-1]) if count else 0
        radial = np.zeros(count)
        for start in range(0, total, JUMP_CHUNK):
            stop = min(start + JUMP_CHUNK, total)
            # one uniform per jump: the stream and so the draws do not
            # depend on JUMP_CHUNK
            radii = table.inverse((1.0 - rng.random(stop - start)) * tail)
            first, last = np.searchsorted(ends, [start, stop - 1],
                                          side="right")
            counts = np.diff(np.clip(ends[first:last + 1], start, stop),
                             prepend=start)
            owner = np.repeat(np.arange(last + 1 - first), counts)
            radial[first:last + 1] += np.bincount(
                owner, radii, minlength=last + 1 - first)
        sums += radial[:, None] * theta
    return sums


def small_jump_covariance(model: LevyModel, eps: float) -> np.ndarray:
    """int_{|y| < eps} y y^T nu(dy), a d x d matrix."""
    cov = np.zeros((model.d, model.d))
    for w, q, th in model.pairs:  # theta theta^T serves both atoms
        cov += w * radial_second_moment(q, model.alpha, eps) * np.outer(th, th)
    return cov


def sample_increment(config: SamplerConfig, rng=None) -> np.ndarray:
    rng = np.random.default_rng(config.seed) if rng is None else rng
    return sample_many(config, rng=rng, count=1)[0]


def sample_many(config: SamplerConfig, rng=None,
                count: int = None) -> np.ndarray:
    """(count, d) array of independent increments; seeded and repeatable."""
    rng = np.random.default_rng(config.seed) if rng is None else rng
    count = config.count if count is None else count
    out = _big_jump_sums(config, rng, count)
    if config.mode == "gaussian":
        cov = config.t * small_jump_covariance(config.model, config.eps)
        root = np.linalg.cholesky(cov + 1e-300 * np.eye(config.model.d))
        out = out + rng.standard_normal((count, config.model.d)) @ root.T
    return out


def jump_counts(config: SamplerConfig, rng=None,
                count: int = None) -> np.ndarray:
    """Big-jump counts per increment: Poisson with mean t * lambda(eps)."""
    rng = np.random.default_rng(config.seed) if rng is None else rng
    count = config.count if count is None else count
    lam = sum(w * tail for w, _, tail, _ in
              _atom_tail_masses(config.model, config.eps))
    return rng.poisson(config.t * lam, size=count)


def jump_radius_cdf(model: LevyModel, eps: float, s: np.ndarray) -> np.ndarray:
    """CDF of the big-jump radius law (mixture over spectral atoms)."""
    s = np.maximum(np.asarray(s, dtype=float), eps)
    tails = _atom_tail_masses(model, eps)
    return (sum(w * (tail - table(s)) for w, table, tail, _ in tails)
            / sum(w * tail for w, _, tail, _ in tails))

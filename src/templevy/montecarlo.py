"""Sampling increments of the tempered stable process.

An increment over time t is drawn as the sum of a compound Poisson number
of big jumps (radius > eps, exact via rejection from the pure-stable
Pareto tail) plus either nothing ("drop") or a centered Gaussian with the
small-jump covariance t * int_{|y|<eps} y y^T nu(dy) ("gaussian"
substitution).  Meant for statistical cross-validation of the computed
densities, not for efficiency.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import LevyModel, radial_second_moment, radial_tail_mass

__all__ = [
    "SamplerConfig",
    "sample_big_jump_sum",
    "sample_increment",
    "sample_many",
    "small_jump_covariance",
    "jump_counts",
    "jump_radius_cdf",
]


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


def _require_atoms(model: LevyModel) -> None:
    if not model.spectral.is_atomic:
        raise DomainError("the sampler needs an atomic spectral measure "
                          "(jump directions are drawn from its atoms)")


def _atom_tail_masses(model: LevyModel, eps: float) -> np.ndarray:
    return np.array([w * radial_tail_mass(q, model.alpha, eps)
                     for w, q in model.profiles_and_weights()])


def _sample_radii(rng, q, alpha: float, eps: float, n: int) -> tuple:
    """Jump radii with density prop. to s^(-1-alpha) q(s) on (eps, inf).

    Proposal: Pareto via inverse CDF s = eps U^(-1/alpha); accept with
    probability q(s)/q(eps) (q nonincreasing).  Returns (radii, trials).
    """
    out = np.empty(n)
    qeps = float(q(np.array([eps]))[0])
    filled, trials = 0, 0
    while filled < n:
        m = max(n - filled, 16)
        s = eps * rng.random(m) ** (-1.0 / alpha)
        acc = rng.random(m) * qeps <= np.asarray(q(s))
        good = s[acc]
        take = min(len(good), n - filled)
        out[filled:filled + take] = good[:take]
        filled += take
        trials += m
    return out, trials


def sample_big_jump_sum(config: SamplerConfig, rng=None) -> np.ndarray:
    """One draw of the summed big jumps (vector in R^d)."""
    rng = np.random.default_rng(config.seed) if rng is None else rng
    return _big_jump_sums(config, rng, 1)[0]


def _big_jump_sums(config: SamplerConfig, rng, count: int) -> np.ndarray:
    m = config.model
    _require_atoms(m)
    lam_atoms = _atom_tail_masses(m, config.eps)
    lam = float(lam_atoms.sum())
    sums = np.zeros((count, m.d))
    n_jumps = rng.poisson(config.t * lam, size=count)
    total = int(n_jumps.sum())
    if total == 0:
        return sums
    probs = lam_atoms / lam
    atom_idx = rng.choice(len(lam_atoms), size=total, p=probs)
    radii = np.empty(total)
    pairs = m.profiles_and_weights()
    for i, (_, q) in enumerate(pairs):
        sel = atom_idx == i
        if sel.any():
            radii[sel], _ = _sample_radii(rng, q, m.alpha, config.eps,
                                          int(sel.sum()))
    thetas = np.asarray(m.spectral.directions)[atom_idx]
    jumps = radii[:, None] * thetas
    owner = np.repeat(np.arange(count), n_jumps)
    np.add.at(sums, owner, jumps)
    return sums


def small_jump_covariance(model: LevyModel, eps: float) -> np.ndarray:
    """int_{|y| < eps} y y^T nu(dy), a d x d matrix."""
    _require_atoms(model)
    cov = np.zeros((model.d, model.d))
    for (w, q), th in zip(model.profiles_and_weights(),
                          model.spectral.directions):
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
    lam = float(_atom_tail_masses(config.model, config.eps).sum())
    return rng.poisson(config.t * lam, size=count)


def jump_radius_cdf(model: LevyModel, eps: float, s: np.ndarray) -> np.ndarray:
    """CDF of the big-jump radius law (mixture over spectral atoms)."""
    lam_atoms = _atom_tail_masses(model, eps)
    lam = float(lam_atoms.sum())
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    for w, q in model.profiles_and_weights():
        tail_eps = radial_tail_mass(q, model.alpha, eps)
        vals = np.array([tail_eps - radial_tail_mass(q, model.alpha, v)
                         if v > eps else 0.0 for v in s])
        out += w * vals
    return out / lam

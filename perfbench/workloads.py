"""The benchmark's workloads: inputs, operations and output checks.

A workload hands out rounds of operations. Every round holds the same
kinds of operation in the same order, and its inputs are drawn from
``(seed, round)`` alone, so a seed fixes the inputs whatever the speed of
the machine. Each operation returns the program's outputs; `check` then
compares them with the reference module or with properties that hold
without a closed form, outside the timed section.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

#: fail the run when a field is further than this from its reference
#: (relative to the reference peak); the figure itself is max_err
FIELD_TOL = 1e-6
#: recompose against the direct inversion, the gate of verify_decomposition
RECOMPOSE_TOL = 1e-4
#: verify_decomposition's fixed 2048 box folds ~1e-6 of the Cauchy peak back
BOX_TOL = 1e-5
#: scan rows hold p linearly interpolated between grid nodes
SCAN_TOL = 1e-2
MASS_TOL = 1e-6
SYMMETRY_TOL = 1e-9
#: unimodality is checked down to this fraction of the peak
MONOTONE_FLOOR = 1e-9
#: DKW failure probability per sampler check
DKW_DELTA = 1e-6


@dataclass
class Op:
    """One timed call sequence: `run(tl)` returns what `check` inspects."""

    name: str
    run: Callable
    check: Callable


@dataclass
class Checks:
    """Accumulates the outcome of every output check in a run."""

    max_err: float = 0.0
    failures: list = field(default_factory=list)

    def error(self, what: str, got, want, tol: float = FIELD_TOL) -> None:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        self.max_err = max(self.max_err, err)
        self.require(err <= tol, f"{what}: error {err:.3e} > {tol:g}")

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _offsets_index(grid, scale: float, ks) -> np.ndarray:
    """Grid indices (non-negative side) nearest k * scale, inside the box."""
    c = grid.N // 2
    idx = sorted({c + int(round(k * scale / grid.h)) for k in ks})
    return np.array([i for i in idx if i < grid.N - 1])


def _field_properties(chk: Checks, what: str, fld) -> None:
    """Mass 1, symmetry, and decay in |x| away from the mode at 0.

    Every law here is symmetric and self-decomposable, hence unimodal.
    """
    v = np.asarray(fld.values)
    peak = float(v.max())
    chk.require(abs(fld.mass - 1.0) <= MASS_TOL,
                f"{what}: mass {fld.mass!r}")
    chk.require(fld.symmetry_defect() <= SYMMETRY_TOL * peak,
                f"{what}: symmetry defect {fld.symmetry_defect():.3e}")
    c = fld.grid.N // 2
    rays = [v[c:]] if v.ndim == 1 else [v[c, c:], v[c:, c], v.diagonal()[c:]]
    for ray in rays:
        low = ray < MONOTONE_FLOOR * peak
        body = ray[: np.argmax(low)] if low.any() else ray
        rise = float(np.max(np.diff(body), initial=0.0))
        chk.require(rise <= 1e-12 * peak,
                    f"{what}: rises by {rise:.3e} away from 0")


# ---------------------------------------------------------------------------
# cold_fields


class ColdFields:
    """Fresh models every operation: the ψ tables are built in the op.

    Each parameter is its base value times (1 + JITTER u), u uniform on
    [-1, 1] from the seed. Caches key on the exact parameter, so every
    model is new to them, while grid sizes, work and accuracy stay those
    of the base value and the figures compare across seeds.
    """

    T = (0.1, 1.0, 10.0)
    #: (alpha, d, c1) of the exp-tempered cases; d = 2 only for alpha >= 1
    EXP_CASES = ((0.5, 1, 1.0), (1.0, 1, 0.8), (1.5, 1, 1.25), (1.0, 2, 1.0),
                 (1.5, 2, 0.8))
    #: (alpha, m) of the poly-tempered cases
    POLY_CASES = ((1.0, 3.0), (1.5, 2.5), (1.5, 3.5))
    JITTER = 1e-6
    OFFSETS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    OFFSETS_2D = (0.0, 0.5, 1.0, 2.0, 4.0)

    def __init__(self, seed: int):
        self.seed = seed
        self.checks = Checks()

    def warm(self, tl) -> None:
        """No caches to fill: every operation meets a model it has not seen."""

    def round(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        jitter = lambda v: v * (1.0 + self.JITTER * rng.uniform(-1.0, 1.0))
        ops = []
        for alpha, d, c1 in self.EXP_CASES:
            c1 = jitter(c1)
            ops.append(Op(f"exp a={alpha:g} d={d}",
                          self._run_exp(alpha, c1, d),
                          self._check_exp(alpha, c1, d)))
        for alpha, m in self.POLY_CASES:
            m = jitter(m)
            ops.append(Op(f"poly a={alpha:g} m={m:.3g}",
                          self._run_poly(m, alpha), self._check_poly(m, alpha)))
        return ops

    def _fields(self, tl, model):
        return [tl.invert(model, t) for t in self.T]

    def _run_exp(self, alpha, c1, d):
        return lambda tl: self._fields(tl, tl.exp_model(alpha, 0.0, c1, d=d))

    def _run_poly(self, m, alpha):
        return lambda tl: self._fields(tl, tl.poly_model(m, alpha))

    def _check_exp(self, alpha, c1, d):
        def check(fields):
            phi = ref.exp_phi(alpha, c1)
            for t, fld in zip(self.T, fields):
                what = f"exp a={alpha:g} c1={c1:.9g} d={d} t={t:g}"
                _field_properties(self.checks, what, fld)
                g = fld.grid
                ax = g.x_axis()
                scale = t ** (1.0 / alpha)
                if d == 1:
                    idx = _offsets_index(g, scale, self.OFFSETS)
                    self.checks.error(what, fld.values[idx],
                                      ref.density(phi, t, ax[idx]))
                else:
                    idx = _offsets_index(g, scale, self.OFFSETS_2D)
                    p1 = ref.density(phi, t, ax[idx])
                    self.checks.error(what, fld.values[np.ix_(idx, idx)],
                                      np.outer(p1, p1))
        return check

    def _check_poly(self, m, alpha):
        def check(fields):
            for t, fld in zip(self.T, fields):
                _field_properties(self.checks,
                                  f"poly m={m:.9g} a={alpha:g} t={t:g}", fld)
        return check


# ---------------------------------------------------------------------------
# split


class Split:
    """The decompose pipeline on verify_decomposition's grids, plus sampling."""

    T = (0.1, 0.5, 1.0)
    SAMPLE_T, SAMPLE_EPS, SAMPLE_N = 0.5, 0.01, 100_000
    #: reference points: |x| <= X_CHECK, at most about N_CHECK of them
    X_CHECK, N_CHECK = 10.0, 2000

    def __init__(self, seed: int):
        self.seed = seed
        self.checks = Checks()
        self._refs = {}
        self._cdf_table = None

    @staticmethod
    def _models(tl):
        return (("cauchy", tl.cauchy_model()), ("poly3", tl.poly_model(3.0, 1.0)),
                ("exp1", tl.exp_model(1.0)))

    @staticmethod
    def _grid(tl, t):
        return tl.GridSpec(1, 2048.0, 2 ** 20 if t < 0.3 else 2 ** 17)

    def warm(self, tl) -> None:
        """Fill the exponent caches the pipeline reads, on its own grids."""
        for _, model in self._models(tl):
            for t in self.T:
                g = self._grid(tl, t)
                tl.local_density(tl.split(model, tl.default_eps(model, t)), t, g)
                tl.invert(model, t, g)

    def round(self, r: int) -> list:
        ops = [Op(f"decompose {name}", self._run_decompose(name),
                  self._check_decompose(name))
               for name in ("cauchy", "poly3", "exp1")]
        for k, name in enumerate(("cauchy", "exp1")):
            s = int(np.random.default_rng([self.seed, r, k]).integers(2 ** 31))
            ops.append(Op(f"sample {name}", self._run_sample(name, s),
                          self._check_sample(name)))
        return ops

    def _run_decompose(self, name):
        """One model's decomposition at every t, as verify_decomposition."""
        def run(tl):
            model = dict(self._models(tl))[name]
            out = []
            for t in self.T:
                g = self._grid(tl, t)
                sm = tl.split(model, tl.default_eps(model, t))
                loc = tl.local_density(sm, t, g)
                cp = tl.compound_poisson(sm, t, g, 1e-10)
                out.append((tl.recompose(loc, cp), tl.invert(model, t, g)))
            return out
        return run

    def _reference(self, name, t, x):
        """Reference density at the nodes x (fixed grids: cached per t)."""
        key = (name, t)
        if key not in self._refs:
            if name == "cauchy":
                self._refs[key] = ref.cauchy_pdf(t, x)
            else:
                self._refs[key] = ref.density(ref.exp_phi(1.0, 1.0), t, x)
        return self._refs[key]

    def _check_decompose(self, name):
        def check(out):
            for t, (rec, direct) in zip(self.T, out):
                what = f"decompose {name} t={t:g}"
                defect = float(np.max(np.abs(rec.values - direct.values))
                               / direct.values.max())
                self.checks.require(defect <= RECOMPOSE_TOL,
                                    f"{what}: recompose defect {defect:.3e}")
                if name == "poly3":
                    _field_properties(self.checks, what, direct)
                    continue
                ax = direct.grid.x_axis()
                sel = np.flatnonzero(np.abs(ax) <= self.X_CHECK)
                sel = sel[::max(1, len(sel) // self.N_CHECK)]
                p_ref = self._reference(name, t, ax[sel])
                self.checks.error(what + " direct", direct.values[sel], p_ref,
                                  tol=BOX_TOL)
                self.checks.error(what + " recompose", rec.values[sel], p_ref,
                                  tol=RECOMPOSE_TOL)
        return check

    def _run_sample(self, name, seed):
        def run(tl):
            model = tl.cauchy_model() if name == "cauchy" else tl.exp_model(1.0)
            cfg = tl.SamplerConfig(model, t=self.SAMPLE_T, eps=self.SAMPLE_EPS,
                                   count=self.SAMPLE_N, seed=seed)
            return tl.sample_many(cfg)
        return run

    def _cdf(self, name, x):
        t = self.SAMPLE_T
        if name == "cauchy":
            return ref.cauchy_cdf(t, x)
        if self._cdf_table is None:
            xs = np.linspace(-60.0, 60.0, 12001)
            self._cdf_table = (xs, ref.cdf(ref.exp_phi(1.0, 1.0), t, xs))
        xs, F = self._cdf_table
        return np.interp(x, xs, F)

    def _check_sample(self, name):
        def check(draws):
            x = np.sort(np.asarray(draws)[:, 0])
            n = len(x)
            F = self._cdf(name, x)
            ks = float(max(np.max(np.arange(1, n + 1) / n - F),
                           np.max(F - np.arange(n) / n)))
            bound = ref.dkw_bound(n, DKW_DELTA)
            self.checks.require(n == self.SAMPLE_N,
                                f"sample {name}: {n} draws")
            self.checks.require(ks <= bound,
                                f"sample {name}: KS {ks:.4f} > DKW {bound:.4f}")
        return check


# ---------------------------------------------------------------------------
# envelope_warm


class EnvelopeWarm:
    """Envelope scans with warm ψ tables: evaluation, FFT and harness work."""

    T_SMALL = tuple(2.0 ** -k for k in range(6, -1, -1))
    T_LARGE = (2.0, 8.0, 32.0, 100.0)

    VERIFY = ("upper poly3 small_t", "lower relativistic small_t",
              "upper exp1 large_t", "upper exp1.5 small_t")
    #: exponents of the scanned laws that have a reference density
    PHI = {"lower relativistic small_t": ref.relativistic_phi(1.0),
           "upper exp1 large_t": ref.exp_phi(1.0, 1.0),
           "upper exp1.5 small_t": ref.exp_phi(1.5, 1.0)}

    def __init__(self, seed: int):
        self.seed = seed
        self.checks = Checks()
        self._refs = {}

    def _verify(self, tl, name):
        """The (model, spec) pairs of criteria 06 and 07, plus exp(1.5)."""
        poly3 = tl.PolyTempered(3.0)
        if name == "upper poly3 small_t":
            spec = tl.EnvelopeSpec(side="upper", regime="small_t", d=1,
                                   alpha=1.0, gamma=1.0, profile=poly3)
            return tl.verify_upper(tl.poly_model(3.0, 1.0), spec, self.T_SMALL)
        if name == "lower relativistic small_t":
            # (1+s)^((d+alpha-1)/2) e^(-2s), the relativistic lower profile
            spec = tl.EnvelopeSpec(side="lower", regime="small_t", d=1,
                                   alpha=1.0, gamma=1.0,
                                   profile=tl.ExpTempered(a=0.5, c1=2.0),
                                   directions=((1.0,), (-1.0,)))
            return tl.verify_lower(tl.relativistic_model(1.0), spec,
                                   self.T_SMALL)
        if name == "upper exp1 large_t":
            spec = tl.EnvelopeSpec(side="upper", regime="large_t", d=1,
                                   alpha=1.0, gamma=1.0, profile=poly3,
                                   beta=2.0)
            return tl.verify_upper(tl.exp_model(1.0), spec, self.T_LARGE,
                                   extend_range=False)
        spec = tl.EnvelopeSpec(side="upper", regime="small_t", d=1,
                               alpha=1.5, gamma=1.0, profile=poly3)
        return tl.verify_upper(tl.exp_model(1.5), spec, self.T_SMALL)

    def warm(self, tl) -> None:
        """One untimed pass over the suite fills the ψ-table caches."""
        self._run_suite(tl)

    def round(self, r: int) -> list:
        """One op: the whole suite, as `templevy verify` would run it."""
        return [Op("envelope suite", self._run_suite, self._check_suite)]

    def _run_suite(self, tl):
        out = {name: self._verify(tl, name) for name in self.VERIFY}
        out["diagonal"] = self._diagonal(tl)
        return out

    def _check_suite(self, out):
        for name in self.VERIFY:
            self._check_verify(name, out[name])
        self._check_diagonal(out["diagonal"])

    def _check_verify(self, name, rep):
        self.checks.require(
            rep.verdict == "PASS" and 0.0 < rep.statistic < math.inf,
            f"{name}: verdict {rep.verdict}, statistic {rep.statistic!r}")
        phi = self.PHI.get(name)
        if phi is None:
            return
        # rows are (t, x, p, env, ratio); p is None where not evaluated
        by_t = {}
        for row in rep.rows:
            if row[2] is not None:
                by_t.setdefault(row[0], []).append((row[1], row[2]))
        for t, pts in sorted(by_t.items()):
            x = np.array([p[0] for p in pts])
            key = (name, t, x.tobytes())
            if key not in self._refs:
                self._refs[key] = ref.density(phi, t, x)
            self.checks.error(f"{name} t={t:g}", [p[1] for p in pts],
                              self._refs[key], tol=SCAN_TOL)

    def _diagonal(self, tl):
        """p_t(0) on the default grid and on a twice finer one (criterion 07)."""
        model = tl.exp_model(1.0)
        out = []
        for t in self.T_LARGE:
            a = tl.invert(model, t)
            b = tl.invert(model, t, a.grid.refine(2))
            out.append((t, float(a.values[a.grid.N // 2]),
                        float(b.values[b.grid.N // 2])))
        return out

    def _check_diagonal(self, rows):
        t = np.array([r[0] for r in rows])
        pa = np.array([r[1] for r in rows])
        pb = np.array([r[2] for r in rows])
        key = ("diagonal",)
        if key not in self._refs:
            phi = ref.exp_phi(1.0, 1.0)
            self._refs[key] = np.array([ref.density(phi, s, 0.0)[0] for s in t])
        p_ref = self._refs[key]
        for s, a, b, p in zip(t, pa, pb, p_ref):
            self.checks.error(f"diagonal t={s:g}", [a, b], [p, p])
        drift = float(np.max(np.abs(pb - pa) / pa))
        scaled = pa * np.sqrt(t)
        self.checks.require(drift < 0.10, f"diagonal: drift {drift:.3e}")
        self.checks.require(scaled.max() / scaled.min() < 2.0,
                            "diagonal: p_t(0) t^(1/2) spans a factor >= 2")


WORKLOADS = {"cold_fields": ColdFields, "split": Split,
             "envelope_warm": EnvelopeWarm}

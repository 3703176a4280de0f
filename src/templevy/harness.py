"""Verification scans: computed densities against envelope formulas.

The envelope bounds are qualitative ("there exists C"); the strongest
desk-scale reading is stability: the sup (upper checks) or inf (lower
checks) of p_t(x) / envelope(t, x) over a scan must be finite, positive,
and move by less than a declared fraction when the grid refines and the
scan range doubles.  Every verdict therefore carries a refinement delta.

A scan reads p_t at its points by density.values_at: the exact trapezoid
sums of invert's half spectrum at the points, with no interpolation
between nodes and no inverse FFT per t.  The two resolutions share one
read of Phi: it is read on the refined grid's half spectrum, and the
refined grid always keeps the base grid's L (_scan_grid's, which holds
2.2 times the doubled radii), so the base grid's N/2 + 1 nodes are a
slice of it, bitwise the same Phi.  On axis models it is read only up
to the live prefix of the smallest t, which both resolutions' sums stop
within, when Phi is certified non-decreasing (density._half_phi); an
uncertified Phi is read whole.  The tail estimate reads Phi at each
grid's cutoff once, for every t.  A scan raises GridError when the
spectral tail past the grid's cutoff (the field's trunc_error) exceeds
RINGING_TOL of the peak, or a value rings below -RINGING_TOL of it.
Once the tail check passes, the refined grid adds only nodes past the
live prefix, below eps of p_t(0): without range extension the delta is 0
up to rounding, and on small-t checks it measures the doubled range.

The envelope side is read by one envelope.evaluate call per t on the
whole (n, d) scan_points array.  A lower check raises DomainError when no
scan point but the origin lies in the cone over A0.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__ as TOOLKIT_VERSION
from . import envelope as env_mod
from .decomp import compound_poisson, default_eps, local_density, recompose, split
from .density import (MAX_N, RINGING_TOL, GridSpec, _half_phi, _live,
                      _sub_half, _too_coarse, _trunc_estimate, _values_at,
                      auto_grid, invert)
from .envelope import EnvelopeSpec, evaluate, hypothesis_check, in_cone
from .errors import DomainError, GridError
from .model import LevyModel, model_from_dict

__all__ = [
    "VerificationReport",
    "scan_points",
    "verify_upper",
    "verify_lower",
    "verify_decomposition",
    "run_suite",
]

#: densities below this fraction of the peak are noise-dominated: excluded
DENSITY_FLOOR = 1e-14

#: a verdict is stable when the extremal ratio moves less than this
STABILITY_TOL = 0.10

DEFAULT_RADII = tuple(np.exp(np.linspace(math.log(0.1), math.log(20.0), 24)))


@dataclass
class VerificationReport:
    kind: str                      # "upper" | "lower" | "decomposition"
    model_id: str
    spec_id: str
    t_values: list
    statistic: float               # sup ratio / inf ratio / max rel defect
    refinement_delta: float
    excluded: int
    hypotheses: dict
    rows: list = field(repr=False, default_factory=list)
    verdict: str = "FAIL"

    def passed(self) -> bool:
        return self.verdict == "PASS"


def scan_points(model: LevyModel, radii=None) -> np.ndarray:
    """Scan points along each spectral direction (plus the origin)."""
    radii = np.asarray(radii if radii is not None else DEFAULT_RADII,
                       dtype=float)
    dirs = model.spectral.probe_directions
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, model.d)
    return np.vstack([np.zeros((1, model.d)), pts])


def _scan_grid(model: LevyModel, t_min: float, x_max: float) -> GridSpec:
    """auto_grid at t_min, widened at its spacing to hold 2.2 x_max."""
    g = auto_grid(model, t_min)
    g = g.widen(max(2.2 * x_max / g.L, 1.0))
    if g.N > MAX_N[model.d]:
        raise GridError(f"scan grid needs N = {g.N} points per axis, above "
                        f"MAX_N = {MAX_N[model.d]}")
    return g


def _ratio_scan(model: LevyModel, spec: EnvelopeSpec, t_set, radii,
                grid: GridSpec, half: tuple) -> tuple:
    """(rows, extremal ratios) for one resolution: one values_at sum on
    `half`, the grid's half spectrum, one tail estimate for every t, then
    one envelope evaluate call per t on the whole scan_points array."""
    pts = scan_points(model, radii)
    t_set = sorted(t_set)
    values = _values_at(model, t_set, grid, pts, half)
    # the cause first: a spectral tail cut at xi_cut rings between nodes
    truncs = _trunc_estimate(model, t_set, grid)
    rows, ratios = [], []
    for t, vals, trunc in zip(t_set, values, truncs):
        # the origin is a scan point, so this is the peak of p_t
        peak = float(vals.max())
        if trunc > RINGING_TOL * peak:
            raise GridError(f"spectral tail {trunc:.3e} beyond the cutoff at "
                            f"t = {t:g} exceeds {RINGING_TOL:g} of the peak "
                            f"{peak:.3e}: {_too_coarse(grid)}")
        if vals.min() < -RINGING_TOL * peak:
            raise GridError(f"negative ringing {vals.min():.3e} at t = {t:g} "
                            f"exceeds tolerance: {_too_coarse(grid)}")
        p = np.maximum(vals, 0.0)
        e = evaluate(spec, float(t), pts)
        ratio = p / e
        outside = np.isnan(e)
        kept = ~outside & (p >= DENSITY_FLOOR * peak)
        ratios.extend(ratio[kept].tolist())
        # rows: None for p, env and ratio outside the cone, and for the
        # ratio of a density below the floor
        table = np.column_stack((np.full(len(p), float(t)), pts, p, e,
                                 ratio)).tolist()
        for i in np.flatnonzero(~kept):
            table[i][-1] = None
            if outside[i]:
                table[i][-3:-1] = None, None
        rows.extend(map(tuple, table))
    return rows, ratios


def _verify_envelope(model: LevyModel, spec: EnvelopeSpec, t_set, radii,
                     extend_range: bool, model_id: str = "model",
                     spec_id: str = "spec") -> VerificationReport:
    hyp = hypothesis_check(model, spec)
    if not hyp["pass"]:
        failing = [k for k, v in hyp["checks"].items() if not v["pass"]]
        raise DomainError(f"hypothesis check failed: {', '.join(failing)}")
    radii = np.asarray(radii if radii is not None else DEFAULT_RADII,
                       dtype=float)
    # the cone is scale invariant, so this holds on the refined scan too
    if spec.side == "lower" and not np.any(
            in_cone(spec, scan_points(model, radii)[1:])):
        raise DomainError("no scan point but the origin lies in the cone "
                          "over A0: a lower verdict would rest on x = 0 "
                          "alone")
    grid = _scan_grid(model, min(t_set), 2.0 * float(radii.max()))
    ext = max if spec.side == "upper" else min
    # refine: double N, and (by default) double the x-range; range
    # extension is optional because large-t sup ratios are attained at the
    # moving edge of the diffusive bulk and grow with the scan radius
    radii2 = np.concatenate([radii, radii * 2.0]) if extend_range else radii
    grid2 = grid.refine(2)
    # Phi is read once, on the refined grid: on the same L its nodes hold
    # the base grid's; only up to the live prefix of its smallest t, the
    # largest that either resolution sums
    half2 = _half_phi(model, grid2, float(_live(grid2, t_set).max()))
    half = _sub_half(half2, grid.N)
    rows, ratios = _ratio_scan(model, spec, t_set, radii, grid, half)
    stat = ext(ratios)
    _, ratios2 = _ratio_scan(model, spec, t_set, radii2, grid2, half2)
    stat2 = ext(ratios2)
    delta = abs(stat2 - stat) / abs(stat) if stat else math.inf
    excluded = sum(1 for r in rows if r[-1] is None)
    ok = (math.isfinite(stat) and stat > 0.0 and delta < STABILITY_TOL)
    return VerificationReport(
        kind=spec.side, model_id=model_id, spec_id=spec_id,
        t_values=[float(t) for t in sorted(t_set)], statistic=float(stat2),
        refinement_delta=float(delta), excluded=excluded, hypotheses=hyp,
        rows=rows, verdict="PASS" if ok else "FAIL")


def verify_upper(model: LevyModel, spec: EnvelopeSpec, t_set, radii=None,
                 extend_range: bool = True, **ids) -> VerificationReport:
    if spec.side != "upper":
        raise DomainError("spec is not an upper envelope")
    return _verify_envelope(model, spec, t_set, radii, extend_range, **ids)


def verify_lower(model: LevyModel, spec: EnvelopeSpec, t_set, radii=None,
                 extend_range: bool = True, **ids) -> VerificationReport:
    if spec.side != "lower":
        raise DomainError("spec is not a lower envelope")
    return _verify_envelope(model, spec, t_set, radii, extend_range, **ids)


def verify_decomposition(model: LevyModel, t_set, tol: float = 1e-4,
                         model_id: str = "model") -> VerificationReport:
    """Recompose-vs-direct sup-norm defect for each t (d = 1)."""
    if model.d != 1:
        raise DomainError("decomposition verification is d=1 only")
    rows, worst = [], 0.0
    for t in sorted(t_set):
        eps = default_eps(model, t)
        sm = split(model, eps)
        n = 2 ** 20 if t < 0.3 else 2 ** 17
        grid = GridSpec(1, 2048.0, n)
        loc = local_density(sm, t, grid)
        cp = compound_poisson(sm, t, grid)
        rec = recompose(loc, cp)
        direct = invert(model, t, grid)
        defect = float(np.max(np.abs(rec.values - direct.values))
                       / direct.values.max())
        mass_defect = abs(rec.mass - 1.0)
        rows.append((float(t), eps, defect, mass_defect))
        worst = max(worst, defect)
    return VerificationReport(
        kind="decomposition", model_id=model_id, spec_id="recompose",
        t_values=[float(t) for t in sorted(t_set)], statistic=worst,
        refinement_delta=0.0, excluded=0, hypotheses={"pass": True},
        rows=rows, verdict="PASS" if worst <= tol else "FAIL")


# ---------------------------------------------------------------------------
# suite runner


def _spec_rows_csv(report: VerificationReport, path) -> None:
    with open(path, "w") as f:
        if report.kind == "decomposition":
            f.write("t,eps,rel_defect,mass_defect\n")
            for r in report.rows:
                f.write(",".join(f"{v:.17g}" for v in r) + "\n")
            return
        d = len(report.rows[0]) - 4 if report.rows else 1
        f.write("t," + ",".join(f"x{i+1}" for i in range(d)) + ",p,env,ratio\n")
        for r in report.rows:
            f.write(",".join("" if v is None else f"{v:.17g}" for v in r)
                    + "\n")


def run_suite(config, out_dir=None) -> tuple:
    """Run every check in a suite config; (exit_code, bundle).

    config: dict or path to JSON with {"suite_id", "checks": [...]};
    each check: {"kind": "upper"|"lower"|"decomposition", "model": {...},
    "spec": {...} (envelope kinds), "t_set": [...], optional "radii",
    "tol"}.
    """
    if not isinstance(config, dict):
        with open(config) as f:
            config = json.load(f)
    results = []
    all_pass = True
    for i, chk in enumerate(config.get("checks", [])):
        model = model_from_dict(chk["model"])
        kind = chk["kind"]
        mid = chk.get("model_id", f"model{i}")
        try:
            if kind == "decomposition":
                rep = verify_decomposition(model, chk["t_set"],
                                           tol=chk.get("tol", 1e-4),
                                           model_id=mid)
            else:
                spec = env_mod.spec_from_dict(chk["spec"])
                fn = verify_upper if kind == "upper" else verify_lower
                # large-t sups sit at the edge of the diffusive bulk and
                # grow with the scan radius: refine without widening there
                rep = fn(model, spec, chk["t_set"],
                         radii=chk.get("radii"),
                         extend_range=spec.regime == "small_t", model_id=mid,
                         spec_id=chk.get("spec_id", f"spec{i}"))
        except DomainError as e:  # RegimeError among them
            rep = VerificationReport(kind=kind, model_id=mid,
                                     spec_id=chk.get("spec_id", f"spec{i}"),
                                     t_values=list(chk.get("t_set", [])),
                                     statistic=math.nan,
                                     refinement_delta=math.nan, excluded=0,
                                     hypotheses={"pass": False,
                                                 "reason": str(e)},
                                     verdict="FAIL")
        all_pass = all_pass and rep.passed()
        results.append(rep)
    bundle = {
        "suite_id": config.get("suite_id", "suite"),
        "toolkit_version": TOOLKIT_VERSION,
        "results": [
            {k: v for k, v in asdict(r).items() if k != "rows"}
            for r in results],
    }
    if out_dir is not None:
        import os
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as f:
            json.dump(bundle, f, indent=2)
        for j, r in enumerate(results):
            _spec_rows_csv(r, os.path.join(
                out_dir, f"scan_{j}_{r.kind}_{r.model_id}.csv"))
    return (0 if all_pass else 1), bundle

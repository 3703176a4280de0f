"""Command-line interface.

Subcommands: phi, density, decompose, envelope, simulate, verify.
Models travel as JSON documents (see model.save_model); grids are given
as "L,N".
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import decomp, envelope, harness, montecarlo
from .density import (GridSpec, auto_grid, density_at, field_to_csv, invert,
                      save_field)
from .charexp import phi_on_points
from .model import load_model

__all__ = ["main"]


def _parse_grid(text: str, d: int) -> GridSpec:
    L, N = text.split(",")
    return GridSpec(d, float(L), int(N))


def _write_csv(path, header: str, rows: np.ndarray) -> None:
    """rows under a header line, to the path or, when it is None, to
    standard output."""
    np.savetxt(path or sys.stdout, rows, fmt="%.17g", delimiter=",",
               header=header, comments="")


def _cmd_phi(args) -> int:
    model = load_model(args.model)
    if args.xi:
        pts = np.array([[float(v) for v in x.split(",")]
                        for x in args.xi])
    else:
        ax = _parse_grid(args.grid, model.d).xi_axis()
        pts = np.stack(np.meshgrid(*(ax,) * model.d, indexing="ij"),
                       axis=-1).reshape(-1, model.d)
    vals = phi_on_points(model, pts)
    for x, v in zip(pts.reshape(-1, model.d), np.asarray(vals).ravel()):
        print(",".join(f"{c:.17g}" for c in x) + f",{v:.17g}")
    return 0


def _cmd_density(args) -> int:
    model = load_model(args.model)
    grid = _parse_grid(args.grid, model.d) if args.grid else None
    fld = invert(model, args.t, grid)
    if args.out:
        field_to_csv(fld, args.out)
    if args.cache:
        save_field(fld, args.cache)
    if args.x is not None:
        print(f"{density_at(model, args.t, args.x):.17g}")
    elif not args.out:
        field_to_csv(fld, sys.stdout)
    print(f"# mass={fld.mass:.12g} trunc={fld.trunc_error:.3g} "
          f"alias={fld.alias_error:.3g}", file=sys.stderr)
    return 0


def _cmd_decompose(args) -> int:
    model = load_model(args.model)
    eps = (decomp.default_eps(model, args.t) if args.eps == "auto"
           else float(args.eps))
    sm = decomp.split(model, eps)
    grid = _parse_grid(args.grid, model.d) if args.grid \
        else auto_grid(model, args.t)
    loc = decomp.local_density(sm, args.t, grid)
    cp = decomp.compound_poisson(sm, args.t, grid)
    rec = decomp.recompose(loc, cp)
    direct = invert(model, args.t, grid)
    _write_csv(args.out, "x,p_local,p_cp_ac,p_recomposed,p_direct,abs_diff",
               np.column_stack((grid.x_axis(), loc.values, cp.ac, rec.values,
                                direct.values,
                                np.abs(rec.values - direct.values))))
    print(f"# eps={eps:.12g} lambda={sm.lam:.12g} "
          f"tail_bound={cp.tail_bound:.3g} overflow={cp.overflow:.3g}",
          file=sys.stderr)
    return 0


def _cmd_envelope(args) -> int:
    with open(args.spec) as f:
        spec = envelope.spec_from_dict(json.load(f))
    for t in args.t:
        for x in args.x:
            xv = [float(v) for v in x.split(",")]
            v = envelope.evaluate(spec, t, np.array(xv))
            print(f"{t:.17g}," + x + f",{v:.17g}")
    return 0


def _cmd_simulate(args) -> int:
    model = load_model(args.model)
    cfg = montecarlo.SamplerConfig(model=model, t=args.t, eps=args.eps,
                                   mode=args.mode, count=args.n,
                                   seed=args.seed)
    samples = montecarlo.sample_many(cfg)
    _write_csv(args.out, ",".join(f"x{i + 1}" for i in range(model.d)),
               samples)
    return 0


def _cmd_verify(args) -> int:
    code, bundle = harness.run_suite(args.suite, out_dir=args.out_dir)
    for r in bundle["results"]:
        stat = r["statistic"]
        print(f"{r['kind']} {r['model_id']}/{r['spec_id']}: "
              f"{r['verdict']} (stat={stat:.6g}, "
              f"delta={r['refinement_delta']:.3g})")
    if code != 0:
        print("FAIL: at least one verification did not pass",
              file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="templevy",
        description="tempered stable density toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("phi", help="characteristic exponent values")
    q.add_argument("--model", required=True)
    q.add_argument("--xi", nargs="*",
                   help="frequency points, comma-separated components")
    q.add_argument("--grid", help="L,N dual grid when --xi is omitted")
    q.set_defaults(fn=_cmd_phi)

    q = sub.add_parser("density", help="transition density on a grid")
    q.add_argument("--model", required=True)
    q.add_argument("--t", type=float, required=True)
    q.add_argument("--grid", help="L,N")
    q.add_argument("--x", type=float, help="pointwise value (d=1)")
    q.add_argument("--out", help="CSV output path")
    q.add_argument("--cache", help="binary field cache path")
    q.set_defaults(fn=_cmd_density)

    q = sub.add_parser("decompose",
                       help="local vs compound-Poisson decomposition")
    q.add_argument("--model", required=True)
    q.add_argument("--t", type=float, required=True)
    q.add_argument("--eps", default="auto")
    q.add_argument("--grid", help="L,N")
    q.add_argument("--out", help="CSV output path")
    q.set_defaults(fn=_cmd_decompose)

    q = sub.add_parser("envelope", help="evaluate an envelope spec")
    q.add_argument("--spec", required=True, help="spec JSON path")
    q.add_argument("--t", type=float, nargs="+", required=True)
    q.add_argument("--x", nargs="+", required=True,
                   help="points, comma-separated components")
    q.set_defaults(fn=_cmd_envelope)

    q = sub.add_parser("simulate", help="sample increments")
    q.add_argument("--model", required=True)
    q.add_argument("--t", type=float, required=True)
    q.add_argument("--eps", type=float, required=True)
    q.add_argument("--n", type=int, default=1000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--mode", choices=("gaussian", "drop"),
                   default="gaussian")
    q.add_argument("--out", help="CSV output path")
    q.set_defaults(fn=_cmd_simulate)

    q = sub.add_parser("verify", help="run a verification suite")
    q.add_argument("--suite", required=True, help="suite JSON path")
    q.add_argument("--out-dir", help="report output directory")
    q.set_defaults(fn=_cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

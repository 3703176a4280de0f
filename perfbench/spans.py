"""Spans around templevy's public functions, recorded from outside the package.

`Tracer.install` wraps every function a layer module lists in ``__all__``
(and the ψ-table constructor) and rebinds each name under which any
module of the package holds it, so a call made through a module's own
import (``density`` binds ``phi_on_points`` itself) is traced too.
Spans live in memory as flat arrays until `write` dumps them; counters
that need a look at arguments or results are gathered as the spans close.
"""
from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from collections import defaultdict

import numpy as np

#: templevy modules timed as layers (cli is left out of the benchmark)
LAYERS = ("profiles", "model", "charexp", "density", "decomp", "envelope",
          "montecarlo", "harness")

#: span name -> (counter name, value read from the call's args and result)
COUNTERS = {
    "charexp.phi_on_points": ("charexp.phi_on_points.points",
                              lambda a, out: np.size(a[1]) // a[0].d),
    "density.auto_grid": ("density.auto_grid.N", lambda a, out: out.N ** out.d),
    "density.invert": ("density.invert.points",
                       lambda a, out: out.grid.N ** out.grid.d),
    "decomp.compound_poisson": ("decomp.compound_poisson.order",
                                lambda a, out: out.order),
    "montecarlo.sample_many": ("montecarlo.draws", lambda a, out: len(out)),
}

VERIFY = ("harness.verify_upper", "harness.verify_lower")
#: children of a verify span that are not the harness's own scan work
SCAN_EXCLUDES = ("density.invert", "envelope.hypothesis_check")


class Tracer:
    def __init__(self):
        self.active = False
        self.kinds: list = []          # span kind id -> name
        self._kind_of: dict = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(float)
        self._stack: list = []

    def _kind_id(self, name: str) -> int:
        if name not in self._kind_of:
            self._kind_of[name] = len(self.kinds)
            self.kinds.append(name)
        return self._kind_of[name]

    def wrap(self, name: str, fn):
        kid = self._kind_id(name)
        counter = COUNTERS.get(name)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(kind)
            kind.append(kid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            start[i] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counter is not None:
                try:
                    self.counts[counter[0]] += counter[1](args, out)
                except (AttributeError, IndexError, TypeError):
                    pass
            return out

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of each layer of `package` in place."""
        prefix = package.__name__ + "."
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules.get(prefix + layer)
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if (isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self.wrap(f"{layer}.{attr}", fn)
        modules = [m for n, m in list(sys.modules.items())
                   if n == package.__name__ or n.startswith(prefix)]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrapped:
                    setattr(mod, attr, wrapped[val])
        table = getattr(sys.modules.get(prefix + "charexp"), "PsiTable", None)
        if table is not None:
            table.__init__ = self.wrap("charexp.PsiTable.build", table.__init__)

    # ------------------------------------------------------------------
    def _arrays(self):
        kind = np.array(self.kind, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return kind, parent, dur, child

    def metrics(self, ops: int, timed_s: float, span_cost_s: float,
                time_scale: float = 1.0) -> dict:
        """Per-layer metrics, each a per-operation average over the run.

        Times are multiplied by `time_scale` (reference seconds); the
        coverage and overhead shares are plain ratios of measured times.
        """
        kind, parent, dur, child = self._arrays()
        names = np.array(self.kinds, dtype=object)[kind]

        def sel(name):
            return names == name

        def incl(name):
            return float(dur[sel(name)].sum())

        def calls(name):
            return float(np.count_nonzero(sel(name)))

        selfs = dur - child
        inv = sel("density.invert")
        scan = np.zeros(len(dur), dtype=bool)
        for v in VERIFY:
            scan |= sel(v)
        excl = np.zeros(len(dur))
        drop = np.isin(names, SCAN_EXCLUDES) & (parent >= 0)
        np.add.at(excl, parent[drop], dur[drop])

        out = {
            "charexp.psi_quad.calls": (calls("charexp.psi_quad"), "count/op"),
            "charexp.psi_quad.s": (incl("charexp.psi_quad"), "s/op"),
            "charexp.PsiTable.builds": (calls("charexp.PsiTable.build"),
                                        "count/op"),
            "charexp.PsiTable.build_s": (incl("charexp.PsiTable.build"),
                                         "s/op"),
            "charexp.phi_on_points.s": (incl("charexp.phi_on_points"), "s/op"),
            "charexp.phi_on_points.points": (
                self.counts["charexp.phi_on_points.points"], "count/op"),
            "density.auto_grid.s": (incl("density.auto_grid"), "s/op"),
            "density.auto_grid.N": (self.counts["density.auto_grid.N"],
                                    "count/op"),
            "density.invert.self_s": (float(selfs[inv].sum()), "s/op"),
            "density.invert.points": (self.counts["density.invert.points"],
                                      "count/op"),
            "decomp.compound_poisson.s": (incl("decomp.compound_poisson"),
                                          "s/op"),
            "decomp.compound_poisson.order": (
                self.counts["decomp.compound_poisson.order"], "count/op"),
            "decomp.bounded_cell_masses.s": (
                incl("decomp.bounded_cell_masses"), "s/op"),
            "decomp.local_density.s": (incl("decomp.local_density"), "s/op"),
            "decomp.recompose.s": (incl("decomp.recompose"), "s/op"),
            "model.nu_tail.calls": (calls("model.nu_tail"), "count/op"),
            "model.nu_tail.s": (incl("model.nu_tail"), "s/op"),
            "envelope.hypothesis_check.s": (incl("envelope.hypothesis_check"),
                                            "s/op"),
            "harness.scan.self_s": (float((dur - excl)[scan].sum()), "s/op"),
            "harness.scan.points": (calls("envelope.evaluate"), "count/op"),
            "montecarlo.sample_many.s": (incl("montecarlo.sample_many"),
                                         "s/op"),
            "montecarlo.draws": (self.counts["montecarlo.draws"], "count/op"),
        }
        layer = np.array([n.split(".", 1)[0] for n in names], dtype=object)
        for name in LAYERS:
            out[f"{name}.self_s"] = (float(selfs[layer == name].sum()), "s/op")
        out = {k: (v / max(ops, 1) * (time_scale if u == "s/op" else 1.0), u)
               for k, (v, u) in out.items()}
        top = float(dur[parent < 0].sum())
        out["trace.coverage"] = (top / timed_s if timed_s > 0 else 0.0,
                                 "share")
        out["trace.overhead_share"] = (
            len(dur) * span_cost_s / timed_s if timed_s > 0 else 0.0, "share")
        return out

    def write(self, path) -> None:
        """Dump every span (name id, start, end, parent index) as .npz."""
        kind, parent, _, _ = self._arrays()
        np.savez_compressed(path, names=np.array(self.kinds), kind=kind,
                            start=np.array(self.start), end=np.array(self.end),
                            parent=parent)


def span_cost(n: int = 20000) -> float:
    """Seconds one traced call adds over a direct call (calibration)."""
    tr = Tracer()
    noop = lambda: None
    traced = tr.wrap("calibration", noop)
    tr.active = True
    clock = time.perf_counter
    t0 = clock()
    for _ in range(n):
        traced()
    t1 = clock()
    for _ in range(n):
        noop()
    t2 = clock()
    return max((t1 - t0) - (t2 - t1), 0.0) / n

"""templevy benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload cold_fields --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: templevy is imported from ./src.
The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones. Times
are in reference seconds (see SpeedProbe). The exit code is 1 when an
output check fails. See perfbench/README.md for the workloads and metrics.
"""
import os

# one thread for BLAS and OpenMP pools, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-up passes per run; setup_s reports the median pass
SETUP_REPEATS = 2
#: speed-probe time per second of timed (or set-up) work
PROBE_SHARE = 0.2
#: probe chunk time that defines a reference second (typical on the
#: 2-vCPU machine described in README.md)
CHUNK_REF_S = 0.035


class SpeedProbe:
    """The machine's current speed, sampled with fixed numpy/scipy work.

    On a shared machine the same work can take twice as long from one
    minute to the next. Between timed spans, chunks of fixed work
    (Python-driven QUADPACK and an FFT too large for cache, the mix
    templevy spends its time on) run for PROBE_SHARE of the time spent,
    so they see the machine as the spans did. A span divided by the
    chunks' time around it, over CHUNK_REF_S, is in reference seconds.
    """

    def __init__(self):
        import math
        import numpy as np
        from scipy.integrate import quad

        x = np.random.default_rng(0).standard_normal(2 ** 19)
        f = lambda s: math.cos(3.0 * s) * math.exp(-s * s)

        def chunk():
            for _ in range(160):
                quad(f, 0.0, 4.0, limit=100)
            np.fft.fft(x)

        chunk()  # first-call costs (FFT plans, imports) stay out of samples
        self._chunk = chunk
        self.samples = []
        self._before = []   # chunks run right after the previous span
        self._owed = 0.0

    def to_reference(self, span_s: float) -> float:
        """Probe right after a span of span_s seconds; span in reference s.

        Chunks run until PROBE_SHARE of all spans so far is probed. The
        span is scaled by the chunks run just before it and just after it;
        a span too short to need a chunk of its own uses the latest one.
        """
        self._owed += PROBE_SHARE * span_s
        ran = []
        while self._owed > 0.0 or not (ran or self.samples):
            t0 = time.perf_counter()
            self._chunk()
            ran.append(time.perf_counter() - t0)
            self._owed -= ran[-1]
        around = self._before + (ran or self.samples[-1:])
        self.samples.extend(ran)
        self._before = ran or self._before
        return span_s * CHUNK_REF_S / statistics.fmean(around)


def _import_templevy():
    """Import templevy afresh from ./src (earlier copies and caches dropped)."""
    for name in [n for n in sys.modules
                 if n == "templevy" or n.startswith("templevy.")]:
        del sys.modules[name]
    tl = importlib.import_module("templevy")
    if not os.path.abspath(tl.__file__).startswith(SRC + os.sep):
        raise ImportError(f"templevy resolved outside {SRC}: {tl.__file__}")
    return tl


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("cold_fields", "split", "envelope_warm"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    tl = _import_templevy()
    import_s = time.perf_counter() - t0

    sys.path.insert(0, HERE)
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    probe = SpeedProbe()
    setup_ref = probe.to_reference(import_s)
    passes = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        tl = _import_templevy()
        wl.warm(tl)
        passes.append(probe.to_reference(time.perf_counter() - t0))
    setup_ref += statistics.median(passes)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(tl)

    attempted = failed = 0
    times, per_op = [], {}   # op times in reference seconds
    timed = timed_ref = 0.0
    rounds = 0
    # whole rounds, as many as fit in --seconds (at least one)
    while rounds == 0 or timed * (rounds + 1) / rounds <= args.seconds:
        for op in wl.round(rounds):
            attempted += 1
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = op.run(tl)
            except Exception:
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            finally:
                dt = time.perf_counter() - t0
                if tracer:
                    tracer.active = False
                timed += dt
                dt = probe.to_reference(dt)
                timed_ref += dt
            times.append(dt)
            per_op.setdefault(op.name, []).append(dt)
            op.check(out)
            del out
        rounds += 1

    chk = wl.checks
    for msg in chk.failures:
        print(f"check failed: {msg}", file=sys.stderr)
    for name, ts in per_op.items():
        print(f"{name:32s} n={len(ts):3d} median {statistics.median(ts):.4f} "
              "reference s",
              file=sys.stderr)
    done = attempted - failed
    print(f"timed {timed:.3f} s ({timed_ref:.3f} reference s) in {rounds} "
          f"rounds; {len(probe.samples)} probe chunks, median "
          f"{statistics.median(probe.samples):.5f} s", file=sys.stderr)
    if tracer:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(os.path.join(
            HERE, "out", f"spans-{args.workload}-seed{args.seed}.npz"))
        metrics = tracer.metrics(done, timed, spans.span_cost(),
                                 time_scale=timed_ref / timed)
    else:
        metrics = {
            "setup_s": (setup_ref, "s"),
            "ops_per_s": (done / timed_ref if timed_ref > 0 else 0.0, "1/s"),
            "op_p50_s": (statistics.median(times) if times else 0.0, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "max_err": (chk.max_err, "1"),
        }
    correct = not chk.failures
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

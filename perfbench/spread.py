"""Run the benchmark once per seed and report the spread of each metric.

    python3 perfbench/spread.py --seeds 1-10                 # every workload
    python3 perfbench/spread.py --workloads split --seeds 1-5 --trace 1

Runs one benchmark process at a time from the checkout root, with the
run length of BENCHMARK.json. For each workload and metric it prints the
median of the runs and their spread, (q3 - q1) / median with the
quartiles of statistics.quantiles(n=4), next to the metric's bound.
Results are also written to perfbench/out/spread-<trace>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", default="1-10", help="first-last, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in
              bench["per_layer" if args.trace else "end_to_end"]}
    summary = {}
    for wl in args.workloads:
        runs = []
        for seed in _seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{wl} seed {seed}: exit {proc.returncode}")
                return 1
            res = json.loads(lines[-1])
            runs.append(res)
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                flush=True)
        rows = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (med, med, med))
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0,
                          "bound": bounds.get(name), "values": vals}
        summary[wl] = {
            "metrics": rows,
            "failed_share": [r["failed"] / r["attempted"] for r in runs],
            "correct": all(r["correct"] for r in runs)}
        print(f"\n{wl}: correct={summary[wl]['correct']} failed share "
              f"{sorted(set(summary[wl]['failed_share']))}")
        for name, row in rows.items():
            b = row["bound"]
            print(f"  {name:32s} median {row['median']:.5g}  spread "
                  f"{row['spread']:.4f}"
                  + (f"  bound {b} ({row['spread'] / b:.2f} of it)" if b else ""))
        print(flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"spread-{args.trace}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the benchmark, and the meta record it lands in.

    python3 perfbench/spread.py [--workload NAME ...] [--runs 10]
                                [--first-seed 1] [--write-meta]

Runs ``run.py`` once per seed on each workload, one after another, and
prints for every end-to-end metric its median over the runs and the
distance between the first and third quartile as a share of that
median.  ``--write-meta`` stores those spreads in ``meta.json`` together
with the host description, the workload reasons, the default and
held-out seeds and the modelled metrics at each, the traced run's
layer self-time shares and the interaction map of ``layers.py``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
META = os.path.join(HERE, "meta.json")

#: The seed perf claims are tuned on, and one kept aside to confirm them.
DEFAULT_SEED = 2025
HELD_OUT_SEED = 7


def bench(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> None:
    sys.path.insert(1, os.path.join(ROOT, "src"))
    from layers import PREDICTIONS
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--write-meta", action="store_true")
    args = parser.parse_args()
    workloads = args.workload or list(WORKLOADS)
    seeds = range(args.first_seed, args.first_seed + args.runs)

    measured = {}
    worst = 0.0
    for workload in workloads:
        runs = []
        for seed in seeds:
            result = bench(workload, seed, spec["run_seconds"])
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        measured[workload] = {}
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            share = spread(values)
            measured[workload][name] = {
                "median": statistics.median(values),
                "iqr_share": share,
                "runs": len(values),
            }
            if name != "setup_s":
                worst = max(worst, share / bound)
            print(f"  {name:22s} median {statistics.median(values):12.6g}  "
                  f"iqr/median {share:.4f}  bound {bound}  "
                  f"{'ok' if share <= bound / 3 else 'WIDE'}", flush=True)
    print(f"widest spread / bound (setup_s aside): {worst:.3f}")

    if args.write_meta:
        seeds_shown = {}
        for workload in workloads:
            seeds_shown[workload] = {
                str(seed): {k: v["value"] for k, v in bench(
                    workload, seed, 1)["metrics"].items()
                    if k in bounds and k not in ("wall_s", "cpu_s", "setup_s",
                                                 "rss_peak_mb")}
                for seed in (DEFAULT_SEED, HELD_OUT_SEED)
            }
        layer_shares = {}
        for workload in workloads:
            bench(workload, DEFAULT_SEED, spec["run_seconds"], trace=1)
            with open(os.path.join(HERE, "out", f"{workload}-layers.json")) as handle:
                report = json.load(handle)
            layer_shares[workload] = {
                "seed": report["seed"],
                "tracing_overhead": report["overhead"],
                "self_time_shares": report["layer_shares"],
            }
        meta = {
            "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
            "host": {"nproc": os.cpu_count(),
                     "python": platform.python_version(),
                     "platform": platform.platform()},
            "workloads": {name: WORKLOADS[name].why for name in WORKLOADS},
            "spread": {"seeds": [min(seeds), max(seeds)], "by_workload": measured},
            "modelled_at_seeds": seeds_shown,
            "layer_shares": layer_shares,
            "interaction_map": {
                name: {"moves": {k: list(v) for k, v in p["moves"].items()},
                       "zero_on": list(p.get("zero_on", ()))}
                for name, p in PREDICTIONS.items()
            },
        }
        with open(META, "w") as handle:
            json.dump(meta, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(META, ROOT)}")


if __name__ == "__main__":
    main()

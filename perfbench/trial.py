"""One benchmark trial in a fresh interpreter; prints one JSON line.

    python3 perfbench/trial.py --workload NAME --seed N --scale F [--trace]

Set-up time runs from the start of this script, before ``repro`` is
imported, to the pump's first pull of the stream; the replay runs from
there until the result is collected.  ``ru_maxrss`` is a process-lifetime
peak, which is why every trial gets its own process.  The reference job
of ``reference.py`` runs before set-up (its time is not counted in it)
and after the replay; the result carries the mean of its two times.
"""

import time

_T0_WALL = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [_HERE, os.path.join(os.path.dirname(_HERE), "src")]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    from reference import reference

    before = reference()
    from workloads import WORKLOADS

    profiler = None
    draw = next
    if args.trace:
        from layers import Profiler, counter_checks, layer_metrics

        profiler = Profiler()
        profiler.install()
        draw = profiler.timed("workload.gen", next)
    replay = WORKLOADS[args.workload].build(args.seed, args.scale, draw=draw)
    replay.run()
    end_wall = time.perf_counter()
    end_cpu = time.process_time()
    after = reference()
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": replay.stream.started_wall - _T0_WALL - before[0],
        "wall_s": end_wall - replay.stream.started_wall,
        "cpu_s": end_cpu - replay.stream.started_cpu,
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ref_wall_s": (before[0] + after[0]) / 2,
        "ref_cpu_s": (before[1] + after[1]) / 2,
    }
    violations = []
    if profiler is not None:
        # Read before the outcome is assembled: that folds retained
        # requests benchmark-side, which is not the program's work.
        layers = layer_metrics(profiler, replay)
        violations += counter_checks(profiler, replay, layers)
        profiler.restore()
        out["layers"] = layers
        if args.spans_out:
            profiler.save_spans(args.spans_out)
    outcome = replay.outcome().to_json()
    outcome["violations"] += violations
    out["outcome"] = outcome
    print(json.dumps(out))


if __name__ == "__main__":
    main()

"""The repository benchmark: one command per workload, every metric named.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Untraced (``--trace 0``): replays the workload's fixed set of sub-seed
streams derived from ``--seed``, each in a fresh interpreter, then
repeats replays (cycling through the sub-seeds) while ``--seconds``
lasts; always at least one repeat.  Host metrics are medians over every
trial, the times among them at the reference speed of ``reference.py``
(the medians as measured are printed beside them); modelled metrics are
read from the distinct replays pooled together, and every repeat must
reproduce its first replay's modelled-outcome digest bit for bit.

Traced (``--trace 1``): replays sub-seed 0 untraced and then with the
layer wrappers of ``layers.py`` installed, pair after pair while
``--seconds`` lasts; reports per-layer metrics (medians over the traced
replays), the layer self-time shares and the tracing overhead (both at
the reference speed), and
checks that every replay gives the same digest and that the wrapper
counts equal the program's own counters.  Spans of the first traced
replay are written to ``out/<workload>-spans.npz``.

The last line of standard output is one JSON object with ``correct``,
``attempted`` (requests replayed), ``failed`` (requests of trials that
failed a check) and ``metrics``.  The exit code is 0 only if every
check passed; failed checks are printed on standard error as well.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark's own modules, even where the interpreter leaves the
# script's directory off the path.
sys.path.insert(0, HERE)

from reference import NOMINAL_S, at_reference_speed  # noqa: E402
OUT_DIR = os.path.join(HERE, "out")

#: Per workload: (share of the full 840 s / 900 s horizon one replay
#: covers, distinct replays per run).  The modelled metrics of a single
#: replay swing widely from seed to seed (queue backlogs, spill
#: cascades); pooling independent short replays steadies them far more
#: per host second than one long replay, and gives the host medians as
#: many samples.  The distinct replays take 30-34 s on a 2-core host,
#: which leaves room in a 40 s run for the host's slow stretches.
SHAPES = {
    "fleet_market": (0.25, 12),
    "fleet_overload": (0.15, 16),
    "pool_fig11_traced": (0.15, 12),
}

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "rss_peak_mb": ("MB", "lower"),
    "slo_attainment": ("ratio", "higher"),
    "ttft_p50_s": ("s", "lower"),
    "ttft_p99_s": ("s", "lower"),
    "tbt_p50_s": ("s", "lower"),
    "tbt_p99_s": ("s", "lower"),
    "request_served_frac": ("ratio", "higher"),
    "usd_per_mtok": ("USD/Mtok", "lower"),
}
#: Host times, reported at the reference speed.
SCALED = ("wall_s", "cpu_s", "setup_s")
HOST = SCALED + ("rss_peak_mb",)
#: Printed beside the end-to-end metrics.  The loss fraction is 0 on two
#: workloads, so the JSON result carries its complement,
#: ``request_served_frac``, which is never 0.
REPORTED = {**END_TO_END, "request_loss_frac": ("ratio", "lower")}

#: A run stops launching trials after this many seconds, whatever
#: ``--seconds`` asks, so it always ends well inside three minutes.
HARD_STOP_S = 150.0


def sub_seeds(seed: int, count: int) -> list:
    return [seed * 1000 + index for index in range(count)]


def _child_env() -> dict:
    # Inputs come from the seed alone: drop REPRO_* knobs (invariant
    # checking, observability level) that would change what runs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # One thread per trial: numeric libraries would otherwise start a
    # pool per core on a host whose cores are already shared.
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def run_trial(workload: str, seed: int, scale: float, trace: bool,
              timeout: float, spans_out: str = None) -> dict:
    """One trial in a fresh interpreter; raises RuntimeError on failure."""
    cmd = [sys.executable, os.path.join(HERE, "trial.py"),
           "--workload", workload, "--seed", str(seed), "--scale", repr(scale)]
    if trace:
        cmd.append("--trace")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"trial {workload}/{seed} timed out") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"trial {workload}/{seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise RuntimeError(f"trial {workload}/{seed} printed no result") from exc


def iqr_share(values: list) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


class Ledger:
    """Trials run so far, and every check that failed."""

    def __init__(self) -> None:
        self.trials = []
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def add(self, trial: dict, extra_problems=()) -> None:
        outcome = trial["outcome"]
        problems = list(outcome["violations"]) + list(extra_problems)
        self.trials.append(trial)
        pumped = outcome["counts"]["pumped"]
        self.attempted += pumped
        if problems:
            self.failed += pumped
            self.problems += [f"seed {trial['seed']}: {p}" for p in problems]

    def crash(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(message)


def untraced(workload: str, seed: int, seconds: float, start: float) -> tuple:
    from workloads import pooled_metrics

    scale, count = SHAPES[workload]
    seeds = sub_seeds(seed, count)
    ledger = Ledger()
    first = {}
    # Every distinct replay once, then repeats of them while the time
    # lasts; always at least one repeat, so every run checks a digest.
    for index in itertools.count():
        elapsed = time.perf_counter() - start
        if index:
            mean = elapsed / index
            if index > count and elapsed + mean > seconds:
                break
            if elapsed + 2 * mean > HARD_STOP_S:
                ledger.crash(f"{index} trials took {elapsed:.1f} s; stopped "
                             f"before the {count + 1} trials a run needs")
                return ledger, {}, {}
        sub = seeds[index % count]
        try:
            trial = run_trial(workload, sub, scale, False, HARD_STOP_S - elapsed)
        except RuntimeError as exc:
            ledger.crash(str(exc))
            return ledger, {}, {}
        extra = []
        if sub in first:
            want = first[sub]["outcome"]["digest"]
            if trial["outcome"]["digest"] != want:
                extra.append(f"digest {trial['outcome']['digest']} != first "
                             f"replay's {want}")
        else:
            first[sub] = trial
        ledger.add(trial, extra)
    metrics = {}
    spread = {}
    for name in HOST:
        values = [at_reference_speed(t, name) if name in SCALED else t[name]
                  for t in ledger.trials]
        metrics[name] = statistics.median(values)
        spread[name] = iqr_share(values)
    pooled = pooled_metrics([first[s]["outcome"] for s in seeds])
    for name in REPORTED:
        if name not in HOST:
            metrics[name] = pooled[name]
    return ledger, metrics, spread


def traced(workload: str, seed: int, seconds: float, start: float) -> tuple:
    from layers import LAYERS, PER_LAYER, PREDICTIONS

    scale, _ = SHAPES[workload]
    sub = sub_seeds(seed, 1)[0]
    ledger = Ledger()
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_out = os.path.join(OUT_DIR, f"{workload}-spans.npz")
    pairs = []
    # Untraced/traced pairs of one replay while the time lasts (at least
    # one): counts repeat exactly, times and the overhead are medians.
    for index in itertools.count():
        elapsed = time.perf_counter() - start
        if index and (elapsed * (index + 1) / index > seconds
                      or elapsed * (index + 2) / index > HARD_STOP_S):
            break
        try:
            plain = run_trial(workload, sub, scale, False, HARD_STOP_S - elapsed)
            trace = run_trial(workload, sub, scale, True,
                              HARD_STOP_S - (time.perf_counter() - start),
                              spans_out if index == 0 else None)
        except RuntimeError as exc:
            ledger.crash(str(exc))
            return ledger, {}, None
        want = pairs[0][0]["outcome"]["digest"] if pairs else plain["outcome"]["digest"]
        for trial in (plain, trace):
            got = trial["outcome"]["digest"]
            ledger.add(trial, [] if got == want else
                       [f"digest {got} (traced={trial['trace']}) != {want}"])
        pairs.append((plain, trace))
    layers = {name: statistics.median_low(t["layers"][name] for _, t in pairs)
              for name in pairs[0][1]["layers"]}
    plain_wall = statistics.median(at_reference_speed(p, "wall_s")
                                   for p, _ in pairs)
    layers["sim.steps_per_s"] = layers["sim.steps"] / plain_wall
    layers["trace.overhead"] = statistics.median(
        at_reference_speed(t, "wall_s") / at_reference_speed(p, "wall_s")
        for p, t in pairs)
    metrics = {name: layers[name] for name in PER_LAYER}
    missed = [name for name, p in PREDICTIONS.items()
              if workload in p.get("zero_on", ()) and metrics[name] != 0]
    shares = sorted(((metrics[f"{layer}.self_share"], layer) for layer in LAYERS),
                    reverse=True)
    report = {
        "workload": workload,
        "seed": sub,
        "pairs": len(pairs),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": statistics.median(at_reference_speed(t, "wall_s")
                                           for _, t in pairs),
        "overhead": layers["trace.overhead"],
        "layer_shares": [[layer, share] for share, layer in shares],
        "missed_zero_predictions": missed,
        "metrics": metrics,
        "spans_file": os.path.relpath(spans_out, ROOT),
    }
    with open(os.path.join(OUT_DIR, f"{workload}-layers.json"), "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return ledger, metrics, report


def _print_untraced(workload, seed, ledger, metrics, spread) -> None:
    scale, count = SHAPES[workload]
    print(f"{workload}: seed {seed}, {count} distinct replays at {scale:g}x "
          f"horizon, {len(ledger.trials)} trials (one fresh process each)")
    print(f"  {'metric':22s} {'value':>14s} {'unit':>9s}   spread over trials")
    for name, (unit, _) in REPORTED.items():
        note = (f"iqr/median {spread[name]:.4f}, n={len(ledger.trials)}"
                if name in spread else f"pooled over {count} replays")
        print(f"  {name:22s} {metrics[name]:14.6g} {unit:>9s}   {note}")
    trials = ledger.trials
    reference_s = statistics.median(t["ref_wall_s"] for t in trials)
    print(f"  host metrics: median over trials; times at the reference speed "
          f"(reference job {NOMINAL_S:g} s nominal, {reference_s:.4f} s here).")
    print("  as measured: " + ", ".join(
        f"{name} {statistics.median(t[name] for t in trials):.6g} s"
        for name in SCALED))
    print("  Latency quantiles are read from LatencyHistogram buckets "
          "(7.5% wide), interpolated.")


def _print_traced(report) -> None:
    from layers import PER_LAYER

    print(f"{report['workload']}: seed {report['seed']} replayed "
          f"{report['pairs']} times untraced and traced; medians over replays")
    print(f"  tracing overhead {report['overhead']:.3f}x "
          f"({report['traced_wall_s']:.3f} s traced / "
          f"{report['untraced_wall_s']:.3f} s untraced)")
    print("  layer self-time shares (traced replays):")
    for layer, share in report["layer_shares"]:
        print(f"    {layer:9s} {share:7.1%}")
    for name, value in report["metrics"].items():
        print(f"  {name:34s} {value:16.6g} {PER_LAYER[name]}")
    missed = report["missed_zero_predictions"]
    print("  zero predictions: " + ("all hold" if not missed
                                    else "MISSED " + ", ".join(missed)))


def main() -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro package under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(ROOT, "src"))

    if args.trace:
        from layers import PER_LAYER

        ledger, metrics, report = traced(args.workload, args.seed,
                                         args.seconds, start)
        if report:
            _print_traced(report)
        units = PER_LAYER
    else:
        ledger, metrics, spread = untraced(
            args.workload, args.seed, args.seconds, start)
        if metrics:
            _print_untraced(args.workload, args.seed, ledger, metrics, spread)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    for problem in ledger.problems:
        print(f"CHECK FAILED: {problem}")
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not ledger.problems and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: predictions, checks and the refusal path.

    python3 -m pytest perfbench -q

Replays run at a tenth of a workload's horizon so the suite stays quick;
the predicted zeros and the counter identities do not depend on length.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

from layers import PER_LAYER, PREDICTIONS  # noqa: E402
from reference import NOMINAL_S, at_reference_speed  # noqa: E402
from spread import DEFAULT_SEED, HELD_OUT_SEED  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, PacedStream, hist_quantile, pooled_metrics)

from repro.fleet import LatencyHistogram  # noqa: E402
from repro.models import market_mix  # noqa: E402
from repro.workload import stream_trace  # noqa: E402

SMALL = 0.1


def trial(workload: str, seed: int, trace: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "trial.py"), "--workload",
           workload, "--seed", str(seed), "--scale", str(SMALL)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_pair(request):
    workload = request.param
    return workload, trial(workload, 3), trial(workload, 3, trace=True)


def test_traced_run_matches_untraced_and_program_counters(traced_pair):
    _, plain, traced = traced_pair
    assert traced["outcome"]["digest"] == plain["outcome"]["digest"]
    assert plain["outcome"]["violations"] == []
    assert traced["outcome"]["violations"] == []
    for result in (plain, traced):
        assert result["ref_wall_s"] > 0 and result["ref_cpu_s"] > 0
        assert result["setup_s"] > 0


def test_every_per_layer_metric_is_reported(traced_pair):
    _, _, traced = traced_pair
    derived = {"sim.steps_per_s", "trace.overhead"}
    assert set(PER_LAYER) - derived <= set(traced["layers"])
    assert set(PREDICTIONS) == set(PER_LAYER)


def test_predicted_zeros_read_zero(traced_pair):
    workload, _, traced = traced_pair
    zero = [name for name, p in PREDICTIONS.items()
            if workload in p.get("zero_on", ())]
    assert zero
    assert {name: traced["layers"][name] for name in zero} == dict.fromkeys(zero, 0)


def test_layers_that_should_work_do(traced_pair):
    workload, _, traced = traced_pair
    layers = traced["layers"]
    assert layers["memory.slab_alloc_calls"] > 0
    assert layers["transfer.swap_calls"] > 0
    if workload == "fleet_overload":
        assert layers["core.admission_pressure_calls"] > 0
        assert layers["fleet.spills"] > 0
    if workload == "pool_fig11_traced":
        assert layers["obs.spans_recorded"] > 0


def test_modelled_metrics_change_with_the_seed():
    for workload in WORKLOADS:
        default = trial(workload, DEFAULT_SEED)["outcome"]["modelled"]
        held_out = trial(workload, HELD_OUT_SEED)["outcome"]["modelled"]
        assert default["slo_attainment"] != held_out["slo_attainment"]
        assert default["ttft_p50_s"] != held_out["ttft_p50_s"]


def test_pooling_one_replay_gives_its_own_metrics():
    outcome = trial("fleet_market", 5)["outcome"]
    assert pooled_metrics([outcome]) == outcome["modelled"]


def test_paced_stream_flags_a_late_submission():
    class Clock:
        now = 0.0

    clock = Clock()
    paced = PacedStream(stream_trace(market_mix(2), [1.0, 1.0], horizon=10.0,
                                     seed=1), clock)
    for request in paced:
        clock.now = request.arrival + (0.5 if paced.generated == 3 else 0.0)
    assert paced.generated > 3
    assert paced.late == 1
    assert paced.max_lateness == 0.5


def test_times_are_scaled_by_the_matching_reference_clock():
    trial = {"wall_s": 2.0, "cpu_s": 1.5, "setup_s": 0.4,
             "ref_wall_s": 2 * NOMINAL_S, "ref_cpu_s": 3 * NOMINAL_S}
    assert at_reference_speed(trial, "wall_s") == pytest.approx(1.0)
    assert at_reference_speed(trial, "cpu_s") == pytest.approx(0.5)
    assert at_reference_speed(trial, "setup_s") == pytest.approx(0.2)


def test_reference_job_runs_no_program_code():
    code = ("import sys, reference; wall, cpu = reference.reference(); "
            "assert wall > 0 and cpu > 0; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'repro']")
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                   timeout=60)


def test_hist_quantile_stays_in_the_bucket():
    hist = LatencyHistogram()
    values = [0.01 * 1.013 ** i for i in range(500)]
    for value in values:
        hist.observe(value)
    for q in (0.1, 0.5, 0.9, 0.99):
        exact = sorted(values)[round(q * (len(values) - 1))]
        assert abs(hist_quantile(hist, q) / exact - 1) < 0.075
        assert abs(hist_quantile(hist, q) / hist.quantile(q) - 1) < 0.075


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "fleet_market", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

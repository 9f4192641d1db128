"""The benchmark's own self-tests, at a tiny input size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calibrate
import layers
import run
import workloads as W
from repro.control.gate import control_switch_factory
from repro.fabric.scenario import fabric_scenario_factory
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.simnet.scenarios import run_scenario
from tracer import ROOT, Tracer

HERE = Path(__file__).resolve().parent
#: Tiny input sizes: seconds of plant time, or packets.
TINY = {"fig8_plant": 0.3, "switch_learned": 2048,
        "switch_classes": 1536, "fabric_churn": 2048}


def episode(name: str, seed: int = 0, tracer=None, **kwargs):
    """One episode of a tiny workload on traffic seed ``seed``."""
    wl = W.make_workload(name, TINY[name])
    for key, value in kwargs.items():
        setattr(wl, key, value)
    inputs = wl.inputs(wl.stream(seed))
    system = wl.build(inputs, tracer)
    clock = W.StepClock(tracer)
    try:
        wl.run(system, inputs, clock)
        return wl.outputs(system, inputs), clock
    finally:
        wl.close(system)


def codes_of(report):
    codes = np.array([W._CODE_OF[W.Verdict(v)] for v in report.verdicts],
                     dtype=np.uint8)
    ports = np.array([-1 if p is None else p for p in report.ports],
                     dtype=np.int16)
    return W.verdict_digest(codes, ports)


# ----------------------------------------------------------------------
# The slice loops reproduce the library's own runners
# ----------------------------------------------------------------------
def test_fig8_stepping_reproduces_dumbbell_run():
    wl = W.make_workload("fig8_plant", TINY["fig8_plant"])
    experiment = wl.stream(0)
    whole = experiment.run(PCAMAQM(
        rng=np.random.default_rng(W.SYSTEM_SEED)))
    out, clock = episode("fig8_plant")
    assert np.array_equal(out.sojourns_s, whole.recorder.sojourn_times)
    assert out.lost == whole.queue.aqm_drops + whole.queue.overflow_drops
    assert len(clock.step_ns) == 30
    assert out.offered == clock.packets > 0


def test_switch_classes_loop_reproduces_run_scenario():
    n = TINY["switch_classes"]
    report = run_scenario("traffic_classes", seed=0, n_packets=n,
                          spec=W.traffic_classes_spec(),
                          collect_results=True)
    out, _ = episode("switch_classes")
    assert out.verdicts == codes_of(report)
    assert out.joules == report.energy_total_j
    assert not out.problems


def test_switch_learned_loop_reproduces_run_scenario():
    n = TINY["switch_learned"]
    report = run_scenario(
        "flash_crowd", seed=0, n_packets=n, spec=W._learned_spec(),
        collect_results=True,
        processor_factory=control_switch_factory(
            learned=True, start_target_s=0.020, start_deviation_s=0.010))
    out, _ = episode("switch_learned")
    assert out.verdicts == codes_of(report)
    assert out.joules == report.energy_total_j
    assert out.counters["decisions"] > 0


def test_fabric_loop_reproduces_run_scenario():
    n = TINY["fabric_churn"]
    report = run_scenario(
        "cache_churn", seed=0, n_packets=n, collect_results=True,
        processor_factory=fabric_scenario_factory(
            2, mode="multiprocessing"))
    out, _ = episode("fabric_churn", commit_every=0)
    assert out.verdicts == codes_of(report)
    assert out.joules == report.energy_total_j


# ----------------------------------------------------------------------
# Determinism: same seed repeats, another seed differs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_repeats_and_other_seed_differs(name):
    first, _ = episode(name)
    again, _ = episode(name)
    other, _ = episode(name, seed=1)
    assert first.reference() == again.reference()
    assert np.array_equal(first.sojourns_s, again.sojourns_s)
    assert (first.offered, first.lost) == (again.offered, again.lost)
    assert first.digest != other.digest
    assert not first.problems


# ----------------------------------------------------------------------
# Tracing observes without changing, and its accounting closes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(TINY))
def test_tracing_is_transparent_and_accounting_closes(name):
    plain, _ = episode(name)
    tracer = Tracer(record_spans=True)
    traced, clock = episode(name, tracer=tracer)
    assert traced.reference() == plain.reference()
    assert np.array_equal(traced.sojourns_s, plain.sojourns_s)

    spans = {span[0]: span for span in tracer.spans}
    for span_id, parent, name_, start, end in tracer.spans:
        assert start <= end
        if parent:
            _, _, _, p_start, p_end = spans[parent]
            assert p_start <= start and end <= p_end, name_
        else:
            assert name_ == ROOT, f"{name_} ran outside a step"
    assert tracer.calls(ROOT) == len(clock.step_ns)
    # Layer self times plus the unattributed root time are the wall.
    assert sum(layers.layer_self_ns(tracer).values()) == tracer.wall_ns()
    assert set(tracer.stats) <= set(layers.LAYER_OF)


def test_per_layer_reports_every_metric():
    tracer = Tracer()
    out, clock = episode("switch_learned", tracer=tracer)
    metrics = layers.per_layer(
        tracer, [run.Episode(0, 0.0, clock, out)])
    assert list(metrics) == list(layers.PER_LAYER)
    assert metrics["control.loop.decisions"]["value"] > 0
    assert metrics["netfunc.aqm.evaluations"]["value"] == out.evaluations
    assert metrics["fabric.commits"]["value"] == 0
    assert 0.0 <= metrics["unattributed_share"]["value"] < 1.0


# ----------------------------------------------------------------------
# Resource hygiene
# ----------------------------------------------------------------------
def test_fabric_leaves_no_shm_segments_or_workers():
    before = set(os.listdir("/dev/shm"))
    out, _ = episode("fabric_churn", tracer=Tracer(), commit_every=2)
    assert out.counters["commits"] > 0
    assert W.live_workers() == 0
    assert set(os.listdir("/dev/shm")) <= before


def test_pipe_echo_child_is_joined():
    with calibrate.PipeEcho() as echo:
        assert W.live_workers() == 1
        assert echo.round_trips_ns() > 0
        assert calibrate.scale(echo) > 0.0
    assert W.live_workers() == 0


# ----------------------------------------------------------------------
# The command line
# ----------------------------------------------------------------------
def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_metric(trace):
    proc = _cli(HERE.parent, "--workload", "switch_classes", "--seed",
                "3", "--seconds", "0", "--trace", trace, "--size",
                str(TINY["switch_classes"]))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = layers.PER_LAYER if trace == "1" else \
        json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = ({m["name"] for m in expected["end_to_end"]}
             if trace == "0" else set(expected) | {"trace_overhead"})
    assert set(result["metrics"]) == names
    facts = json.loads(lines[-2])
    assert facts["host"]["seed"] == 3


def test_cli_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(tmp_path, "--workload", "fig8_plant", "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_cli_fabric_calibrates_round_trips_and_joins_children():
    proc = _cli(HERE.parent, "--workload", "fabric_churn", "--seconds",
                "0", "--trace", "0", "--size", str(TINY["fabric_churn"]))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[-1])["correct"]
    facts = json.loads(lines[-2])
    assert facts["host"]["calibration"] == "kernel+round_trips"
    assert facts["run"]["workers_left"] == 0

"""The repository benchmark: one workload, one run, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig8_plant --seed 0 \\
        --seconds 30 --trace 0

A run builds the workload's system from ``src/`` and runs fixed-size
episodes until ``--seconds`` are spent.  Episode ``j`` takes its inputs
from traffic seed ``seed * K + j % K``, where ``K`` is the workload's
``streams``: a run covers ``K`` distinct input streams (the simulated
metrics pool them) and then repeats them.

Host time on a shared machine swings by 2x with other tenants' load,
so every host time is scaled to a reference host speed measured by an
interleaved calibration kernel (``calibrate.py``; for the fabric it
also times pipe round trips to an echo child), and each step's
time is the lower quartile over the run's repetitions of that
identical step (same stream, same step index), which other tenants'
bursts move less than the median: throughput is packets per pass over
the streams divided by the summed per-step times, and the step
quantiles are taken over the per-step times.  The unscaled figures
are printed on the run-facts line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends
half the time untraced and half traced (public methods of the built
objects wrapped from outside, see ``tracer.py``) and reports the
per-layer metrics plus the tracing overhead.  Episodes on the same
stream, traced or not, must produce identical outputs, equal to the
stored reference when there is one; anything else marks the episode's
steps as failed.

The last stdout line is the result object; the line before it holds
the host facts.  ``--write-reference`` recomputes ``reference.json``
for the reference seeds instead of measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
#: Seeds whose outputs are stored: the default and a held-out one.
REFERENCE_SEEDS = (0, 7)
#: Set-up is repeated at least this often per run (median reported).
SETUP_SAMPLES = 5


def _import_library():
    """Put ``src/`` on the path and import the benchmark modules."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import layers
    import workloads
    return workloads, layers


def host_facts(wl, seed: int) -> dict:
    import importlib.util

    import numpy
    from repro.core import pcam_fold

    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "numexpr": importlib.util.find_spec("numexpr") is not None,
        "pcam_fold_lowering": pcam_fold.LOWERING,
        "workload": wl.name,
        "seed": seed,
        "input_size": wl.size,
        "streams": wl.streams,
        "calibration": "kernel+round_trips"
        if getattr(wl, "round_trip_bound", False) else "kernel",
    }
    if hasattr(wl, "n_shards"):
        facts.update(fabric_mode=wl.mode, fabric_shards=wl.n_shards)
    return facts


class Episode:
    """One episode's measurements and outputs."""

    def __init__(self, stream, setup_s, clock, outputs,
                 error=None) -> None:
        self.stream = stream
        self.setup_s = setup_s
        self.clock = clock
        self.outputs = outputs
        self.error = error

    @property
    def steps(self) -> int:
        return len(self.clock.step_ns)


class Runner:
    """Runs episodes of one workload on one seed's streams."""

    def __init__(self, wl, workloads, seed: int, echo=None) -> None:
        self.wl = wl
        self.workloads = workloads
        self.seed = seed
        self.echo = echo
        self._streams: dict[int, object] = {}

    def stream(self, index: int):
        if index not in self._streams:
            self._streams[index] = self.wl.stream(
                self.seed * self.wl.streams + index)
        return self._streams[index]

    def episode(self, index: int, tracer=None) -> Episode:
        """Copy inputs (untimed), build (timed), step, collect, close."""
        wl = self.wl
        inputs = wl.inputs(self.stream(index))
        clock = self.workloads.StepClock(tracer, self.echo)
        scale = clock.calibrate()
        start = time.perf_counter()
        system = wl.build(inputs, tracer)
        setup_s = (time.perf_counter() - start) * scale
        try:
            wl.run(system, inputs, clock)
            outputs = wl.outputs(system, inputs)
        except Exception as exc:  # counted as failed steps, not a crash
            return Episode(index, setup_s, clock, None,
                           error=f"{type(exc).__name__}: {exc}")
        finally:
            wl.close(system)
        return Episode(index, setup_s, clock, outputs)

    def episodes(self, seconds: float, min_episodes: int,
                 tracer=None) -> list[Episode]:
        """Episodes cycling the streams until ``seconds`` are spent."""
        done: list[Episode] = []
        started = time.perf_counter()
        while True:
            done.append(self.episode(len(done) % self.wl.streams, tracer))
            spent = time.perf_counter() - started
            if len(done) >= min_episodes \
                    and spent * (len(done) + 1) / len(done) > seconds:
                return done

    def setup_sample(self) -> float:
        """Time one more build of stream 0's system, then close it."""
        inputs = self.wl.inputs(self.stream(0))
        scale = self.workloads.StepClock(echo=self.echo).calibrate()
        start = time.perf_counter()
        system = self.wl.build(inputs)
        elapsed = (time.perf_counter() - start) * scale
        self.wl.close(system)
        return elapsed


def load_reference(wl, seed: int) -> list | None:
    """Stored outputs per stream for (workload, seed), if any."""
    if not REFERENCE.is_file():
        return None
    entry = json.loads(REFERENCE.read_text()).get(wl.name, {})
    if entry.get("size") != wl.size:
        return None
    return entry["seeds"].get(str(seed))


def check(episodes: list[Episode], expected: list | None
          ) -> tuple[int, list[str]]:
    """(steps failed, reasons): errors, invariants, drift, reference."""
    failed, reasons = 0, []
    first: dict[int, dict] = {}
    for e in episodes:
        if e.outputs is not None:
            first.setdefault(e.stream, e.outputs.reference())
    for index, episode in enumerate(episodes):
        problems = []
        if episode.error is not None:
            problems.append(episode.error)
        else:
            out = episode.outputs.reference()
            problems.extend(episode.outputs.problems)
            if out != first[episode.stream]:
                problems.append(f"outputs differ from the first episode "
                                f"on stream {episode.stream}")
            if expected is not None and out != expected[episode.stream]:
                problems.append(f"outputs {out} differ from the stored "
                                f"reference {expected[episode.stream]}")
        if problems:
            failed += max(episode.steps, 1)
            reasons.extend(f"episode {index}: {p}" for p in problems)
    return failed, reasons


def step_times(episodes: list[Episode], scaled: bool = True):
    """(packets per pass, per-step lower-quartile ns over repetitions)."""
    import numpy as np

    by_stream: dict[int, list[Episode]] = {}
    for e in episodes:
        by_stream.setdefault(e.stream, []).append(e)
    packets = 0
    times = []
    for reps in by_stream.values():
        packets += reps[0].clock.packets
        times.append(np.percentile(
            [e.clock.scaled_ns if scaled else e.clock.step_ns
             for e in reps], 25, axis=0))
    return packets, np.concatenate(times)


def throughput_pps(episodes: list[Episode], scaled: bool = True) -> float:
    packets, times = step_times(episodes, scaled)
    return packets / (float(times.sum()) / 1e9)


def peak_rss_mb(n_workers: int) -> float:
    """High-water RSS of this process plus its reaped fabric workers.

    ``RUSAGE_CHILDREN`` reports the largest reaped child, so the
    workers' share is that times the worker count (an upper bound).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss \
        if n_workers else 0
    return (own + n_workers * child) / 1024.0


def tail_mean(values, share: float) -> float:
    """Mean of the largest ``share`` of ``values`` (at least one).

    The switch workloads drain egress once per admission slice, so
    their sojourns sit on an 8.5 ms grid and a high order statistic
    jumps a whole tick between inputs; the tail mean moves smoothly.
    """
    import numpy as np

    ordered = np.sort(np.asarray(values))
    return float(ordered[-max(1, int(len(ordered) * share)):].mean())


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(wl, episodes: list[Episode], setups: list[float]) -> dict:
    """The end-to-end metrics; simulated ones pool the distinct streams."""
    import numpy as np

    pooled = [e.outputs for e in episodes[:wl.streams]]
    offered = sum(o.offered for o in pooled)
    lost = sum(o.lost for o in pooled)
    joules = sum(o.joules for o in pooled)
    sojourn_ms = np.concatenate([o.sojourns_s for o in pooled]) * 1e3
    _, times = step_times(episodes)
    steps_ms = times / 1e6
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "throughput_pps": _metric(throughput_pps(episodes), "pkt/s"),
        "step_ms_p50": _metric(np.percentile(steps_ms, 50), "ms"),
        "step_ms_p95": _metric(np.percentile(steps_ms, 95), "ms"),
        "sim_delay_p50_ms": _metric(np.percentile(sojourn_ms, 50), "ms"),
        "sim_delay_tail1_ms": _metric(tail_mean(sojourn_ms, 0.01), "ms"),
        "kept_rate": _metric(1.0 - lost / offered, "share"),
        "energy_fj_per_pkt": _metric(joules / offered * 1e15, "fJ/pkt"),
        "peak_rss_mb": _metric(
            peak_rss_mb(getattr(wl, "n_shards", 0)), "MB"),
    }


def measure(args, runner: Runner, layers) -> tuple[list, dict, dict]:
    """Run the episodes for one invocation; (episodes, metrics, info)."""
    seconds = float(args.seconds)
    if not args.trace:
        episodes = runner.episodes(seconds, runner.wl.streams)
        setups = [e.setup_s for e in episodes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.setup_sample())
        ok = all(e.outputs for e in episodes)
        metrics = end_to_end(runner.wl, episodes, setups) if ok else {}
        info = {"setup_samples": len(setups)}
        if ok:
            info["unscaled_throughput_pps"] = throughput_pps(episodes,
                                                             False)
        return episodes, metrics, info
    from tracer import Tracer

    plain = runner.episodes(seconds / 2, 1)
    tracer = Tracer()
    traced = runner.episodes(seconds / 2, 1, tracer)
    metrics = {}
    if all(e.outputs for e in plain + traced):
        metrics = layers.per_layer(tracer, traced)
        overhead = throughput_pps(plain) / throughput_pps(traced)
        metrics["trace_overhead"] = _metric(overhead, "x")
    return plain + traced, metrics, {"traced_episodes": len(traced)}


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory tracker the fabric's workers use.

    ``multiprocessing`` leaves it running until the interpreter exits;
    the benchmark waits for every process it started before it ends.
    """
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None),
                   "_stop", None)
    if stop is not None:
        stop()


def write_reference(workloads) -> None:
    document = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make_workload(name)
        seeds = {}
        for seed in REFERENCE_SEEDS:
            runner = Runner(wl, workloads, seed)
            streams = []
            for index in range(wl.streams):
                episode = runner.episode(index)
                problem = episode.error or (episode.outputs.problems
                                            or None)
                if problem:
                    raise SystemExit(f"{name} seed {seed} stream "
                                     f"{index}: {problem}")
                streams.append(episode.outputs.reference())
                print(f"{name} seed {seed} stream {index}: "
                      f"{streams[-1]}", flush=True)
            seeds[str(seed)] = streams
        document[name] = {"size": wl.size, "seeds": seeds}
    REFERENCE.write_text(json.dumps(document, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="fig8_plant")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=float, default=None,
                        help="input size override (tiny self-test runs)")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    workloads, layers = _import_library()
    if args.write_reference:
        write_reference(workloads)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    wl = workloads.make_workload(args.workload, args.size)
    import calibrate
    with calibrate.PipeEcho() if getattr(wl, "round_trip_bound", False) \
            else contextlib.nullcontext() as echo:
        runner = Runner(wl, workloads, args.seed, echo)
        episodes, metrics, info = measure(args, runner, layers)
    expected = load_reference(wl, args.seed)
    failed, reasons = check(episodes, expected)
    for reason in reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    first = next((e.outputs for e in episodes if e.outputs), None)
    info.update(episodes=len(episodes),
                step_samples=sum(e.steps for e in episodes),
                reference_checked=expected is not None,
                compiled=first.counters.get("compiled") if first else None,
                workers_left=workloads.live_workers())
    stop_resource_tracker()
    print(json.dumps({"host": host_facts(wl, args.seed), "run": info}))
    print(json.dumps({"correct": not reasons and bool(metrics),
                      "attempted": sum(max(e.steps, 1) for e in episodes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

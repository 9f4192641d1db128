"""End-to-end dataplane throughput: staged batch and compiled kernel.

Not a paper artifact — this pins the engineering payoff of two
tentpoles: pushing a 10k-packet mixed-flow trace through the full
Figure 5 pipeline (parser fields -> firewall ACL -> LPM route ->
per-port AQM) with ``process_batch`` versus looping per-packet
``process`` (the staged columnar fast path), and the same trace
through the fused chunk kernel the pipeline compiler emits
(byte-identical results).  Compilation is the default for every
``build_switch`` product, staged only when the compiler refuses; the
processors here are assembled by hand, so the staged walk stays
measurable and the compiled pass asks for the kernel with
``request_compile``.  Measured numbers land
in ``BENCH_fastpath.json`` / ``BENCH_fastpath_compiled.json`` so CI
can archive them, and each speedup is gated against its committed
baseline: a >20% regression of the advantage fails the run.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.dataplane.pipeline import AnalogPacketProcessor
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.netfunc.firewall import Action, FirewallRule
from repro.packet import Packet

N_PACKETS = 10_000
CHUNK_SIZE = 256
RESULT_PATH = Path(__file__).parent / "BENCH_fastpath.json"
BASELINE_PATH = Path(__file__).parent / "BENCH_fastpath_baseline.json"
COMPILED_RESULT_PATH = Path(__file__).parent / \
    "BENCH_fastpath_compiled.json"
COMPILED_BASELINE_PATH = Path(__file__).parent / \
    "BENCH_fastpath_compiled_baseline.json"

#: Mixed flows: three routed prefixes, one denied prefix, one
#: unrouted prefix, and the occasional destination-less packet.
DST_POOL = [
    "10.1.2.3", "10.1.2.4", "10.200.0.1",
    "192.168.7.7", "192.168.9.1",
    "172.16.0.5", "172.16.3.3",
    "203.0.113.9", "203.0.113.10",
    "198.51.100.1",
    None,
]
SRC_POOL = ["1.2.3.4", "5.6.7.8", "9.10.11.12", "13.14.15.16"]


def build_processor(aqm_seed: int = 11) -> AnalogPacketProcessor:
    processor = AnalogPacketProcessor(
        n_ports=3,
        aqm_factory=lambda: PCAMAQM(rng=np.random.default_rng(aqm_seed)))
    processor.add_firewall_rule(FirewallRule(
        action=Action.DENY, dst_prefix="203.0.113.0/24"))
    processor.add_route("10.0.0.0/8", 0)
    processor.add_route("192.168.0.0/16", 1)
    processor.add_route("172.16.0.0/12", 2)
    return processor


def make_trace(n: int = N_PACKETS, seed: int = 29) -> list[Packet]:
    rng = np.random.default_rng(seed)
    packets = []
    for _ in range(n):
        fields = {"src_ip": SRC_POOL[int(rng.integers(len(SRC_POOL)))],
                  "src_port": int(rng.integers(1024, 1032)),
                  "dst_port": int(rng.integers(80, 84)),
                  "protocol": int(rng.choice([6, 17]))}
        dst = DST_POOL[int(rng.integers(len(DST_POOL)))]
        if dst is not None:
            fields["dst_ip"] = dst
        packets.append(Packet(size_bytes=int(rng.integers(64, 1500)),
                              priority=int(rng.random() < 0.3),
                              fields=fields))
    return packets


def _time(fn, repeats: int = 3) -> float:
    """Best-of-N wall-clock of one call [s]."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_fastpath_speedup_and_regression_gate():
    """>= 5x over per-packet processing, and no drift vs baseline."""
    packets = make_trace()

    # Each pass gets a fresh processor: queue backlogs and telemetry
    # are stateful, so re-running on a warm one would measure a
    # different workload.
    def scalar_pass():
        processor = build_processor()
        return processor, [processor.process(p, now=0.5)
                           for p in packets]

    def batch_pass():
        processor = build_processor()
        return processor, processor.process_batch(
            packets, now=0.5, chunk_size=CHUNK_SIZE)

    _, reference = scalar_pass()
    _, fast = batch_pass()
    assert [r.verdict for r in fast] == [r.verdict for r in reference]
    assert [r.port for r in fast] == [r.port for r in reference]

    scalar_s = _time(scalar_pass, repeats=1)
    batch_s = _time(batch_pass, repeats=3)
    speedup = scalar_s / batch_s

    report = {
        "n_packets": N_PACKETS,
        "chunk_size": CHUNK_SIZE,
        "scalar_s": round(scalar_s, 4),
        "batch_s": round(batch_s, 4),
        "scalar_pps": round(N_PACKETS / scalar_s),
        "batch_pps": round(N_PACKETS / batch_s),
        "speedup": round(speedup, 2),
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print(f"\n=== dataplane fast path ({N_PACKETS} packets) ===")
    print(f"{'path':>10}{'wall [s]':>14}{'packets/s':>16}")
    print(f"{'scalar':>10}{scalar_s:>14.4f}{N_PACKETS / scalar_s:>16,.0f}")
    print(f"{'batch':>10}{batch_s:>14.4f}{N_PACKETS / batch_s:>16,.0f}")
    print(f"speedup: {speedup:.1f}x")

    assert speedup >= 5.0

    # The baseline stores the speedup *ratio*, not wall-clock, so the
    # gate is machine-independent: fail only if the batch advantage
    # itself eroded by more than 20%.
    baseline = json.loads(BASELINE_PATH.read_text())
    floor = 0.8 * baseline["speedup"]
    assert speedup >= floor, (
        f"fast-path speedup regressed: {speedup:.1f}x < "
        f"{floor:.1f}x (80% of baseline {baseline['speedup']:.1f}x)")


def test_compiled_kernel_speedup_and_regression_gate():
    """The fused kernel: exact results, gated gains over both paths.

    The compiled run must return byte-identical verdicts/ports to the
    staged batch run (the golden tests pin telemetry and energy too),
    beat it by the committed staged-vs-compiled floor, and hold the
    committed end-to-end (scalar-vs-compiled) advantage within 20%.
    """
    packets = make_trace()

    def scalar_pass():
        processor = build_processor()
        return processor, [processor.process(p, now=0.5)
                           for p in packets]

    def batch_pass():
        processor = build_processor()
        return processor, processor.process_batch(
            packets, now=0.5, chunk_size=CHUNK_SIZE)

    def compiled_pass():
        processor = build_processor()
        plan = processor.request_compile()
        assert plan.fused, plan.reasons
        return processor, processor.process_batch(
            packets, now=0.5, chunk_size=CHUNK_SIZE)

    _, reference = batch_pass()
    compiled_processor, fused = compiled_pass()
    assert [r.verdict for r in fused] == \
        [r.verdict for r in reference]
    assert [r.port for r in fused] == [r.port for r in reference]

    scalar_s = _time(scalar_pass, repeats=1)
    batch_s = _time(batch_pass, repeats=3)
    compiled_s = _time(compiled_pass, repeats=3)
    vs_staged = batch_s / compiled_s
    vs_scalar = scalar_s / compiled_s

    report = {
        "n_packets": N_PACKETS,
        "chunk_size": CHUNK_SIZE,
        "lowering": compiled_processor.compiled_plan.lowering,
        "scalar_s": round(scalar_s, 4),
        "staged_batch_s": round(batch_s, 4),
        "compiled_s": round(compiled_s, 4),
        "compiled_pps": round(N_PACKETS / compiled_s),
        "speedup_vs_staged": round(vs_staged, 2),
        "speedup_vs_scalar": round(vs_scalar, 2),
    }
    COMPILED_RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print(f"\n=== compiled kernel ({N_PACKETS} packets, "
          f"{report['lowering']} lowering) ===")
    print(f"{'path':>10}{'wall [s]':>14}{'packets/s':>16}")
    print(f"{'scalar':>10}{scalar_s:>14.4f}"
          f"{N_PACKETS / scalar_s:>16,.0f}")
    print(f"{'staged':>10}{batch_s:>14.4f}"
          f"{N_PACKETS / batch_s:>16,.0f}")
    print(f"{'compiled':>10}{compiled_s:>14.4f}"
          f"{N_PACKETS / compiled_s:>16,.0f}")
    print(f"vs staged: {vs_staged:.2f}x   vs scalar: {vs_scalar:.1f}x")

    baseline = json.loads(COMPILED_BASELINE_PATH.read_text())
    assert vs_staged >= baseline["speedup_vs_staged"], (
        f"compiled kernel no longer beats the staged walk: "
        f"{vs_staged:.2f}x < committed floor "
        f"{baseline['speedup_vs_staged']:.2f}x")
    floor = 0.8 * baseline["speedup_vs_scalar"]
    assert vs_scalar >= floor, (
        f"compiled end-to-end speedup regressed: {vs_scalar:.1f}x < "
        f"{floor:.1f}x (80% of baseline "
        f"{baseline['speedup_vs_scalar']:.1f}x)")

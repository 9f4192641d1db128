"""The analog constant-folding pass (:mod:`repro.core.pcam_fold`).

The fold is only legal when a single scalar evaluation broadcast over
a uniform chunk is *bit-identical* to the batch kernel — so these
tests are mostly about refusals and exact equality: property tests
pin ``evaluate_uniform`` against ``evaluate_batch`` over uniform
columns (including degenerate zero-width ramps and non-canonical
slopes), gating tests pin every documented refusal, and the AQM
section pins that every pCAM AQM folds by default, demotes a chunk
to the batch kernel whenever the fold cannot prove exactness, and is
indistinguishable from the batch kernel in decisions, counters,
energy and ``last_pdp``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pcam_cell import PCAMCell, PCAMParams, prog_pcam
from repro.core.pcam_fold import (
    LOWERING,
    FoldedPCAMPipeline,
    fold_pipeline,
)
from repro.core.pcam_pipeline import PCAMPipeline
from repro.crossbar.converters import DAC
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.observability.hub import Observability
from repro.packet import Packet
from repro.robustness import FaultInjector, StuckAtFault

P1 = prog_pcam(0.0, 1.0, 2.0, 3.0)
P2 = prog_pcam(-1.0, 0.5, 1.5, 2.5)
P3 = prog_pcam(0.2, 0.9, 1.1, 1.8)


def make_pipeline(composition="product", params=(P1, P2, P3)):
    return PCAMPipeline.from_params(
        {f"s{i}": p for i, p in enumerate(params)},
        composition=composition)


@st.composite
def arbitrary_params(draw):
    """Valid params, canonical slopes NOT required, ramps may be
    degenerate (zero width) — the branches the fold must mirror."""
    m1 = draw(st.floats(-10.0, 10.0, allow_nan=False))
    gap1 = draw(st.floats(0.0, 5.0))
    gap2 = draw(st.floats(0.0, 5.0))
    gap3 = draw(st.floats(0.0, 5.0))
    pmin = draw(st.floats(0.0, 0.5))
    pmax = draw(st.floats(0.5, 1.0))
    sa = draw(st.floats(-20.0, 20.0, allow_nan=False))
    sb = draw(st.floats(-20.0, 20.0, allow_nan=False))
    return PCAMParams(m1=m1, m2=m1 + gap1, m3=m1 + gap1 + gap2,
                      m4=m1 + gap1 + gap2 + gap3, sa=sa, sb=sb,
                      pmax=pmax, pmin=pmin)


class TestGating:
    @pytest.mark.parametrize("composition",
                             ["product", "min", "geometric"])
    def test_sequential_compositions_fold(self, composition):
        folded = fold_pipeline(make_pipeline(composition))
        assert isinstance(folded, FoldedPCAMPipeline)
        assert len(folded) == 3

    def test_mean_composition_refused(self):
        # np.add.reduce pairwise-summation order depends on operand
        # contiguity, so uniform-broadcast equality is unprovable.
        assert fold_pipeline(make_pipeline("mean")) is None

    def test_tracer_or_profiler_refused(self):
        pipeline = make_pipeline()
        pipeline.tracer = object()
        assert fold_pipeline(pipeline) is None
        pipeline.tracer = None
        pipeline.profiler = object()
        assert fold_pipeline(pipeline) is None

    def test_faulted_cell_refused(self):
        pipeline = make_pipeline()
        FaultInjector(StuckAtFault(state="hrs"), cell_fraction=1.0,
                      rng=np.random.default_rng(3)) \
            .inject_pipeline(pipeline)
        assert fold_pipeline(pipeline) is None

    def test_nonlinear_cell_refused(self):
        pipeline = PCAMPipeline({
            "a": PCAMCell(P1),
            "b": PCAMCell(prog_pcam(0.0, 1.0, 2.0, 3.0),
                          nonlinearity="sigmoid")})
        assert fold_pipeline(pipeline) is None

    def test_subclassed_cell_refused(self):
        class DeviceishCell(PCAMCell):
            pass

        pipeline = PCAMPipeline({"a": DeviceishCell(P1)})
        assert fold_pipeline(pipeline) is None

    def test_lowering_reported(self):
        # The hermetic CI container has no numba; either way the
        # module constant and the fold must agree.
        folded = fold_pipeline(make_pipeline())
        assert LOWERING in ("numba", "python")
        assert folded.lowering in ("numba", "python")


class TestExactness:
    @pytest.mark.parametrize("composition",
                             ["product", "min", "geometric"])
    @settings(max_examples=120, deadline=None)
    @given(params=st.lists(arbitrary_params(), min_size=1, max_size=8),
           value=st.floats(-20.0, 20.0, allow_nan=False),
           n=st.integers(1, 64))
    def test_uniform_equals_batch_kernel(self, composition, params,
                                         value, n):
        pipeline = make_pipeline(composition, params)
        folded = fold_pipeline(pipeline)
        values = [value] * len(params)
        batch = {name: np.full(n, value)
                 for name in pipeline.stage_names}
        expected = pipeline.evaluate_batch(batch)
        assert np.all(expected == expected[0])
        got = folded.evaluate_uniform(values, count=n)
        assert got == expected[0]  # bit-exact, no tolerance

    def test_counters_advance_like_the_batch_kernel(self):
        pipeline = make_pipeline()
        folded = fold_pipeline(pipeline)
        folded.evaluate_uniform([0.5, 0.5, 0.5], count=17)
        for name in pipeline.stage_names:
            assert pipeline.stage(name).evaluations == 17

    def test_count_validation_guards_accounting(self):
        cell = PCAMCell(P1)
        with pytest.raises(ValueError, match="count must be >= 0"):
            cell.tally_evaluations(-1)


class TestInvalidation:
    def test_reprogram_invalidates_the_fold(self):
        pipeline = make_pipeline()
        folded = fold_pipeline(pipeline)
        assert folded.matches(pipeline)
        pipeline.program_stage("s1", prog_pcam(0.0, 0.5, 1.0, 1.5))
        assert not folded.matches(pipeline)
        refolded = fold_pipeline(pipeline)
        assert refolded is not None and refolded.matches(pipeline)

    def test_fault_injection_invalidates_the_fold(self):
        pipeline = make_pipeline()
        folded = fold_pipeline(pipeline)
        cell = pipeline.stage("s0")
        fault = StuckAtFault(state="hrs").materialise(
            cell.params, np.random.default_rng(0))
        cell.inject_fault(fault)
        assert not folded.matches(pipeline)
        pipeline.stage("s0").clear_fault()
        # Clearing the fault restores the *intended* params object?
        # No — clear_fault reprograms, so identity may change; the
        # contract is only that a fresh fold succeeds again.
        assert fold_pipeline(pipeline) is not None

    def test_attached_tracer_invalidates_without_refolding(self):
        pipeline = make_pipeline()
        folded = fold_pipeline(pipeline)
        pipeline.tracer = object()
        assert not folded.matches(pipeline)

    def test_different_pipeline_never_matches(self):
        folded = fold_pipeline(make_pipeline())
        assert not folded.matches(make_pipeline())


class FakeQueue:
    def __init__(self, packets=0, bytes_=0, rate=40e6, sojourn=0.0):
        self.backlog_packets = packets
        self.backlog_bytes = bytes_
        self.capacity_packets = 2000
        self.service_rate_bps = rate
        self.last_sojourn_s = sojourn


def congested_queue():
    return FakeQueue(packets=600, bytes_=600 * 1200, sojourn=0.05)


def batch_only(batch, pdps):
    """A no-op ``output_monitor``: pins an AQM to the batch kernel."""


def aqm_pair(seed=7):
    """Two identically-seeded AQMs: a batch-kernel reference and one
    that folds (the default)."""
    plain = PCAMAQM(rng=np.random.default_rng(seed))
    plain.output_monitor = batch_only
    compiled = PCAMAQM(rng=np.random.default_rng(seed))
    return plain, compiled


def batch_kernel_calls(aqm):
    """Count the AQM's public batch-kernel calls from now on."""
    calls = []
    inner = aqm.drop_probabilities

    def spy(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    aqm.drop_probabilities = spy
    return calls


def admit_chunk(aqm, now=0.02, n=8):
    return aqm.on_enqueue_batch([Packet(size_bytes=900) for _ in range(n)],
                                congested_queue(), now)


def with_dac(aqm):
    name = aqm.pipeline.stage_names[0]
    scaler = aqm._scalers[name]
    aqm._scalers[name] = dataclasses.replace(
        scaler, dac=DAC(bits=8, v_min=scaler.v_lo, v_max=scaler.v_hi))


class TestAQMCompiledLane:
    def test_folds_by_default_and_demotes_when_unprovable(self):
        hub = Observability()
        demotions = {
            "fault injection": lambda aqm: FaultInjector(
                StuckAtFault(state="hrs"), cell_fraction=1.0,
                rng=np.random.default_rng(99)).inject_aqm(aqm),
            "output_monitor": lambda aqm: setattr(
                aqm, "output_monitor", batch_only),
            "tracer": lambda aqm: setattr(
                aqm.pipeline, "tracer", hub.tracer),
            "profiler": lambda aqm: setattr(
                aqm.pipeline, "profiler", hub.profiler),
            "DAC scaler": with_dac,
        }
        for cause, prepare in [("default", lambda aqm: None),
                               *demotions.items()]:
            aqm = PCAMAQM(rng=np.random.default_rng(1))
            prepare(aqm)
            calls = batch_kernel_calls(aqm)
            admit_chunk(aqm)
            assert aqm.evaluations == 8, cause
            assert (not calls) == (cause == "default"), cause

    def test_reprogramming_never_reuses_a_stale_fold(self):
        plain, compiled = aqm_pair(seed=3)
        calls = batch_kernel_calls(compiled)
        for aqm in (plain, compiled):
            admit_chunk(aqm)
        stale = fold_pipeline(compiled.pipeline)
        for aqm in (plain, compiled):
            aqm.retarget(0.010)
        assert not stale.matches(compiled.pipeline)
        drops_a = admit_chunk(plain, now=0.04)
        drops_b = admit_chunk(compiled, now=0.04)
        # The new programming folds afresh, never through the old one.
        assert not calls
        assert np.array_equal(drops_a, drops_b)
        assert plain.last_pdp == compiled.last_pdp
        assert plain.evaluations == compiled.evaluations

    def test_admission_indistinguishable_from_batch_path(self):
        plain, compiled = aqm_pair()
        for step in range(30):
            now = 0.01 * (step + 1)
            packets_a = [Packet(size_bytes=1000, priority=step % 2)
                         for _ in range(16)]
            packets_b = [Packet(size_bytes=1000, priority=step % 2)
                         for _ in range(16)]
            drops_a = plain.on_enqueue_batch(
                packets_a, congested_queue(), now)
            drops_b = compiled.on_enqueue_batch(
                packets_b, congested_queue(), now)
            assert np.array_equal(drops_a, drops_b), step
        assert plain.evaluations == compiled.evaluations > 0
        assert plain.last_pdp == compiled.last_pdp
        assert plain.ledger.total == compiled.ledger.total
        for name in plain.pipeline.stage_names:
            assert plain.pipeline.stage(name).evaluations == \
                compiled.pipeline.stage(name).evaluations

    def test_monitor_attachment_demotes_per_chunk(self):
        plain, compiled = aqm_pair(seed=11)
        seen = []
        compiled.output_monitor = lambda batch, pdps: \
            seen.append(pdps.shape)
        plain.output_monitor = lambda batch, pdps: None
        drops_a = plain.on_enqueue_batch(
            [Packet(size_bytes=900) for _ in range(8)],
            congested_queue(), 0.02)
        drops_b = compiled.on_enqueue_batch(
            [Packet(size_bytes=900) for _ in range(8)],
            congested_queue(), 0.02)
        # The monitor saw the full batch (lane bypassed), decisions
        # unchanged.
        assert seen == [(8,)]
        assert np.array_equal(drops_a, drops_b)

    def test_fault_injection_demotes_mid_stream(self):
        plain, compiled = aqm_pair(seed=13)
        for aqm in (plain, compiled):
            FaultInjector(StuckAtFault(state="hrs"),
                          cell_fraction=1.0,
                          rng=np.random.default_rng(99)) \
                .inject_aqm(aqm)
        drops_a = plain.on_enqueue_batch(
            [Packet(size_bytes=900) for _ in range(12)],
            congested_queue(), 0.02)
        drops_b = compiled.on_enqueue_batch(
            [Packet(size_bytes=900) for _ in range(12)],
            congested_queue(), 0.02)
        assert np.array_equal(drops_a, drops_b)
        assert plain.last_pdp == compiled.last_pdp
